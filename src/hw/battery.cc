#include "hw/battery.h"

#include <algorithm>

#include "util/logging.h"

namespace insitu {

namespace {

/// Fraction of capacity lost per day to self-discharge.
constexpr double kSelfDischargePerDay = 0.002;

} // namespace

Battery::Battery(BatterySpec spec)
    : spec_(spec), charge_wh_(spec.capacity_wh)
{
    INSITU_CHECK(spec.capacity_wh > 0, "capacity must be positive");
    INSITU_CHECK(spec.harvest_wh_per_day >= 0, "negative harvest");
}

double
Battery::state_of_charge() const
{
    return charge_wh_ / spec_.capacity_wh;
}

bool
Battery::step_day(double load_wh, double harvest_factor)
{
    INSITU_CHECK(load_wh >= 0, "negative load");
    INSITU_CHECK(harvest_factor >= 0, "negative harvest factor");
    ++days_;
    charge_wh_ -= load_wh;
    charge_wh_ -= kSelfDischargePerDay * spec_.capacity_wh;
    const bool survived = charge_wh_ > 0.0;
    charge_wh_ += spec_.harvest_wh_per_day * harvest_factor;
    charge_wh_ = std::clamp(charge_wh_, 0.0, spec_.capacity_wh);
    min_soc_ = std::min(min_soc_, state_of_charge());
    return survived;
}

int
Battery::days_until_depletion(double load_wh) const
{
    const double daily_net =
        load_wh + kSelfDischargePerDay * spec_.capacity_wh -
        spec_.harvest_wh_per_day;
    if (daily_net <= 0.0) return -1;
    return static_cast<int>(charge_wh_ / daily_net) + 1;
}

} // namespace insitu
