/**
 * @file
 * Battery / energy-harvesting model for the IoT node.
 *
 * Most IoT nodes are battery powered, possibly solar assisted. This
 * model tracks the state of charge across duty-cycled days so
 * deployments can answer "does this schedule survive the dry season?"
 * — the operational question behind the paper's energy-efficiency
 * focus.
 */
#pragma once

namespace insitu {

/** Battery + harvest characteristics. */
struct BatterySpec {
    double capacity_wh = 120.0;   ///< full charge
    double harvest_wh_per_day = 30.0; ///< mean solar income
};

/** Mutable state of charge with daily bookkeeping. */
class Battery {
  public:
    explicit Battery(BatterySpec spec);

    /** Current charge in Wh. */
    double charge_wh() const { return charge_wh_; }

    /** State of charge in [0, 1]. */
    double state_of_charge() const;

    /**
     * Advance one day: consume @p load_wh, harvest the spec income
     * scaled by @p harvest_factor (cloud cover), self-discharge.
     * @return true if the node stayed powered (charge never hit 0).
     */
    bool step_day(double load_wh, double harvest_factor = 1.0);

    /** Days survived so far. */
    int days() const { return days_; }

    /** Lowest state of charge seen. */
    double min_state_of_charge() const { return min_soc_; }

    /**
     * Days until depletion under a constant daily @p load_wh and
     * nominal harvest; -1 if the node is sustainable indefinitely.
     */
    int days_until_depletion(double load_wh) const;

  private:
    BatterySpec spec_;
    double charge_wh_;
    double min_soc_ = 1.0;
    int days_ = 0;
};

} // namespace insitu
