#include "faults/fault_plan.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace insitu {

bool
FaultPlan::storage_faulty() const
{
    return torn_write_prob > 0.0 || bit_rot_prob > 0.0 ||
           crash_mid_commit_prob > 0.0 || stale_snapshot_prob > 0.0;
}

bool
FaultPlan::flapping_down(double t) const
{
    return std::any_of(flapping.begin(), flapping.end(),
                       [t](const FlappingWindow& w) {
                           if (t < w.from_s || t >= w.to_s)
                               return false;
                           return std::fmod(t - w.from_s, w.period_s) <
                                  w.down_s;
                       });
}

bool
FaultPlan::crashes_at(int stage, int node) const
{
    return std::any_of(crashes.begin(), crashes.end(),
                       [=](const NodeCrashEvent& e) {
                           return e.stage == stage && e.node == node;
                       });
}

bool
FaultPlan::poisoned_at(int stage) const
{
    return std::find(poisoned_stages.begin(), poisoned_stages.end(),
                     stage) != poisoned_stages.end();
}

const FaultPlan&
FaultPlan::validated() const
{
    INSITU_CHECK(payload_loss_prob >= 0.0 && payload_loss_prob <= 1.0,
                 "payload_loss_prob must be a probability");
    INSITU_CHECK(
        payload_corrupt_prob >= 0.0 && payload_corrupt_prob <= 1.0,
        "payload_corrupt_prob must be a probability");
    INSITU_CHECK(torn_write_prob >= 0.0 && torn_write_prob <= 1.0,
                 "torn_write_prob must be a probability");
    INSITU_CHECK(bit_rot_prob >= 0.0 && bit_rot_prob <= 1.0,
                 "bit_rot_prob must be a probability");
    INSITU_CHECK(
        crash_mid_commit_prob >= 0.0 && crash_mid_commit_prob <= 1.0,
        "crash_mid_commit_prob must be a probability");
    INSITU_CHECK(
        stale_snapshot_prob >= 0.0 && stale_snapshot_prob <= 1.0,
        "stale_snapshot_prob must be a probability");
    for (const FlappingWindow& w : flapping) {
        INSITU_CHECK(w.to_s >= w.from_s,
                     "flapping window must be ordered");
        INSITU_CHECK(w.period_s > 0, "flapping period must be positive");
        INSITU_CHECK(w.down_s >= 0 && w.down_s <= w.period_s,
                     "flapping down burst must fit the period");
    }
    return *this;
}

} // namespace insitu
