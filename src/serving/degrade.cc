#include "serving/degrade.h"

namespace insitu::serving {

const char*
device_health_name(DeviceHealth state)
{
    switch (state) {
    case DeviceHealth::kHealthy: return "healthy";
    case DeviceHealth::kSuspect: return "suspect";
    case DeviceHealth::kDegraded: return "degraded";
    case DeviceHealth::kProbation: return "probation";
    }
    return "?";
}

GrayFailureDetector::Verdict
GrayFailureDetector::observe(double abs_residual)
{
    if (observations_ == 0)
        ewma_ = abs_residual;
    else
        ewma_ = cfg_.alpha * abs_residual +
                (1.0 - cfg_.alpha) * ewma_;
    ++observations_;

    const DeviceHealth prev_state = state_;
    const int prev_rung = rung_;
    Verdict v;

    switch (state_) {
    case DeviceHealth::kHealthy:
        if (ewma_ > cfg_.suspect_enter) {
            state_ = DeviceHealth::kSuspect;
            rung_ = 1;
        }
        break;

    case DeviceHealth::kSuspect:
        if (ewma_ > cfg_.degraded_enter) {
            state_ = DeviceHealth::kDegraded;
            rung_ = 2;
            high_streak_ = 0;
        } else if (ewma_ < cfg_.suspect_exit) {
            state_ = DeviceHealth::kHealthy;
            rung_ = 0;
        }
        break;

    case DeviceHealth::kDegraded:
        if (ewma_ < cfg_.degraded_exit) {
            // Residuals fell back into the envelope; demand a run of
            // clean batches before trusting the device again.
            state_ = DeviceHealth::kProbation;
            rung_ = 1;
            probation_left_ = cfg_.probation_batches;
        } else if (ewma_ > cfg_.degraded_enter) {
            // Still deep in the red: each escalate_after-batch streak
            // climbs one more rung of the ladder.
            if (++high_streak_ >= cfg_.escalate_after) {
                high_streak_ = 0;
                if (rung_ < kMaxRung) ++rung_;
            }
        } else {
            high_streak_ = 0;
        }
        break;

    case DeviceHealth::kProbation:
        if (abs_residual > cfg_.suspect_enter) {
            // One dirty batch voids probation outright.
            state_ = DeviceHealth::kDegraded;
            rung_ = 2;
            high_streak_ = 0;
        } else if (--probation_left_ <= 0) {
            state_ = DeviceHealth::kHealthy;
            rung_ = 0;
            v.calibrate = true;
        }
        break;
    }

    v.state = state_;
    v.rung = rung_;
    v.changed = state_ != prev_state || rung_ != prev_rung;
    return v;
}

} // namespace insitu::serving
