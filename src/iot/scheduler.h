/**
 * @file
 * Duty-cycle scheduler for Single-running mode (§IV-A2).
 *
 * In Single-running mode the two tasks time-share one device: "the
 * inference task runs in the daytime, while the diagnosis task works
 * at night." The scheduler plans a 24-hour cycle: inference bursts
 * sized by the time model serve the day's frames within their latency
 * budget; the backlog of frames is diagnosed overnight in
 * memory-limited maximal batches; and the node's daily energy is
 * accounted against its battery budget.
 */
#pragma once

#include "analytics/planner.h"

namespace insitu {

/** Workload and power envelope of one node-day. */
struct DutyCycleConfig {
    double frames_per_day = 5000;    ///< camera triggers per day
    double latency_requirement_s = 0.033;
    double battery_wh_per_day = 60;  ///< daily energy budget
};

/** The planned day. */
struct DutyCyclePlan {
    SingleRunningPlan tasks;        ///< batch choices for both tasks
    double inference_busy_s = 0;    ///< device time serving frames
    double diagnosis_busy_s = 0;    ///< device time diagnosing backlog
    double day_utilization = 0;     ///< busy fraction of the day window
    double night_utilization = 0;   ///< busy fraction of the night
    double energy_wh = 0;           ///< total daily device energy
    bool feasible = false;          ///< fits both windows and battery

    /** Leftover daily energy (negative if over budget). */
    double
    energy_headroom_wh(const DutyCycleConfig& config) const
    {
        return config.battery_wh_per_day - energy_wh;
    }
};

/** Plans Single-running day/night duty cycles on one GPU node. */
class DutyCycleScheduler {
  public:
    DutyCycleScheduler(GpuModel gpu, DutyCycleConfig config)
        : gpu_(std::move(gpu)), config_(config)
    {}

    /**
     * Plan one day for the given inference network and its diagnosis
     * companion. Busy time uses the modeled batch latencies; idle
     * time draws idle power.
     */
    DutyCyclePlan plan(const NetworkDesc& inference,
                       const NetworkDesc& diagnosis) const;

    const DutyCycleConfig& config() const { return config_; }

  private:
    GpuModel gpu_;
    DutyCycleConfig config_;
};

} // namespace insitu
