#include "iot/scheduler.h"

#include <cmath>

#include "util/logging.h"

namespace insitu {

namespace {

/// Inference service window ("the inference task runs in the
/// daytime").
constexpr double kDayHours = 14;
/// Diagnosis window ("the diagnosis task works at night").
constexpr double kNightHours = 10;

} // namespace

DutyCyclePlan
DutyCycleScheduler::plan(const NetworkDesc& inference,
                         const NetworkDesc& diagnosis) const
{
    INSITU_CHECK(config_.frames_per_day >= 0, "negative frame count");
    DutyCyclePlan plan;
    SingleRunningPlanner planner{gpu_};
    plan.tasks = planner.plan(inference, diagnosis,
                              config_.latency_requirement_s);

    // Day: frames arrive over the window and are served in
    // time-model-sized batches.
    const double inf_batches = std::ceil(
        config_.frames_per_day /
        static_cast<double>(plan.tasks.inference_batch));
    plan.inference_busy_s = inf_batches * plan.tasks.inference_latency;
    const double day_s = kDayHours * 3600.0;
    plan.day_utilization = plan.inference_busy_s / day_s;

    // Night: the whole day's frames are diagnosed in memory-limited
    // maximal batches (latency is irrelevant, Eq 9 sizes the batch).
    const double diag_batches = std::ceil(
        config_.frames_per_day /
        static_cast<double>(plan.tasks.diagnosis_batch));
    const double diag_batch_latency = gpu_.network_latency(
        diagnosis, plan.tasks.diagnosis_batch);
    plan.diagnosis_busy_s = diag_batches * diag_batch_latency;
    const double night_s = kNightHours * 3600.0;
    plan.night_utilization = plan.diagnosis_busy_s / night_s;

    // Daily energy: busy at load power, the rest of 24 h idle.
    const double busy_s =
        plan.inference_busy_s + plan.diagnosis_busy_s;
    const double idle_s =
        std::max(0.0, 24.0 * 3600.0 - busy_s);
    const double joules = busy_s * gpu_.spec().power_watts +
                          idle_s * gpu_.spec().idle_watts;
    plan.energy_wh = joules / 3600.0;

    plan.feasible = plan.day_utilization <= 1.0 &&
                    plan.night_utilization <= 1.0 &&
                    plan.energy_wh <= config_.battery_wh_per_day;
    return plan;
}

} // namespace insitu
