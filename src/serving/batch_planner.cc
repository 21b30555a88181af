#include "serving/batch_planner.h"

#include <algorithm>

namespace insitu::serving {

const char*
planner_mode_name(PlannerMode mode)
{
    switch (mode) {
    case PlannerMode::kStatic: return "static";
    case PlannerMode::kOnline: return "online";
    }
    return "?";
}

BatchDecision
BatchPlanner::plan(const GpuModel& gpu, const NetworkDesc& net,
                   double now_s,
                   const std::vector<double>& edf_deadlines,
                   double diagnosis_ops,
                   const PlanOverrides& overrides) const
{
    // Empty queue: the explicit empty decision, not a caller trap.
    if (edf_deadlines.empty()) return {};
    const int64_t depth =
        static_cast<int64_t>(edf_deadlines.size());
    const int64_t cap = std::min(depth, kMaxBatch);

    // Predicted dispatch time of an EDF prefix of size b: calibrated
    // batch latency inflated by the co-running interference of Eq
    // 3-8's companion model (Fig. 16), then the safety margin (which
    // the degradation ladder widens when the device turns suspect).
    const double safety = kPlannerSafety * overrides.safety_mult;
    const auto predict = [&](int64_t b) {
        const double corun =
            diagnosis_ops > 0
                ? gpu.corun_slowdown(net.total_ops() *
                                         static_cast<double>(b),
                                     diagnosis_ops)
                : 1.0;
        return gpu.predicted_batch_latency(net, b) * corun * safety;
    };

    BatchDecision d;
    if (config_.mode == PlannerMode::kStatic) {
        d.batch = std::min(config_.static_batch, depth);
        d.predicted_s = predict(d.batch);
        return d;
    }

    // Deadline mode: largest EDF prefix whose completion meets the
    // front deadline (the minimum over the prefix, since the list is
    // ascending). Skipped entirely when the ladder forces drain —
    // predictions a gray-failing device has invalidated must not
    // gate deadlines.
    const double front_slack = edf_deadlines.front() - now_s;
    for (int64_t b = overrides.force_drain ? 0 : cap; b >= 1; --b) {
        const double t = predict(b);
        if (t <= front_slack) {
            d.batch = b;
            d.predicted_s = t;
            return d;
        }
    }

    // Drain mode: nothing meets the front deadline; maximize
    // predicted throughput b / time(b) to clear the backlog fastest.
    d.deadline_feasible = false;
    double best_rate = -1.0;
    for (int64_t b = 1; b <= cap; ++b) {
        const double t = predict(b);
        const double rate = static_cast<double>(b) / t;
        if (rate > best_rate) {
            best_rate = rate;
            d.batch = b;
            d.predicted_s = t;
        }
    }
    return d;
}

} // namespace insitu::serving
