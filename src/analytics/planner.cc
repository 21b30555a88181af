#include "analytics/planner.h"

#include "util/logging.h"

namespace insitu {

const char*
working_mode_name(WorkingMode mode)
{
    switch (mode) {
      case WorkingMode::kSingleRunning: return "Single-running";
      case WorkingMode::kCoRunning: return "Co-running";
    }
    return "?";
}

WorkingMode
choose_working_mode(bool inference_always_on)
{
    return inference_always_on ? WorkingMode::kCoRunning
                               : WorkingMode::kSingleRunning;
}

int64_t
SingleRunningPlanner::max_batch_under_latency(const NetworkDesc& net,
                                              double latency_req,
                                              int64_t max_batch) const
{
    INSITU_CHECK(latency_req > 0, "latency requirement must be > 0");
    int64_t best = 1;
    for (int64_t b = 1; b <= max_batch; ++b) {
        if (gpu_.network_latency(net, b) <= latency_req)
            best = b;
        // Latency is monotonically nondecreasing in batch, but the
        // trailing-wave utilization term makes it slightly bumpy;
        // keep scanning the full range rather than breaking early.
    }
    return best;
}

SingleRunningPlan
SingleRunningPlanner::plan(const NetworkDesc& inference,
                           const NetworkDesc& diagnosis,
                           double latency_req) const
{
    SingleRunningPlan p;
    p.inference_batch =
        max_batch_under_latency(inference, latency_req);
    p.inference_latency_limited =
        gpu_.network_latency(inference, p.inference_batch + 1) >
        latency_req;
    p.inference_latency =
        gpu_.network_latency(inference, p.inference_batch);
    p.inference_perf_per_watt =
        gpu_.perf_per_watt(inference, p.inference_batch);
    // Diagnosis has no latency requirement; bigger batches only help
    // until Eq (9) runs out of device memory.
    p.diagnosis_batch = gpu_.max_batch_for_memory(diagnosis);
    p.diagnosis_memory_limited =
        gpu_.memory_required(diagnosis, p.diagnosis_batch + 1) >
        gpu_.spec().mem_capacity;
    p.diagnosis_memory_bytes =
        gpu_.memory_required(diagnosis, p.diagnosis_batch);
    p.diagnosis_perf_per_watt =
        gpu_.perf_per_watt(diagnosis, p.diagnosis_batch);
    return p;
}

std::vector<double>
profile_batches(DeviceTruth& device, const NetworkDesc& net,
                int64_t max_batch)
{
    std::vector<double> seconds;
    for (int64_t b = 1; b <= max_batch; ++b)
        seconds.push_back(device.run_batch(net, b));
    return seconds;
}

int64_t
best_profiled_batch(const std::vector<double>& seconds,
                    double latency_req)
{
    INSITU_CHECK(latency_req > 0, "latency requirement must be > 0");
    int64_t best = 1;
    double best_tp = 0.0;
    for (size_t i = 0; i < seconds.size(); ++i) {
        if (seconds[i] > latency_req) continue;
        const double tp = static_cast<double>(i + 1) / seconds[i];
        if (tp > best_tp) {
            best_tp = tp;
            best = static_cast<int64_t>(i + 1);
        }
    }
    return best;
}

CoRunningPlan
CoRunningPlanner::plan(const NetworkDesc& net, double latency_req,
                       int64_t max_batch) const
{
    INSITU_CHECK(latency_req > 0, "latency requirement must be > 0");
    CoRunningPlan best;
    // Fix the paper's Tr x Tc = 14 x 14 engines and the FCN engine;
    // sweep the group size allowed by Eq (10) and the batch allowed
    // by Eq (14).
    for (int64_t group = 1; group <= 16; ++group) {
        WssConfig config;
        config.tr = 14;
        config.tc = 14;
        config.group_size = group;
        config.nws = EngineUnroll{8, 10};
        if (!fpga_.fits_dsp(config)) break;
        for (int64_t b = 1; b <= max_batch; ++b) {
            config.batch = b;
            const double latency =
                fpga_.pipeline_latency(net, config);
            if (latency > latency_req) break;
            const double throughput =
                fpga_.pipeline_throughput(net, config);
            if (!best.feasible || throughput > best.throughput) {
                best.feasible = true;
                best.config = config;
                best.latency = latency;
                best.throughput = throughput;
                best.perf_per_watt =
                    fpga_.perf_per_watt(net, config);
            }
        }
    }
    return best;
}

} // namespace insitu
