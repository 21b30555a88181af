#include "hw/gpu_model.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace insitu {

namespace {

double
ceil_div(double a, double b)
{
    return std::ceil(a / b);
}

} // namespace

double
GpuModel::grid_size(const LayerDesc& layer, int64_t batch) const
{
    INSITU_CHECK(batch > 0, "batch must be positive");
    // The output matrix Om is (M, R*C*B): batching appends columns to
    // the data matrix (§IV-A2), and FCN layers have R = C = 1.
    const double rows = static_cast<double>(layer.m);
    const double cols = static_cast<double>(layer.r) *
                        static_cast<double>(layer.c) *
                        static_cast<double>(batch);
    return ceil_div(rows, spec_.tile_m) * ceil_div(cols, spec_.tile_n);
}

double
GpuModel::utilization(const LayerDesc& layer, int64_t batch) const
{
    const double grid = grid_size(layer, batch);
    const double max_blocks = static_cast<double>(spec_.max_blocks);
    // Eq (3): full waves are fully utilized; the trailing partial
    // wave strands capacity.
    return grid / (max_blocks * ceil_div(grid, max_blocks));
}

GpuLayerTiming
GpuModel::layer_time(const LayerDesc& layer, int64_t batch,
                     bool batch_shares_weights) const
{
    GpuLayerTiming t;
    t.utilization = utilization(layer, batch);
    const double b = static_cast<double>(batch);
    const double ops = layer.ops() * b;

    // Eq (7): compute roof scaled by utilization.
    const double compute_roof = spec_.peak_ops() * t.utilization;

    // Eq (8): compute-to-memory ratio. Data access counts elements
    // Din + Dw + Dout; weights are fetched once per batch when the
    // batch shares them, once per sample otherwise.
    const double weight_fetches = batch_shares_weights ? 1.0 : b;
    const double accessed_bytes =
        4.0 * (layer.input_count() * b +
               layer.weight_count() * weight_fetches +
               layer.output_count() * b);
    const double ctm = ops / accessed_bytes;

    // Eq (6): achieved perf is the lower roof.
    const double mem_roof = ctm * spec_.mem_bandwidth;
    t.achieved_ops = std::min(compute_roof, mem_roof);
    t.memory_bound = mem_roof < compute_roof;
    // Eq (5).
    t.seconds = ops / t.achieved_ops;
    return t;
}

double
GpuModel::conv_latency(const NetworkDesc& net, int64_t batch) const
{
    double total = 0.0;
    for (const auto& l : net.conv_layers())
        total += layer_time(l, batch).seconds;
    return total;
}

double
GpuModel::fcn_latency(const NetworkDesc& net, int64_t batch,
                      bool batch_shares_weights) const
{
    double total = 0.0;
    for (const auto& l : net.fcn_layers())
        total += layer_time(l, batch, batch_shares_weights).seconds;
    return total;
}

double
GpuModel::network_latency(const NetworkDesc& net, int64_t batch) const
{
    return conv_latency(net, batch) + fcn_latency(net, batch);
}

double
GpuModel::images_per_second(const NetworkDesc& net,
                            int64_t batch) const
{
    return static_cast<double>(batch) / network_latency(net, batch);
}

double
GpuModel::perf_per_watt(const NetworkDesc& net, int64_t batch) const
{
    return images_per_second(net, batch) / spec_.power_watts;
}

double
GpuModel::memory_required(const NetworkDesc& net, int64_t batch) const
{
    // All weights resident, plus the largest layer's live
    // input/output working set at the given batch (Eq 9 applied to
    // the peak layer).
    const double b = static_cast<double>(batch);
    double weights = net.total_weights();
    double peak_activation = 0.0;
    for (const auto& l : net.layers) {
        peak_activation =
            std::max(peak_activation,
                     (l.input_count() + l.output_count()) * b);
    }
    return 4.0 * (weights + peak_activation);
}

int64_t
GpuModel::max_batch_for_memory(const NetworkDesc& net,
                               int64_t limit) const
{
    int64_t best = 1;
    for (int64_t b = 1; b <= limit; b *= 2) {
        if (memory_required(net, b) <= spec_.mem_capacity)
            best = b;
        else
            break;
    }
    // Refine linearly between best and 2*best.
    for (int64_t b = best + 1; b < best * 2 && b <= limit; ++b) {
        if (memory_required(net, b) <= spec_.mem_capacity)
            best = b;
        else
            break;
    }
    return best;
}

void
GpuModel::set_calibration(const GpuCalibration& calib)
{
    INSITU_CHECK(calib.time_scale > 0, "time_scale must be positive");
    INSITU_CHECK(calib.overhead_s >= 0, "negative overhead");
    calib_ = calib;
}

double
GpuModel::predicted_batch_latency(const NetworkDesc& net,
                                  int64_t batch) const
{
    return calib_.time_scale * network_latency(net, batch) +
           calib_.overhead_s;
}

double
GpuModel::residual(const NetworkDesc& net, int64_t batch,
                   double measured_s) const
{
    const double predicted = predicted_batch_latency(net, batch);
    return (measured_s - predicted) / predicted;
}

GpuCalibration
fit_calibration(const GpuModel& model, const NetworkDesc& net,
                const std::vector<BatchObservation>& obs)
{
    GpuCalibration fit;
    if (obs.empty()) return fit;

    // Weighted moments of (x = uncalibrated modeled time,
    // y = measured mean time).
    GpuModel analytical(model.spec()); // identity calibration
    double sw = 0, swx = 0, swy = 0, swxx = 0, swxy = 0;
    int64_t samples = 0;
    for (const auto& o : obs) {
        INSITU_CHECK(o.batch > 0, "observation batch must be positive");
        if (o.count <= 0) continue;
        const double w = static_cast<double>(o.count);
        const double x = analytical.network_latency(net, o.batch);
        const double y = o.mean_seconds;
        sw += w;
        swx += w * x;
        swy += w * y;
        swxx += w * x * x;
        swxy += w * x * y;
        samples += o.count;
    }
    if (samples == 0) return fit;
    fit.samples = samples;

    const auto scale_only = [&] {
        // overhead pinned to 0: time_scale = argmin sum w (y - s x)^2.
        fit.overhead_s = 0.0;
        fit.time_scale = swxx > 0 ? swxy / swxx : 1.0;
        if (!(fit.time_scale > 0)) fit.time_scale = 1.0;
    };

    const double denom = sw * swxx - swx * swx;
    // Rank-deficient when every observation sits at one modeled time
    // (single distinct batch size): the intercept is unidentifiable.
    if (denom <= 1e-12 * sw * swxx) {
        scale_only();
        return fit;
    }
    fit.time_scale = (sw * swxy - swx * swy) / denom;
    fit.overhead_s = (swy - fit.time_scale * swx) / sw;
    // Clamp to the physically meaningful quadrant; re-solve the
    // remaining constant so the result is still a least-squares fit.
    if (!(fit.time_scale > 0) || fit.overhead_s < 0) scale_only();
    return fit;
}

double
GpuModel::corun_slowdown(double inference_ops,
                         double diagnosis_ops) const
{
    INSITU_CHECK(inference_ops > 0, "inference ops must be positive");
    INSITU_CHECK(diagnosis_ops >= 0, "negative diagnosis ops");
    // Calibrated SM-contention model: the co-runner steals a share of
    // block-issue slots proportional to its outstanding work, and the
    // slowdown saturates at the paper's measured ~3x (Fig. 16).
    const double share =
        diagnosis_ops / (diagnosis_ops + inference_ops);
    return 1.0 + 2.0 * share;
}

} // namespace insitu
