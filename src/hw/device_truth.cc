#include "hw/device_truth.h"

#include "util/logging.h"

namespace insitu {

DeviceTruth::DeviceTruth(GpuSpec spec, const DeviceTruthConfig& config)
    : model_(std::move(spec)), rng_(config.seed)
{
    model_.set_calibration(
        GpuCalibration{config.time_scale, config.overhead_s});
}

double
DeviceTruth::run_batch(const NetworkDesc& net, int64_t batch,
                       double corun_factor)
{
    INSITU_CHECK(corun_factor >= 1.0, "corun factor below 1");
    const double jitter =
        1.0 + kJitterFrac * (2.0 * rng_.uniform() - 1.0);
    return mean_batch_seconds(net, batch) * jitter * corun_factor;
}

} // namespace insitu
