/**
 * @file
 * Unit tests for the analytical device models: Eqs (2)-(9) on the
 * GPU, Eqs (4), (10)-(13) on the FPGA, and the qualitative trends
 * the paper's characterization (Figs 11, 12, 14, 15, 16) rests on.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "hw/device_truth.h"
#include "hw/fpga_model.h"
#include "hw/gpu_model.h"
#include "hw/spec.h"

namespace insitu {
namespace {

LayerDesc
sample_conv()
{
    LayerDesc l;
    l.name = "conv2";
    l.type = LayerType::kConv;
    l.n = 96;
    l.m = 256;
    l.k = 5;
    l.r = 27;
    l.c = 27;
    return l;
}

LayerDesc
sample_fcn()
{
    LayerDesc l;
    l.name = "fc6";
    l.type = LayerType::kFcn;
    l.n = 9216;
    l.m = 4096;
    return l;
}

TEST(Specs, CatalogSanity)
{
    EXPECT_EQ(tx1_spec().cuda_cores, 256);
    EXPECT_EQ(titan_x_spec().cuda_cores, 3072);
    EXPECT_EQ(vx690t_spec().dsp_slices, 3600);
    EXPECT_GT(titan_x_spec().peak_ops(), tx1_spec().peak_ops());
}

TEST(Link, TransferScalesWithBytes)
{
    const LinkSpec link = iot_uplink_spec();
    EXPECT_GT(link.transfer_seconds(2e6), link.transfer_seconds(1e6));
    EXPECT_DOUBLE_EQ(link.transfer_energy(1e6),
                     1e6 * link.energy_per_byte);
}

TEST(GpuModel, GridSizeMatchesEquationTwo)
{
    GpuModel gpu(tx1_spec());
    const LayerDesc l = sample_conv();
    // ceil(256/64) * ceil(27*27*1/64) = 4 * 12 = 48.
    EXPECT_DOUBLE_EQ(gpu.grid_size(l, 1), 48.0);
    // Batching multiplies the data-matrix columns.
    EXPECT_DOUBLE_EQ(gpu.grid_size(l, 4), 4.0 * std::ceil(729.0 * 4 / 64));
}

TEST(GpuModel, UtilizationMatchesEquationThree)
{
    GpuModel gpu(tx1_spec()); // maxBlocks = 32
    const LayerDesc l = sample_conv();
    // grid 48 -> 48 / (32 * ceil(48/32)) = 48/64 = 0.75.
    EXPECT_DOUBLE_EQ(gpu.utilization(l, 1), 0.75);
}

TEST(GpuModel, UtilizationImprovesWithBatchOnConv)
{
    // Fig 15: GPU utilization of CONV layers rises with batch size,
    // because batching widens the data matrix (Eq 2) and fills the
    // trailing wave of thread blocks (Eq 3).
    GpuModel gpu(tx1_spec());
    LayerDesc l = sample_conv();
    l.m = 96; // conv-like layer with a small grid at batch 1
    l.r = l.c = 13;
    EXPECT_LT(gpu.utilization(l, 1), gpu.utilization(l, 16));
    EXPECT_LE(gpu.utilization(l, 16), 1.0);
}

TEST(GpuModel, FcnIsMemoryBoundAtBatchOne)
{
    // Fig 12's root cause: matrix-vector FCN cannot reuse weights.
    GpuModel gpu(tx1_spec());
    const auto t = gpu.layer_time(sample_fcn(), 1);
    EXPECT_TRUE(t.memory_bound);
}

TEST(GpuModel, FcnBecomesComputeBoundAtLargeBatch)
{
    GpuModel gpu(tx1_spec());
    const auto t = gpu.layer_time(sample_fcn(), 256);
    EXPECT_FALSE(t.memory_bound);
}

TEST(GpuModel, LatencyIncreasesWithBatch)
{
    // Fig 11, left: batch latency grows with batch size.
    GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();
    double prev = 0.0;
    for (int64_t b : {1, 2, 4, 8, 16, 32}) {
        const double t = gpu.network_latency(net, b);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(GpuModel, PerfPerWattImprovesWithBatch)
{
    // Fig 11, right: energy-efficiency improves with batch on GPU.
    GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();
    EXPECT_GT(gpu.perf_per_watt(net, 32), gpu.perf_per_watt(net, 1));
}

TEST(GpuModel, FcnShareOfRuntimeShrinksWithBatch)
{
    // Fig 12: FCN layers are up to ~50% of runtime at batch 1 and
    // shrink as batching amortizes their weights.
    GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();
    auto fcn_share = [&](int64_t b) {
        const double conv = gpu.conv_latency(net, b);
        const double fcn = gpu.fcn_latency(net, b);
        return fcn / (conv + fcn);
    };
    EXPECT_GT(fcn_share(1), 0.3);
    EXPECT_LT(fcn_share(64), fcn_share(1));
}

TEST(GpuModel, AlexNetBatch1LatencyPlausible)
{
    // TX1 runs AlexNet inference in the tens of milliseconds.
    GpuModel gpu(tx1_spec());
    const double t = gpu.network_latency(alexnet_desc(), 1);
    EXPECT_GT(t, 0.005);
    EXPECT_LT(t, 0.2);
}

TEST(GpuModel, MemoryModelMonotoneAndBounding)
{
    GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();
    EXPECT_GT(gpu.memory_required(net, 8),
              gpu.memory_required(net, 1));
    const int64_t max_b = gpu.max_batch_for_memory(net);
    EXPECT_GE(max_b, 1);
    EXPECT_LE(gpu.memory_required(net, max_b),
              gpu.spec().mem_capacity);
    EXPECT_GT(gpu.memory_required(net, max_b + 1),
              gpu.spec().mem_capacity);
}

TEST(GpuModel, CorunSlowdownSaturatesNearThree)
{
    // Fig 16: up to ~3x inference slowdown under co-running.
    GpuModel gpu(tx1_spec());
    EXPECT_DOUBLE_EQ(gpu.corun_slowdown(1.0, 0.0), 1.0);
    EXPECT_NEAR(gpu.corun_slowdown(1.0, 1.0), 2.0, 1e-9);
    EXPECT_LT(gpu.corun_slowdown(1.0, 100.0), 3.0);
    EXPECT_GT(gpu.corun_slowdown(1.0, 100.0), 2.9);
}

TEST(FpgaModel, UtilizationMatchesEquationFour)
{
    LayerDesc l = sample_conv(); // N=96, M=256
    EngineUnroll e{32, 64};
    // 96*256 / (32*64*ceil(96/32)*ceil(256/64)) = 24576/24576 = 1.
    EXPECT_DOUBLE_EQ(FpgaModel::utilization(l, e), 1.0);
    EngineUnroll bad{36, 73};
    EXPECT_LT(FpgaModel::utilization(l, bad), 1.0);
}

TEST(FpgaModel, FpgaUtilizationIndependentOfBatch)
{
    // Fig 15: Eq (4) has no batch term — this is structural, the
    // model cannot even express a batch effect on conv utilization.
    LayerDesc l = sample_conv();
    EngineUnroll e{16, 16};
    const double u = FpgaModel::utilization(l, e);
    EXPECT_GT(u, 0.5);
    EXPECT_LE(u, 1.0);
}

TEST(FpgaModel, ConvTimeUnrolledScalesInverselyWithUnroll)
{
    FpgaModel fpga(vx690t_spec());
    const LayerDesc l = sample_conv();
    const double t_small = fpga.conv_time_unrolled(l, {8, 8});
    const double t_big = fpga.conv_time_unrolled(l, {32, 32});
    EXPECT_GT(t_small, 10.0 * t_big);
}

TEST(FpgaModel, FcnBatchingHelpsOnlyWithWeightReuse)
{
    // Fig 13/14: without the batch loop FPGA FCN efficiency is flat;
    // with it, per-image time drops.
    FpgaModel fpga(vx690t_spec());
    const LayerDesc l = sample_fcn();
    EngineUnroll e{8, 10};
    const double per_image_nobatch_1 =
        fpga.fcn_time(l, e, 1, false);
    const double per_image_nobatch_32 =
        fpga.fcn_time(l, e, 32, false) / 32.0;
    EXPECT_NEAR(per_image_nobatch_32, per_image_nobatch_1,
                per_image_nobatch_1 * 0.1);
    const double per_image_batch_32 =
        fpga.fcn_time(l, e, 32, true) / 32.0;
    EXPECT_LT(per_image_batch_32, 0.5 * per_image_nobatch_1);
}

TEST(FpgaModel, WssConvTimeMatchesEquationEleven)
{
    FpgaModel fpga(vx690t_spec());
    LayerDesc l = sample_conv();
    WssConfig config;
    config.tr = config.tc = 14;
    config.group_size = 4;
    // ceil(256/4)*96*25*ceil(27/14)*ceil(27/14) = 64*96*25*2*2.
    const double cycles = 64.0 * 96 * 25 * 2 * 2;
    EXPECT_DOUBLE_EQ(fpga.conv_time_wss(l, config),
                     cycles / fpga.spec().freq_hz);
}

TEST(FpgaModel, DspBudgetEquationTen)
{
    FpgaModel fpga(vx690t_spec()); // 3600 DSPs
    WssConfig config;
    config.tr = config.tc = 14;
    config.nws = EngineUnroll{8, 10};
    // One WSS = 196 + 9*49 = 637 DSPs.
    EXPECT_EQ(FpgaModel::dsp_per_wss(config), 637);
    config.group_size = 5; // 3185 + 80 fits
    EXPECT_TRUE(fpga.fits_dsp(config));
    config.group_size = 6; // 3822 + 80 does not
    EXPECT_FALSE(fpga.fits_dsp(config));
}

TEST(FpgaModel, PipelineThroughputRisesWithBatchUntilFcnBound)
{
    FpgaModel fpga(vx690t_spec());
    const NetworkDesc net = alexnet_desc();
    WssConfig config;
    config.group_size = 4;
    config.nws = EngineUnroll{8, 10};
    config.batch = 1;
    const double tp1 = fpga.pipeline_throughput(net, config);
    config.batch = 8;
    const double tp8 = fpga.pipeline_throughput(net, config);
    EXPECT_GT(tp8, tp1);
    // Latency is twice the stage period.
    EXPECT_DOUBLE_EQ(fpga.pipeline_latency(net, config),
                     2.0 * fpga.pipeline_period(net, config));
}

TEST(GpuVsFpga, GpuMoreEnergyEfficientSingleRunning)
{
    // §IV-A2: "GPU's energy-efficiency is always better than FPGA
    // when only one AI task is running" — compare images/s/W of
    // AlexNet on both single-task deployments.
    GpuModel gpu(tx1_spec());
    FpgaModel fpga(vx690t_spec());
    const NetworkDesc net = alexnet_desc();
    const double gpu_eff = gpu.perf_per_watt(net, 32);
    // FPGA single-task: all conv on a full-budget engine + FCN.
    EngineUnroll conv_engine{32, 64};
    double fpga_time = 0.0;
    for (const auto& l : net.conv_layers())
        fpga_time += fpga.conv_time_unrolled(l, conv_engine);
    fpga_time *= 32.0;
    fpga_time += fpga.all_fcn_time(net, {8, 10}, 32, true);
    const double fpga_eff =
        32.0 / fpga_time / fpga.spec().power_watts;
    EXPECT_GT(gpu_eff, fpga_eff);
}

// ---- self-calibration of the analytical time model (serving) ------

/** Synthetic host: the analytical model under a known affine error. */
std::vector<BatchObservation>
affine_observations(const GpuModel& gpu, const NetworkDesc& net,
                    double scale, double overhead,
                    const std::vector<int64_t>& batches)
{
    std::vector<BatchObservation> obs;
    for (int64_t b : batches) {
        BatchObservation o;
        o.batch = b;
        o.mean_seconds = scale * gpu.network_latency(net, b) + overhead;
        o.count = 4;
        obs.push_back(o);
    }
    return obs;
}

TEST(GpuCalibration, RecoversAffineConstantsExactly)
{
    // Noise-free measurements that ARE an affine transform of the
    // model must be fit exactly (the perf4sight-style regression has
    // a closed-form optimum here).
    const GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();
    const auto obs =
        affine_observations(gpu, net, 1.7, 0.003, {1, 2, 4, 8, 16});
    const GpuCalibration fit = fit_calibration(gpu, net, obs);
    EXPECT_NEAR(fit.time_scale, 1.7, 1e-9);
    EXPECT_NEAR(fit.overhead_s, 0.003, 1e-12);
    EXPECT_EQ(fit.samples, 20);
}

TEST(GpuCalibration, CalibratedPredictionsMatchMeasurements)
{
    GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();
    const auto obs =
        affine_observations(gpu, net, 1.4, 0.002, {1, 4, 16});
    gpu.set_calibration(fit_calibration(gpu, net, obs));
    for (const auto& o : obs) {
        EXPECT_NEAR(gpu.predicted_batch_latency(net, o.batch),
                    o.mean_seconds, 1e-9);
        EXPECT_NEAR(gpu.residual(net, o.batch, o.mean_seconds), 0.0,
                    1e-9);
    }
    // network_latency() itself stays uncalibrated (the Eq 5 model).
    EXPECT_LT(gpu.network_latency(net, 4),
              gpu.predicted_batch_latency(net, 4));
}

TEST(GpuCalibration, HeldOutBatchSizeWithinTolerance)
{
    // Fit on {1..8}, predict 32: the affine correction generalizes
    // across batch sizes because the model supplies the shape.
    GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();
    const double scale = 1.55, overhead = 0.0045;
    gpu.set_calibration(fit_calibration(
        gpu, net,
        affine_observations(gpu, net, scale, overhead, {1, 2, 4, 8})));
    const double truth =
        scale * gpu.network_latency(net, 32) + overhead;
    EXPECT_NEAR(gpu.predicted_batch_latency(net, 32), truth,
                0.01 * truth);
}

TEST(GpuCalibration, ResidualsMonotoneInMeasurementError)
{
    // Same batch, growing measured time => growing signed residual;
    // exact measurement => zero.
    GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();
    const double base = gpu.predicted_batch_latency(net, 8);
    double prev = gpu.residual(net, 8, base * 0.9);
    EXPECT_LT(prev, 0.0);
    EXPECT_NEAR(gpu.residual(net, 8, base), 0.0, 1e-12);
    for (double f : {1.05, 1.2, 1.5}) {
        const double r = gpu.residual(net, 8, base * f);
        EXPECT_GT(r, prev);
        prev = r;
    }
}

TEST(GpuCalibration, DegenerateInputsFallBack)
{
    const GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();

    // No observations: identity.
    const GpuCalibration none = fit_calibration(gpu, net, {});
    EXPECT_TRUE(none.is_identity());

    // A single batch size is rank-deficient for the 2-parameter fit:
    // fall back to a pure scale (still matching that point).
    const auto one =
        affine_observations(gpu, net, 2.0, 0.0, {8});
    const GpuCalibration fit = fit_calibration(gpu, net, one);
    EXPECT_NEAR(fit.time_scale, 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(fit.overhead_s, 0.0);
}

TEST(DeviceTruth, MeanIsTheHiddenCalibrationAndJitterIsBounded)
{
    const DeviceTruthConfig hidden{1.3, 2e-3, 7};
    DeviceTruth device(tx1_spec(), hidden);
    const GpuModel analytical(tx1_spec());
    const NetworkDesc net = alexnet_desc();
    for (int64_t b : {1, 8, 32}) {
        const double mean = device.mean_batch_seconds(net, b);
        EXPECT_DOUBLE_EQ(mean,
                         1.3 * analytical.network_latency(net, b) + 2e-3);
        for (int i = 0; i < 50; ++i) {
            const double corun = 1.0 + 0.5 * (i % 3);
            const double t = device.run_batch(net, b, corun) / corun;
            EXPECT_GE(t, mean * (1.0 - DeviceTruth::kJitterFrac));
            EXPECT_LE(t, mean * (1.0 + DeviceTruth::kJitterFrac));
        }
    }
    // The co-running model is the analytical one: the hidden
    // constants never leak into Fig. 16's interference factor.
    EXPECT_EQ(device.model().corun_slowdown(1e9, 3e9),
              analytical.corun_slowdown(1e9, 3e9));
}

} // namespace
} // namespace insitu
