/**
 * @file
 * Property-based and parameterized sweeps across the library's
 * invariants: gradient correctness over layer-configuration grids,
 * the im2col/col2im adjoint property over geometry grids, analytical
 * model bounds and monotonicity, permutation-set structure, renderer
 * range safety, and planner feasibility guarantees.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "analytics/planner.h"
#include "data/synth.h"
#include "fpga/pipeline.h"
#include "models/tiny.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/grad_check.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "selfsup/permutation.h"
#include "util/rng.h"

namespace insitu {
namespace {

// ---------------------------------------------------------------
// Gradient correctness over a conv-configuration grid.
// ---------------------------------------------------------------

struct ConvCase {
    int64_t in_ch, out_ch, kernel, stride, pad, size;
};

class ConvGradientSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradientSweep, AnalyticMatchesNumeric)
{
    const ConvCase c = GetParam();
    Rng rng(static_cast<uint64_t>(c.in_ch * 131 + c.out_ch * 17 +
                                  c.kernel));
    Network net("sweep");
    net.emplace<Conv2d>("c", c.in_ch, c.out_ch, c.kernel, c.stride,
                        c.pad, rng);
    net.emplace<Flatten>();
    ConvGeometry g;
    g.in_channels = c.in_ch;
    g.in_h = g.in_w = c.size;
    g.kernel = c.kernel;
    g.stride = c.stride;
    g.pad = c.pad;
    const int64_t feats = c.out_ch * g.out_h() * g.out_w();
    net.emplace<Linear>("fc", feats, 2, rng);

    Tensor x({2, c.in_ch, c.size, c.size});
    x.fill_uniform(rng, -1.0f, 1.0f);
    SoftmaxCrossEntropy loss;
    const std::vector<int64_t> labels{0, 1};
    auto loss_fn = [&] {
        return loss.forward(net.forward(x, false), labels);
    };
    auto backward_fn = [&] {
        loss.forward(net.forward(x, true), labels);
        net.backward(loss.backward());
    };
    const auto r = check_gradients(net, loss_fn, backward_fn);
    EXPECT_TRUE(r.ok()) << "rel err " << r.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, ConvGradientSweep,
    ::testing::Values(ConvCase{1, 2, 1, 1, 0, 5}, // 1x1 kernel
                      ConvCase{2, 3, 3, 1, 0, 6}, // valid conv
                      ConvCase{2, 3, 3, 1, 1, 6}, // same padding
                      ConvCase{1, 4, 3, 2, 1, 7}, // stride 2
                      ConvCase{3, 2, 5, 1, 2, 8}, // 5x5 kernel
                      ConvCase{2, 2, 3, 3, 0, 9}, // stride == kernel
                      ConvCase{4, 4, 2, 2, 0, 8}, // even kernel
                      ConvCase{1, 1, 7, 1, 3, 7})); // kernel == size

// ---------------------------------------------------------------
// Max-pooling gradients over window/stride/channel combinations.
// ---------------------------------------------------------------

struct PoolCase {
    int64_t kernel, stride, size, channels;
};

class PoolGradientSweep : public ::testing::TestWithParam<PoolCase> {};

TEST_P(PoolGradientSweep, AnalyticMatchesNumeric)
{
    const PoolCase c = GetParam();
    Rng rng(static_cast<uint64_t>(c.kernel * 31 + c.stride));
    Network net("pool");
    net.emplace<Conv2d>("c", 1, c.channels, 3, 1, 1, rng);
    net.emplace<MaxPool2d>("p", c.kernel, c.stride);
    net.emplace<Flatten>();
    const int64_t out = (c.size - c.kernel) / c.stride + 1;
    net.emplace<Linear>("fc", c.channels * out * out, 2, rng);

    Tensor x({1, 1, c.size, c.size});
    x.fill_uniform(rng, -1.0f, 1.0f);
    SoftmaxCrossEntropy loss;
    const std::vector<int64_t> labels{1};
    auto loss_fn = [&] {
        return loss.forward(net.forward(x, false), labels);
    };
    auto backward_fn = [&] {
        loss.forward(net.forward(x, true), labels);
        net.backward(loss.backward());
    };
    EXPECT_TRUE(check_gradients(net, loss_fn, backward_fn).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, PoolGradientSweep,
    ::testing::Values(PoolCase{2, 2, 6, 2},
                      PoolCase{3, 3, 9, 3},
                      PoolCase{3, 2, 7, 1})); // overlapping windows

// ---------------------------------------------------------------
// im2col/col2im adjointness over a geometry grid.
// ---------------------------------------------------------------

struct GeomCase {
    int64_t channels, h, w, kernel, stride, pad;
};

class Im2colAdjointSweep : public ::testing::TestWithParam<GeomCase> {
};

TEST_P(Im2colAdjointSweep, ScatterIsAdjointOfGather)
{
    const GeomCase c = GetParam();
    Rng rng(static_cast<uint64_t>(c.h * 7 + c.w * 3 + c.kernel));
    ConvGeometry g;
    g.in_channels = c.channels;
    g.in_h = c.h;
    g.in_w = c.w;
    g.kernel = c.kernel;
    g.stride = c.stride;
    g.pad = c.pad;
    Tensor x({1, c.channels, c.h, c.w});
    x.fill_uniform(rng, -1.0f, 1.0f);
    const Tensor cols = im2col(x, 0, g);
    Tensor y(cols.shape());
    y.fill_uniform(rng, -1.0f, 1.0f);
    double lhs = 0.0;
    for (int64_t i = 0; i < cols.numel(); ++i)
        lhs += static_cast<double>(cols.at(i)) * y.at(i);
    Tensor back({1, c.channels, c.h, c.w});
    col2im_accumulate(y, back, 0, g);
    double rhs = 0.0;
    for (int64_t i = 0; i < x.numel(); ++i)
        rhs += static_cast<double>(x.at(i)) * back.at(i);
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colAdjointSweep,
    ::testing::Values(GeomCase{1, 4, 4, 2, 1, 0},
                      GeomCase{3, 8, 8, 3, 1, 1},
                      GeomCase{2, 9, 7, 3, 2, 1},
                      GeomCase{4, 6, 6, 5, 1, 2},
                      GeomCase{1, 11, 5, 3, 4, 0},
                      GeomCase{2, 5, 5, 5, 1, 0}));

// ---------------------------------------------------------------
// Analytical model invariants over layer-dimension grids.
// ---------------------------------------------------------------

class UtilizationSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(UtilizationSweep, BothModelsStayInUnitInterval)
{
    const auto [n, m] = GetParam();
    LayerDesc l;
    l.type = LayerType::kConv;
    l.n = n;
    l.m = m;
    l.k = 3;
    l.r = l.c = 13;
    GpuModel gpu(tx1_spec());
    for (int64_t b : {1, 3, 17, 64}) {
        const double u = gpu.utilization(l, b);
        EXPECT_GT(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
    for (EngineUnroll e : {EngineUnroll{8, 8}, EngineUnroll{16, 32},
                           EngineUnroll{7, 13}}) {
        const double u = FpgaModel::utilization(l, e);
        EXPECT_GT(u, 0.0);
        EXPECT_LE(u, 1.0);
        // Eq (4) is exactly 1 when the dims divide the unroll.
        if (n % e.tn == 0 && m % e.tm == 0)
            EXPECT_DOUBLE_EQ(u, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Dimensions, UtilizationSweep,
    ::testing::Combine(::testing::Values<int64_t>(3, 16, 96, 256),
                       ::testing::Values<int64_t>(16, 64, 384)));

/** The default TinyNet inference net, described from its layers. */
NetworkDesc
tiny_desc()
{
    Rng rng(0);
    return describe(make_tiny_inference(TinyConfig{}, rng), {3, 24, 24});
}

TEST(GpuModelProperty, LatencyMonotoneInBatchForAllZooNetworks)
{
    GpuModel gpu(tx1_spec());
    for (const NetworkDesc& net :
         {alexnet_desc(), vgg16_desc(), googlenet_desc(),
          tiny_desc()}) {
        double prev = 0.0;
        for (int64_t b = 1; b <= 64; b *= 2) {
            const double t = gpu.network_latency(net, b);
            EXPECT_GE(t, prev) << net.name << " batch " << b;
            prev = t;
        }
    }
}

TEST(GpuModelProperty, ThroughputNeverExceedsComputeRoof)
{
    GpuModel gpu(tx1_spec());
    for (const NetworkDesc& net : {alexnet_desc(), vgg16_desc()}) {
        for (int64_t b : {1, 8, 64}) {
            const double ips = gpu.images_per_second(net, b);
            const double roof =
                gpu.spec().peak_ops() / net.total_ops();
            EXPECT_LE(ips, roof * 1.0001) << net.name;
        }
    }
}

TEST(FpgaModelProperty, MorePesNeverSlower)
{
    FpgaModel fpga(vx690t_spec());
    for (const auto& l : alexnet_desc().conv_layers()) {
        double prev = 1e30;
        for (int64_t pes : {64, 256, 1024, 2048}) {
            const EngineUnroll e = best_unroll_for_layer(l, pes);
            const double t = fpga.conv_time_unrolled(l, e);
            EXPECT_LE(t, prev * 1.0001) << l.name << " pes " << pes;
            prev = t;
        }
    }
}

TEST(FpgaModelProperty, BestUnrollBeatsNaiveSquare)
{
    for (const auto& l : alexnet_desc().conv_layers()) {
        const EngineUnroll best = best_unroll_for_layer(l, 1024);
        const EngineUnroll naive = pick_engine_unroll(1024);
        FpgaModel fpga(vx690t_spec());
        EXPECT_LE(fpga.conv_time_unrolled(l, best),
                  fpga.conv_time_unrolled(l, naive) * 1.0001)
            << l.name;
    }
}

// ---------------------------------------------------------------
// Planner feasibility guarantees over requirement grids.
// ---------------------------------------------------------------

class PlannerSweep : public ::testing::TestWithParam<double> {};

TEST_P(PlannerSweep, SingleRunningPickRespectsBudgetWhenPossible)
{
    const double req = GetParam();
    GpuModel gpu(tx1_spec());
    SingleRunningPlanner planner{gpu};
    for (const NetworkDesc& net : {alexnet_desc(), tiny_desc()}) {
        const int64_t b = planner.max_batch_under_latency(net, req);
        EXPECT_GE(b, 1);
        if (gpu.network_latency(net, 1) <= req)
            EXPECT_LE(gpu.network_latency(net, b), req);
    }
}

TEST_P(PlannerSweep, CoRunningPlanNeverViolatesConstraints)
{
    const double req = GetParam();
    FpgaModel fpga(vx690t_spec());
    CoRunningPlanner planner{fpga};
    const auto plan = planner.plan(alexnet_desc(), req);
    if (plan.feasible) {
        EXPECT_LE(plan.latency, req);
        EXPECT_TRUE(fpga.fits_dsp(plan.config));
    }
}

INSTANTIATE_TEST_SUITE_P(Requirements, PlannerSweep,
                         ::testing::Values(0.02, 0.05, 0.1, 0.25, 0.5,
                                           1.0));

// ---------------------------------------------------------------
// Permutation-set structure across sizes.
// ---------------------------------------------------------------

class PermutationSweep : public ::testing::TestWithParam<int> {};

TEST_P(PermutationSweep, ValidDistinctAndSpread)
{
    Rng rng(static_cast<uint64_t>(GetParam()));
    PermutationSet set(GetParam(), rng);
    EXPECT_EQ(set.size(), GetParam());
    for (int i = 0; i < set.size(); ++i)
        EXPECT_TRUE(PermutationSet::is_valid(set.perm(i)));
    if (set.size() > 1) EXPECT_GE(set.min_hamming_distance(), 3);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermutationSweep,
                         ::testing::Values(1, 2, 8, 24, 64, 100));

// ---------------------------------------------------------------
// Renderer safety across the class x condition grid.
// ---------------------------------------------------------------

TEST(RendererProperty, AllClassesAllConditionsStayInRange)
{
    Rng rng(9);
    SynthConfig config;
    for (int cls = 0; cls < config.num_classes; ++cls) {
        for (double sev : {0.0, 0.3, 0.6, 1.0}) {
            const Tensor img =
                render_image(config, cls, Condition::in_situ(sev), rng);
            EXPECT_GE(img.min(), 0.0f);
            EXPECT_LE(img.max(), 1.0f);
            EXPECT_EQ(img.numel(), 3 * 24 * 24);
        }
    }
}

TEST(SoftmaxProperty, RowsSumToOneAcrossShapes)
{
    Rng rng(11);
    for (int64_t rows : {1, 3, 17}) {
        for (int64_t cols : {2, 10, 100}) {
            Tensor logits({rows, cols});
            logits.fill_uniform(rng, -30.0f, 30.0f);
            const Tensor p = softmax_rows(logits);
            for (int64_t r = 0; r < rows; ++r) {
                double sum = 0.0;
                for (int64_t c = 0; c < cols; ++c) {
                    const float v = p.at(r, c);
                    EXPECT_GE(v, 0.0f);
                    EXPECT_LE(v, 1.0f);
                    sum += v;
                }
                EXPECT_NEAR(sum, 1.0, 1e-5);
            }
        }
    }
}

} // namespace
} // namespace insitu
