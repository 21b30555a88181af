/**
 * @file
 * Wall-clock performance floors. Each floor guards against an
 * order-of-magnitude regression, not a few percent: perfbench is the
 * instrument for measuring gains.
 *
 * ctest runs this binary under two names, each with a
 * --gtest_filter (tests/CMakeLists.txt): `check_perf` runs
 * GemmFloor.* and KernelFloor.* in every build, and `check_perf_fleet`
 * runs FleetFloor.* only without sanitizers. The binary is not
 * gtest-discovered, so the width-4, TSan and ASan reruns never time
 * it.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <vector>

#include "iot/fleet_engine.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace insitu {
namespace {

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * naive / blocked time for one n×n×n matmul at width 1, each side the
 * best of 9 samples. The backends parallelize differently, so the
 * single-thread ratio is the honest kernel comparison. Samples
 * alternate between backends, so CPU steal hits both alike.
 */
double
blocked_speedup(int64_t n)
{
    set_num_threads(1);
    const GemmBackend prev = gemm_backend();
    Rng rng(1);
    Tensor a({n, n}), b({n, n});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    // Enough calls per sample that the naive side takes milliseconds.
    const int64_t calls = std::max<int64_t>(1, (int64_t{1} << 24) /
                                                   (n * n * n));
    auto sample = [&](GemmBackend backend) {
        set_gemm_backend(backend);
        const auto t0 = std::chrono::steady_clock::now();
        for (int64_t c = 0; c < calls; ++c) (void)matmul(a, b);
        return seconds_since(t0);
    };
    sample(GemmBackend::kBlocked); // warm the packing arena
    double blocked = std::numeric_limits<double>::infinity();
    double naive = blocked;
    for (int s = 0; s < 9; ++s) {
        blocked = std::min(blocked, sample(GemmBackend::kBlocked));
        naive = std::min(naive, sample(GemmBackend::kNaive));
    }
    set_gemm_backend(prev);
    set_num_threads(0);
    return naive / blocked;
}

void
expect_speedup_at_least(int64_t n, double floor)
{
    const double speedup = blocked_speedup(n);
    std::printf("n=%lld: blocked is %.2fx naive (floor %.1fx)\n",
                static_cast<long long>(n), speedup, floor);
    EXPECT_GE(speedup, floor);
}

TEST(GemmFloor, BlockedNotSlowerThanNaiveAt64)
{
    expect_speedup_at_least(64, 1.0);
}

TEST(GemmFloor, BlockedThreeTimesNaiveAt256)
{
    expect_speedup_at_least(256, 3.0);
}

/**
 * random-sign / all-positive time for one ReLU forward over 2^18
 * floats at width 1, each side the best of 9 alternating samples. A
 * kernel that branches on the sign mispredicts half the time on random
 * signs (a per-element `comiss; ja` read 5.5-7.6x in eval and
 * 2.2-2.6x in train on a 4-core Xeon VM); a select costs the same on
 * both.
 */
double
relu_sign_ratio(bool training)
{
    set_num_threads(1);
    constexpr int64_t n = int64_t{1} << 18;
    Rng rng(1);
    Tensor mixed({n}), positive({n});
    mixed.fill_uniform(rng, -1.0f, 1.0f);
    positive.fill_uniform(rng, 1e-3f, 1.0f);
    ReLU relu;
    auto sample = [&](const Tensor& x) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int c = 0; c < 8; ++c) (void)relu.forward(x, training);
        return seconds_since(t0);
    };
    sample(mixed); // warm the allocator and the caches
    double random = std::numeric_limits<double>::infinity();
    double steady = random;
    for (int s = 0; s < 9; ++s) {
        random = std::min(random, sample(mixed));
        steady = std::min(steady, sample(positive));
    }
    set_num_threads(0);
    return random / steady;
}

TEST(KernelFloor, ReluForwardCostIndependentOfSign)
{
    for (bool training : {false, true}) {
        const double ratio = relu_sign_ratio(training);
        std::printf("relu %s forward: random-sign / all-positive = "
                    "%.2fx (ceiling 1.5x)\n",
                    training ? "train" : "eval", ratio);
        EXPECT_LE(ratio, 1.5);
    }
}

/**
 * backward / forward time of one 32->32 3x3 conv over 144 images on a
 * 2x2 map (a jigsaw batch at conv3-5) at width 1, each side the best
 * of 9 alternating samples. The backward computes dX, dW and db. The
 * ratio is the two GEMMs' worth of work over one (~2x) plus what the
 * lowering wastes. On a 4-core Xeon VM (gcc 12.2, RelWithDebInfo),
 * per-image GEMMs that repack the filter matrix for 4 columns each,
 * with a heap partial per image, read 11.4-13.9x; the grouped
 * backward with its batch-ordered dW fold reads 2.25-2.26x (2.41x in
 * an ASan+UBSan build, 3.10x under TSan). Lowering each group in one
 * staged pass cut the forward and the backward's lowering alike; with
 * the group col2im adding only inside the map and the dW fold packing
 * four images' columns per transpose, it reads 2.36-2.66x over five
 * runs (2.20x under ASan+UBSan, 3.15-3.31x under TSan).
 */
double
conv_backward_ratio()
{
    set_num_threads(1);
    Rng rng(1);
    Conv2d conv("c", 32, 32, 3, 1, 1, rng);
    Tensor x({144, 32, 2, 2}), gy({144, 32, 2, 2});
    x.fill_uniform(rng, -1.0f, 1.0f);
    gy.fill_uniform(rng, -1.0f, 1.0f);
    auto forward = [&] {
        const auto t0 = std::chrono::steady_clock::now();
        for (int c = 0; c < 8; ++c) (void)conv.forward(x, true);
        return seconds_since(t0);
    };
    auto backward = [&] {
        const auto t0 = std::chrono::steady_clock::now();
        for (int c = 0; c < 8; ++c) (void)conv.backward(gy);
        return seconds_since(t0);
    };
    forward(); // warm the arena and the caches
    backward();
    double fwd = std::numeric_limits<double>::infinity();
    double bwd = fwd;
    for (int s = 0; s < 9; ++s) {
        fwd = std::min(fwd, forward());
        bwd = std::min(bwd, backward());
    }
    set_num_threads(0);
    return bwd / fwd;
}

TEST(KernelFloor, ConvBackwardSmallMap)
{
    const double ratio = conv_backward_ratio();
    std::printf("conv 32->32 on 2x2, 144 images: backward / forward = "
                "%.2fx (ceiling 4x)\n",
                ratio);
    EXPECT_LE(ratio, 4.0);
}

/**
 * The per-image lowering `im2col_group` replaced, kept here as the
 * baseline: for each image, per kernel tap, the range of output rows
 * and columns that read inside the map, a zero-fill of the tap's
 * block when the range misses any, and a copy of the range row by row
 * into the image's columns of the group matrix.
 */
void
per_image_lowering(const Tensor& input, int64_t b, const ConvGeometry& g,
                   float* out, int64_t ld, int64_t col0)
{
    struct Span {
        int64_t lo, hi;
    };
    auto spans = [&](int64_t in, int64_t outs) {
        std::vector<Span> v(static_cast<size_t>(g.kernel));
        for (int64_t k = 0; k < g.kernel; ++k) {
            const int64_t off = k - g.pad;
            const int64_t lo =
                off >= 0 ? 0 : (g.stride - 1 - off) / g.stride;
            const int64_t hi =
                in - off <= 0 ? 0 : (in - off + g.stride - 1) / g.stride;
            const int64_t end = std::min(hi, outs);
            v[static_cast<size_t>(k)] = {std::min(lo, end), end};
        }
        return v;
    };
    const int64_t oh = g.out_h(), ow = g.out_w();
    const float* in = input.data() + b * g.in_channels * g.in_h * g.in_w;
    const std::vector<Span> ys_of = spans(g.in_h, oh);
    const std::vector<Span> xs_of = spans(g.in_w, ow);
    for (int64_t c = 0; c < g.in_channels; ++c) {
        const float* plane = in + c * g.in_h * g.in_w;
        for (int64_t ky = 0; ky < g.kernel; ++ky) {
            const Span ys = ys_of[static_cast<size_t>(ky)];
            for (int64_t kx = 0; kx < g.kernel; ++kx) {
                const Span xs = xs_of[static_cast<size_t>(kx)];
                const int64_t xoff = kx - g.pad;
                const int64_t row = (c * g.kernel + ky) * g.kernel + kx;
                float* dst = out + row * ld + col0;
                if (ys.hi - ys.lo < oh || xs.hi - xs.lo < ow)
                    for (int64_t i = 0; i < oh * ow; ++i) dst[i] = 0.0f;
                for (int64_t y = ys.lo; y < ys.hi; ++y) {
                    const float* src =
                        plane + (y * g.stride + ky - g.pad) * g.in_w;
                    float* d = dst + y * ow;
                    for (int64_t x = xs.lo; x < xs.hi; ++x)
                        d[x] = src[x * g.stride + xoff];
                }
            }
        }
    }
}

/**
 * per-image / group time to lower 64 images x 32 channels on a 2x2
 * map (3x3, pad 1: one jigsaw group at conv3-5) at width 1, each side
 * the best of 9 alternating samples. The per-image loop spends its
 * time on span bookkeeping and one- or two-float copies per tap; the
 * group lowering copies 128 contiguous floats per output row of a tap.
 * On a 4-core Xeon VM (gcc 12.2, RelWithDebInfo) it reads 7.6-10.0x
 * over five runs (4.6x under ASan+UBSan, 6.7-7.1x under TSan).
 */
double
group_lowering_speedup()
{
    set_num_threads(1);
    Rng rng(1);
    constexpr int64_t kImages = 64;
    ConvGeometry g;
    g.in_channels = 32;
    g.in_h = g.in_w = 2;
    g.kernel = 3;
    g.pad = 1;
    Tensor x({kImages, 32, 2, 2});
    x.fill_uniform(rng, -1.0f, 1.0f);
    const int64_t ohw = g.out_h() * g.out_w();
    const int64_t ld = kImages * ohw;
    std::vector<float> cols(static_cast<size_t>(32 * 9 * ld));
    auto per_image = [&] {
        const auto t0 = std::chrono::steady_clock::now();
        for (int c = 0; c < 32; ++c)
            for (int64_t i = 0; i < kImages; ++i)
                per_image_lowering(x, i, g, cols.data(), ld, i * ohw);
        return seconds_since(t0);
    };
    auto group = [&] {
        const auto t0 = std::chrono::steady_clock::now();
        for (int c = 0; c < 32; ++c)
            im2col_group(x, 0, kImages, g, cols.data(), ld);
        return seconds_since(t0);
    };
    per_image(); // warm the arena and the caches
    group();
    double old_s = std::numeric_limits<double>::infinity();
    double new_s = old_s;
    for (int s = 0; s < 9; ++s) {
        old_s = std::min(old_s, per_image());
        new_s = std::min(new_s, group());
    }
    set_num_threads(0);
    return old_s / new_s;
}

TEST(KernelFloor, GroupLoweringSmallMap)
{
    const double speedup = group_lowering_speedup();
    std::printf("lowering 64 images x 32 channels on 2x2: per-image / "
                "group = %.2fx (floor 2x)\n",
                speedup);
    EXPECT_GE(speedup, 2.0);
}

/// A 4-core Xeon VM sustains ~16M events/s, ~80× this, so only a
/// collapse fails it.
constexpr double kFleetEventsPerSecFloor = 200000.0;

TEST(FleetFloor, EventsPerSecondAt100kNodes)
{
    ScaleFleetConfig config;
    config.nodes = 100000;
    config.seed = 2018;
    ScaleFleetEngine engine(config);
    const auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < 6; ++s) engine.run_stage();
    const double run_s = seconds_since(t0);
    const double events_per_sec =
        static_cast<double>(engine.events_processed()) / run_s;
    std::printf("%lld events in %.3f s: %.0f events/s (floor %.0f)\n",
                static_cast<long long>(engine.events_processed()),
                run_s, events_per_sec, kFleetEventsPerSecFloor);
    EXPECT_GE(events_per_sec, kFleetEventsPerSecFloor);
}

} // namespace
} // namespace insitu
