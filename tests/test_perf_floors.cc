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
 * an ASan+UBSan build, 3.10x under TSan).
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
