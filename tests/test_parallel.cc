/**
 * @file
 * Tests for the deterministic parallel execution layer: parallel_for
 * semantics (coverage, chunking, edge cases, nesting) and the hard
 * bit-identity guarantee — threads=1 and threads=4 must produce
 * exactly the same floats through conv/linear forward+backward and a
 * full FleetSim bootstrap+stage run.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "iot/fleet.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace insitu {
namespace {

/// Run @p fn at a forced execution width, then restore the default.
template <typename Fn>
auto
with_threads(int threads, Fn&& fn)
{
    set_num_threads(threads);
    auto result = fn();
    set_num_threads(0);
    return result;
}

TEST(ParallelFor, EmptyRangeNeverInvokesBody)
{
    int calls = 0;
    parallel_for(0, 0, 4, [&](int64_t, int64_t) { ++calls; });
    parallel_for(5, 5, 4, [&](int64_t, int64_t) { ++calls; });
    parallel_for(7, 3, 4, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, RangeSmallerThanChunkIsOneInlineCall)
{
    int calls = 0;
    int64_t lo = -1, hi = -1;
    parallel_for(2, 5, 100, [&](int64_t b, int64_t e) {
        ++calls;
        lo = b;
        hi = e;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(lo, 2);
    EXPECT_EQ(hi, 5);
}

TEST(ParallelFor, ChunkCount)
{
    EXPECT_EQ(chunk_count(0, 4), 0);
    EXPECT_EQ(chunk_count(-3, 4), 0);
    EXPECT_EQ(chunk_count(1, 4), 1);
    EXPECT_EQ(chunk_count(4, 4), 1);
    EXPECT_EQ(chunk_count(5, 4), 2);
    EXPECT_EQ(chunk_count(100, 7), 15);
    EXPECT_EQ(chunk_count(10, 0), 10); // grain clamps to 1
}

TEST(ParallelFor, EveryIndexCoveredExactlyOnce)
{
    const int64_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    with_threads(4, [&] {
        parallel_for(0, n, 7, [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i) ++hits[i];
        });
        return 0;
    });
    for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, ChunkDecompositionIndependentOfThreadCount)
{
    // Rule 1: record (chunk, begin, end) triples at both widths; the
    // sets must be identical (order of execution may differ).
    auto decompose = [](int threads) {
        return with_threads(threads, [&] {
            std::vector<std::atomic<int64_t>> begins(5), ends(5);
            parallel_for_chunks(
                0, 33, 8, [&](int64_t c, int64_t b, int64_t e) {
                    begins[c].store(b);
                    ends[c].store(e);
                });
            std::vector<std::pair<int64_t, int64_t>> out;
            for (int i = 0; i < 5; ++i)
                out.emplace_back(begins[i].load(), ends[i].load());
            return out;
        });
    };
    const auto serial = decompose(1);
    const auto threaded = decompose(4);
    EXPECT_EQ(serial, threaded);
    EXPECT_EQ(serial.back(), (std::pair<int64_t, int64_t>{32, 33}));
}

TEST(ParallelFor, BackToBackRunsNeverDoubleExecute)
{
    // Regression for the stale-claim race: a worker preempted between
    // claiming an index and validating it could carry that claim into
    // the next run(); with a larger njobs the stale index validated,
    // executing a chunk twice and driving `pending` negative (which
    // hangs a later run). Hammer back-to-back runs with growing job
    // counts — the pattern that exposes it — and require exact
    // single execution throughout.
    with_threads(4, [&] {
        const int64_t max_n = 64;
        std::vector<std::atomic<int>> hits(max_n);
        for (int rep = 0; rep < 2000; ++rep) {
            const int64_t n = 1 + rep % max_n;
            for (auto& h : hits) h.store(0);
            parallel_for(0, n, 1, [&](int64_t b, int64_t e) {
                for (int64_t i = b; i < e; ++i) ++hits[i];
            });
            for (int64_t i = 0; i < n; ++i) {
                EXPECT_EQ(hits[i].load(), 1)
                    << "rep " << rep << " index " << i;
                if (hits[i].load() != 1) return 1; // stop the hammer
            }
        }
        return 0;
    });
}

TEST(ParallelFor, NestedCallsRunInline)
{
    std::atomic<int64_t> total{0};
    with_threads(4, [&] {
        parallel_for(0, 8, 1, [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i) {
                // Inner loop must not deadlock or misschedule.
                parallel_for(0, 10, 3, [&](int64_t ib, int64_t ie) {
                    total += ie - ib;
                });
            }
        });
        return 0;
    });
    EXPECT_EQ(total.load(), 80);
}

TEST(DeriveStream, DistinctAndStable)
{
    EXPECT_EQ(derive_stream(1, 2, 3), derive_stream(1, 2, 3));
    EXPECT_NE(derive_stream(1, 2, 3), derive_stream(1, 3, 2));
    EXPECT_NE(derive_stream(1, 2, 3), derive_stream(2, 2, 3));
    EXPECT_NE(derive_stream(1, 2, 0), derive_stream(1, 3, 0));
}

/** Forward+backward through one conv layer; returns every float that
 * the pass produced (output, grad_input, weight grad, bias grad). */
std::vector<float>
conv_pass()
{
    Rng rng(7);
    Conv2d conv("c", 3, 8, 3, 1, 1, rng);
    Tensor x({6, 3, 12, 12});
    x.fill_uniform(rng, -1.0f, 1.0f);
    Tensor y = conv.forward(x, true);
    Tensor gy(y.shape());
    gy.fill_uniform(rng, -1.0f, 1.0f);
    Tensor gx = conv.backward(gy);
    std::vector<float> all;
    auto append = [&all](const Tensor& t) {
        all.insert(all.end(), t.data(), t.data() + t.numel());
    };
    append(y);
    append(gx);
    append(conv.params()[0]->grad());
    append(conv.params()[1]->grad());
    return all;
}

/** The direct loop-nest reference on the same layer and input. */
std::vector<float>
direct_pass()
{
    Rng rng(7);
    Conv2d conv("c", 3, 8, 3, 1, 1, rng);
    Tensor x({6, 3, 12, 12});
    x.fill_uniform(rng, -1.0f, 1.0f);
    ConvGeometry g;
    g.in_channels = 3;
    g.in_h = g.in_w = 12;
    g.kernel = 3;
    g.pad = 1;
    const Tensor y = conv2d_direct(x, conv.weight()->value(),
                                   conv.bias()->value(), g);
    return std::vector<float>(y.data(), y.data() + y.numel());
}

TEST(Determinism, ConvForwardBackwardBitIdentical)
{
    for (auto pass : {conv_pass, direct_pass}) {
        const auto serial = with_threads(1, pass);
        const auto threaded = with_threads(4, pass);
        ASSERT_EQ(serial.size(), threaded.size());
        for (size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(serial[i], threaded[i])
                << (pass == conv_pass ? "layer" : "conv2d_direct")
                << " diverges at float " << i;
    }
}

std::vector<float>
linear_pass()
{
    Rng rng(9);
    Linear fc("fc", 48, 10, rng);
    Tensor x({16, 48});
    x.fill_uniform(rng, -1.0f, 1.0f);
    Tensor y = fc.forward(x, true);
    Tensor gy(y.shape());
    gy.fill_uniform(rng, -1.0f, 1.0f);
    Tensor gx = fc.backward(gy);
    std::vector<float> all;
    auto append = [&all](const Tensor& t) {
        all.insert(all.end(), t.data(), t.data() + t.numel());
    };
    append(y);
    append(gx);
    append(fc.params()[0]->grad());
    append(fc.params()[1]->grad());
    return all;
}

TEST(Determinism, LinearForwardBackwardBitIdentical)
{
    const auto serial = with_threads(1, [] { return linear_pass(); });
    const auto threaded = with_threads(4, [] { return linear_pass(); });
    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < serial.size(); ++i)
        ASSERT_EQ(serial[i], threaded[i]) << "diverges at float " << i;
}

std::vector<float>
pool_pass()
{
    Rng rng(13);
    Tensor x({4, 6, 10, 10});
    x.fill_uniform(rng, -1.0f, 1.0f);
    MaxPool2d mp("mp", 2, 2);
    Tensor y = mp.forward(x, true);
    Tensor gy(y.shape());
    gy.fill_uniform(rng, -1.0f, 1.0f);
    const Tensor gx = mp.backward(gy);
    std::vector<float> all(y.data(), y.data() + y.numel());
    all.insert(all.end(), gx.data(), gx.data() + gx.numel());
    return all;
}

TEST(Determinism, PoolingBitIdentical)
{
    const auto serial = with_threads(1, [] { return pool_pass(); });
    const auto threaded = with_threads(4, [] { return pool_pass(); });
    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < serial.size(); ++i)
        ASSERT_EQ(serial[i], threaded[i]) << "diverges at float " << i;
}

/** Bootstrap + one stage of a tiny two-node fleet; flattens the
 * observable outcome (stage report numbers + deployed weights). */
std::vector<double>
fleet_run()
{
    FleetConfig config;
    config.tiny.num_permutations = 8;
    config.update_epochs = 1;
    config.pretrain_epochs = 1;
    config.node_severity_offset = {0.0, 0.2};
    config.seed = 11;
    FleetSim fleet(config);
    std::vector<double> out;
    out.push_back(fleet.bootstrap(40, 0.2));
    const FleetStageReport report = fleet.run_stage(20, 0.3);
    out.push_back(report.mean_accuracy_after);
    out.push_back(report.holdout_before);
    out.push_back(report.holdout_after);
    out.push_back(static_cast<double>(report.pooled_uploads));
    for (const auto& nr : report.nodes) {
        out.push_back(nr.flag_rate);
        out.push_back(nr.accuracy_before);
        out.push_back(nr.accuracy_after);
        out.push_back(static_cast<double>(nr.uploaded));
    }
    const auto params = fleet.cloud().inference().params();
    for (const auto& p : params)
        for (int64_t i = 0; i < p->numel(); ++i)
            out.push_back(p->value().at(i));
    return out;
}

TEST(Determinism, FleetStageBitIdenticalAcrossThreadCounts)
{
    const auto serial = with_threads(1, [] { return fleet_run(); });
    const auto threaded = with_threads(4, [] { return fleet_run(); });
    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < serial.size(); ++i)
        ASSERT_EQ(serial[i], threaded[i]) << "diverges at value " << i;
}

} // namespace
} // namespace insitu
