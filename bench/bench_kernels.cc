/**
 * @file
 * google-benchmark microbenchmarks of the executable substrate:
 * GEMM, im2col, conv forward/backward, jigsaw batching and synthetic
 * rendering. These track the performance of the library itself (not
 * a paper figure).
 *
 * The `*Threads` benchmarks sweep the execution width of the
 * deterministic thread pool (second Arg = threads; 1 is the serial
 * baseline). Outputs are bit-identical across the sweep by
 * construction — `tests/test_parallel.cc` asserts it — so the sweep
 * measures pure scheduling/throughput, not numerical drift. See
 * docs/performance.md for the methodology.
 */
#include <benchmark/benchmark.h>

#include "data/synth.h"
#include "models/tiny.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/trainer.h"
#include "selfsup/jigsaw.h"
#include "selfsup/relative.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace insitu {
namespace {

// --- blocked vs naive GEMM ----------------------------------------
// Same square matmul, one run per backend; BM_GemmBlocked is the
// default-backend matmul. The pass/fail floor on their ratio lives in
// tests/test_perf_floors.cc (ctest check_perf); these rows are the
// by-hand view across sizes.

void
gemm_backend_bench(benchmark::State& state, GemmBackend backend)
{
    const int64_t n = state.range(0);
    const GemmBackend prev = gemm_backend();
    set_gemm_backend(backend);
    Rng rng(1);
    Tensor a({n, n}), b({n, n});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    for (auto _ : state) {
        Tensor c = matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
    set_gemm_backend(prev);
}

void
BM_GemmBlocked(benchmark::State& state)
{
    gemm_backend_bench(state, GemmBackend::kBlocked);
}
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(128)->Arg(256);

void
BM_GemmNaive(benchmark::State& state)
{
    gemm_backend_bench(state, GemmBackend::kNaive);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void
BM_Im2col(benchmark::State& state)
{
    Rng rng(2);
    Tensor x({1, 16, 24, 24});
    x.fill_uniform(rng, -1.0f, 1.0f);
    ConvGeometry g;
    g.in_channels = 16;
    g.in_h = g.in_w = 24;
    g.kernel = 3;
    g.pad = 1;
    for (auto _ : state) {
        Tensor cols = im2col(x, 0, g);
        benchmark::DoNotOptimize(cols.data());
    }
}
BENCHMARK(BM_Im2col);

void
BM_ConvForward(benchmark::State& state)
{
    const int64_t batch = state.range(0);
    Rng rng(3);
    Conv2d conv("c", 16, 32, 3, 1, 1, rng);
    Tensor x({batch, 16, 12, 12});
    x.fill_uniform(rng, -1.0f, 1.0f);
    for (auto _ : state) {
        Tensor y = conv.forward(x, false);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvForward)->Arg(1)->Arg(8)->Arg(32);

void
BM_TrainStep(benchmark::State& state)
{
    Rng rng(4);
    TinyConfig config;
    Network net = make_tiny_inference(config, rng);
    Sgd opt({.lr = 0.01, .momentum = 0.9});
    Tensor x({8, 3, 24, 24});
    x.fill_uniform(rng, 0.0f, 1.0f);
    std::vector<int64_t> y(8);
    for (size_t i = 0; i < y.size(); ++i)
        y[i] = static_cast<int64_t>(i % 10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(train_batch(net, opt, x, y));
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_TrainStep);

void
BM_JigsawBatch(benchmark::State& state)
{
    Rng rng(5);
    PermutationSet perms(16, rng);
    Tensor images({8, 3, 24, 24});
    images.fill_uniform(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        JigsawBatch batch = make_jigsaw_batch(images, perms, rng);
        benchmark::DoNotOptimize(batch.patches.data());
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_JigsawBatch);

void
BM_RelativeBatch(benchmark::State& state)
{
    Rng rng(9);
    Tensor images({8, 3, 24, 24});
    images.fill_uniform(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        RelativeBatch batch = make_relative_batch(images, rng);
        benchmark::DoNotOptimize(batch.pairs.data());
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_RelativeBatch);

void
BM_RenderImage(benchmark::State& state)
{
    Rng rng(6);
    SynthConfig config;
    const Condition cond = Condition::in_situ(0.5);
    int cls = 0;
    for (auto _ : state) {
        Tensor img = render_image(config, cls, cond, rng);
        benchmark::DoNotOptimize(img.data());
        cls = (cls + 1) % config.num_classes;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RenderImage);

// --- serial vs threaded -------------------------------------------
// Args: {problem size, threads}. threads=1 is the serial baseline;
// speedup at k threads = time(threads=1) / time(threads=k).

void
BM_MatmulThreads(benchmark::State& state)
{
    const int64_t n = state.range(0);
    set_num_threads(static_cast<int>(state.range(1)));
    Rng rng(1);
    Tensor a({n, n}), b({n, n});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    for (auto _ : state) {
        Tensor c = matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
    set_num_threads(0);
}
BENCHMARK(BM_MatmulThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4});

void
BM_ConvForwardThreads(benchmark::State& state)
{
    const int64_t batch = 32;
    set_num_threads(static_cast<int>(state.range(0)));
    Rng rng(3);
    Conv2d conv("c", 16, 32, 3, 1, 1, rng);
    Tensor x({batch, 16, 12, 12});
    x.fill_uniform(rng, -1.0f, 1.0f);
    for (auto _ : state) {
        Tensor y = conv.forward(x, false);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * batch);
    set_num_threads(0);
}
BENCHMARK(BM_ConvForwardThreads)->Arg(1)->Arg(2)->Arg(4);

void
BM_ConvBackwardThreads(benchmark::State& state)
{
    const int64_t batch = 32;
    set_num_threads(static_cast<int>(state.range(0)));
    Rng rng(3);
    Conv2d conv("c", 16, 32, 3, 1, 1, rng);
    Tensor x({batch, 16, 12, 12});
    x.fill_uniform(rng, -1.0f, 1.0f);
    Tensor y = conv.forward(x, true);
    Tensor gy(y.shape());
    gy.fill_uniform(rng, -1.0f, 1.0f);
    for (auto _ : state) {
        conv.params()[0]->grad().fill(0.0f);
        conv.params()[1]->grad().fill(0.0f);
        Tensor gx = conv.backward(gy);
        benchmark::DoNotOptimize(gx.data());
    }
    state.SetItemsProcessed(state.iterations() * batch);
    set_num_threads(0);
}
BENCHMARK(BM_ConvBackwardThreads)->Arg(1)->Arg(2)->Arg(4);

void
BM_TrainStepThreads(benchmark::State& state)
{
    set_num_threads(static_cast<int>(state.range(0)));
    Rng rng(4);
    TinyConfig config;
    Network net = make_tiny_inference(config, rng);
    Sgd opt({.lr = 0.01, .momentum = 0.9});
    Tensor x({32, 3, 24, 24});
    x.fill_uniform(rng, 0.0f, 1.0f);
    std::vector<int64_t> y(32);
    for (size_t i = 0; i < y.size(); ++i)
        y[i] = static_cast<int64_t>(i % 10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(train_batch(net, opt, x, y));
    }
    state.SetItemsProcessed(state.iterations() * 32);
    set_num_threads(0);
}
BENCHMARK(BM_TrainStepThreads)->Arg(1)->Arg(2)->Arg(4);

} // namespace
} // namespace insitu

BENCHMARK_MAIN();
