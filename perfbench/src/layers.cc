/**
 * @file
 * Per-layer replays: each named layer of the TinyNet family is run
 * through Network::layer(i).forward / backward at the shapes the
 * workloads use, timed alone, and compared with its analytic FLOPs
 * (the perf4sight method: predict per-layer cost from shape, then
 * measure). The exact `tensor.matmul*.flops` counters must move by
 * exactly the analytic count, which checks the FLOP model itself.
 *
 * Passes:
 *   infer   - inference net, batch 1, eval       (node_stream requests)
 *   diag    - jigsaw trunk at 32x9 tiles + head at 32, eval (diagnosis)
 *   pretext - jigsaw trunk at 16x9 tiles, train, fwd+bwd (pretraining)
 *   update  - inference net, batch 32, train; fwd+bwd of the unfrozen
 *             suffix only, matching Network::backward's early stop
 */
#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"
#include "models/tiny.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "selfsup/jigsaw.h"
#include "selfsup/permutation.h"
#include "tensor/gemm.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

using namespace insitu;

namespace {

/** Timed samples and analytic cost of one layer in one pass. */
struct LayerCost {
    std::string name;
    std::string kind;
    std::vector<double> fwd_s, bwd_s;
    int64_t fwd_flops = 0; ///< analytic, per call
    int64_t bwd_flops = 0;
};

/** Analytic forward FLOPs of @p layer on @p in (GEMM layers only). */
int64_t
analytic_flops(Layer& layer, const Tensor& in, const Tensor& out)
{
    if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
        const int64_t ckk =
            conv->in_channels() * conv->kernel() * conv->kernel();
        return 2 * in.dim(0) * conv->out_channels() * ckk * out.dim(2) *
               out.dim(3);
    }
    if (auto* lin = dynamic_cast<Linear*>(&layer))
        return 2 * in.dim(0) * lin->in_features() * lin->out_features();
    return 0;
}

/**
 * Replay layers [0, size) of @p net on @p input @p reps times. With
 * @p bwd_from < size, each rep also back-propagates from the top down
 * to layer @p bwd_from (inclusive). The first rep checks every GEMM
 * layer's counter delta against its analytic FLOPs.
 */
std::vector<LayerCost>
replay(Network& net, const Tensor& input, bool training, size_t bwd_from,
       int reps, const std::string& pass, Tally& tally)
{
    const size_t n = net.size();
    std::vector<Tensor> in(n + 1);
    in[0] = input;
    std::vector<LayerCost> cost(n);
    for (size_t i = 0; i < n; ++i) {
        Layer& layer = net.layer(i);
        in[i + 1] = layer.forward(in[i], training); // warm-up
        cost[i].name = layer.name();
        cost[i].kind = layer.kind();
        cost[i].fwd_flops = analytic_flops(layer, in[i], in[i + 1]);
        // dW and dX are each one GEMM of the forward's size.
        cost[i].bwd_flops = 2 * cost[i].fwd_flops;
    }
    Rng rng(derive_stream(0xB0B, n));
    Tensor top_grad(in[n].shape());
    top_grad.fill_uniform(rng, -1.0f, 1.0f);

    for (int r = 0; r < reps; ++r) {
        for (size_t i = 0; i < n; ++i) {
            const int64_t f0 = matmul_flops();
            const double t0 = now_s();
            const Tensor out = net.layer(i).forward(in[i], training);
            cost[i].fwd_s.push_back(now_s() - t0);
            if (r == 0)
                tally.check(flops_match(matmul_flops() - f0,
                                        cost[i].fwd_flops),
                            pass + "." + cost[i].name + " fwd FLOPs");
        }
        if (bwd_from >= n) continue;
        Tensor g = top_grad;
        for (size_t i = n; i-- > bwd_from;) {
            const int64_t f0 = matmul_flops();
            const double t0 = now_s();
            g = net.layer(i).backward(g);
            cost[i].bwd_s.push_back(now_s() - t0);
            if (r == 0)
                tally.check(flops_match(matmul_flops() - f0,
                                        cost[i].bwd_flops),
                            pass + "." + cost[i].name + " bwd FLOPs");
        }
    }
    net.zero_grad();
    return cost;
}

/** Emit one pass: per-layer times, conv GFLOP/s, share of the peak,
 * and the non-GEMM share of layer time. Layers below @p report_from
 * ran only to feed the reported suffix. */
void
report_pass(const std::string& pass, const std::vector<LayerCost>& cost,
            size_t report_from, double peak_gflops,
            std::vector<Metric>& out)
{
    double conv_flops = 0, conv_s = 0, nongemm_s = 0, all_s = 0;
    for (size_t i = report_from; i < cost.size(); ++i) {
        const LayerCost& c = cost[i];
        const std::string base = "nn." + pass + "." + c.name;
        const double fwd = quantile(c.fwd_s, 0.5);
        out.push_back({base + ".fwd_us", fwd * 1e6, "us", ""});
        double t = fwd, flops = static_cast<double>(c.fwd_flops);
        if (!c.bwd_s.empty()) {
            const double bwd = quantile(c.bwd_s, 0.5);
            out.push_back({base + ".bwd_us", bwd * 1e6, "us", ""});
            t += bwd;
            flops += static_cast<double>(c.bwd_flops);
        }
        all_s += t;
        if (c.kind == "conv") {
            conv_flops += flops;
            conv_s += t;
        } else if (c.kind == "relu" || c.kind == "maxpool" ||
                   c.kind == "flatten") {
            nongemm_s += t;
        }
    }
    const double gflops = conv_flops / std::max(conv_s, 1e-12) / 1e9;
    out.push_back({"nn." + pass + ".conv.gflops", gflops, "GFLOP/s", ""});
    out.push_back({"nn." + pass + ".conv.peak_frac", gflops / peak_gflops,
                   "fraction", ""});
    out.push_back({"nn." + pass + ".nongemm_frac",
                   nongemm_s / std::max(all_s, 1e-12), "fraction", ""});
}

/** gemm() alone at 256^3 on the blocked backend, at the pool width. */
double
gemm_peak_gflops()
{
    constexpr int64_t n = 256;
    Rng rng(3);
    Tensor a({n, n}), b({n, n}), c({n, n});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    std::vector<double> t;
    for (int r = 0; r < 120; ++r) {
        const double t0 = now_s();
        gemm(n, n, n, a.data(), n, 1, b.data(), n, 1, c.data(),
             GemmBackend::kBlocked);
        t.push_back(now_s() - t0);
    }
    return 2.0 * n * n * n / quantile(t, 0.5) / 1e9;
}

} // namespace

std::vector<Metric>
replay_layers(uint64_t seed, Tally& tally)
{
    std::vector<Metric> out;
    const double peak = gemm_peak_gflops();
    out.push_back({"tensor.gemm.peak_gflops", peak, "GFLOP/s", ""});

    const TinyConfig config;
    const int64_t side = config.image_size, tile = side / 3;
    constexpr int kTiles = PermutationSet::kTiles;
    Rng rng(derive_stream(seed, 0x1A7E5));
    auto images = [&](int64_t n, int64_t s) {
        Tensor t({n, 3, s, s});
        t.fill_uniform(rng, 0.0f, 1.0f);
        return t;
    };

    Network inference = make_tiny_inference(config, rng);
    Network trunk = make_tiny_trunk(config, rng);
    Network head = make_tiny_jigsaw_head(config, rng);
    const size_t none = SIZE_MAX;

    report_pass("infer",
                replay(inference, images(1, side), false, none, 200,
                       "infer", tally),
                0, peak, out);

    auto diag = replay(trunk, images(32 * kTiles, tile), false, none, 30,
                       "diag", tally);
    Tensor feats({32, kTiles * tiny_trunk_features(config)});
    feats.fill_uniform(rng, 0.0f, 1.0f);
    const auto diag_head =
        replay(head, feats, false, none, 30, "diag", tally);
    diag.insert(diag.end(), diag_head.begin(), diag_head.end());
    report_pass("diag", diag, 0, peak, out);

    report_pass("pretext",
                replay(trunk, images(16 * kTiles, tile), true, 0, 30,
                       "pretext", tally),
                0, peak, out);

    // The update pass freezes the weight-shared prefix; backward stops
    // at the first trainable layer, the conv after the frozen ones.
    const size_t frozen_convs = 3;
    const size_t first_trainable =
        inference.conv_layer_indices()[frozen_convs];
    report_pass("update",
                replay(inference, images(32, side), true, first_trainable,
                       30, "update", tally),
                first_trainable, peak, out);

    // Jigsaw batch construction (tile cut + shuffle) per image.
    PermutationSet perms(config.num_permutations, rng);
    const Tensor batch = images(32, side);
    std::vector<double> t;
    for (int r = 0; r < 40; ++r) {
        const double t0 = now_s();
        const JigsawBatch jb = make_jigsaw_batch(batch, perms, rng);
        t.push_back(now_s() - t0);
        tally.check(jb.patches.dim(0) == 32, "jigsaw batch shape");
    }
    out.push_back({"selfsup.jigsaw_batch_us", quantile(t, 0.5) / 32 * 1e6,
                   "us", ""});
    return out;
}

} // namespace perfbench
