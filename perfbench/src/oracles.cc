#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "iot/fleet_engine.h"
#include "models/tiny.h"
#include "nn/network.h"
#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "util/rng.h"

namespace perfbench {

using namespace insitu;

bool
fleet_conserved(const ScaleStageReport& r, int64_t backlog_before)
{
    return r.flagged == r.delivered + r.excluded + r.dropped +
                            r.lost_in_crash + (r.backlog - backlog_before);
}

bool
no_hot_allocs(int64_t after_warmup, int64_t now)
{
    return now == after_warmup;
}

bool
logits_match(const Tensor& got, const Tensor& ref)
{
    if (got.shape() != ref.shape()) return false;
    double diff = 0, scale = 0;
    for (int64_t i = 0; i < ref.numel(); ++i) {
        const double g = got.data()[i], r = ref.data()[i];
        if (!std::isfinite(g) || !std::isfinite(r)) return false;
        diff = std::max(diff, std::fabs(g - r));
        scale = std::max(scale, std::fabs(r));
    }
    return diff <= kLogitTolerance * std::max(scale, 1e-30);
}

bool
identical(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) ==
               0;
}

bool
flops_match(int64_t counted, int64_t analytic)
{
    return counted == analytic;
}

Tensor
naive_logits(Network& net, const Tensor& probe)
{
    const GemmBackend active = gemm_backend();
    set_gemm_backend(GemmBackend::kNaive);
    Tensor out = net.forward(probe, false);
    set_gemm_backend(active);
    return out;
}

int64_t
matmul_flops()
{
    auto& reg = obs::MetricsRegistry::global();
    return reg.counter("tensor.matmul.flops").value() +
           reg.counter("tensor.matmul_ta.flops").value() +
           reg.counter("tensor.matmul_tb.flops").value();
}

int
selftest()
{
    // Each oracle is first checked against the true expected value
    // (it must pass) and then against a deliberately wrong one (it
    // must fire).
    int bad = 0;
    auto expect = [&](bool passes_true, bool fires_wrong,
                      const char* oracle) {
        std::printf("selftest %-22s true value: %s, wrong value: %s\n",
                    oracle, passes_true ? "passes" : "FAILS",
                    fires_wrong ? "fires" : "DOES NOT FIRE");
        if (!passes_true || !fires_wrong) ++bad;
    };

    ScaleStageReport r;
    r.flagged = 100;
    r.delivered = 60;
    r.excluded = 5;
    r.dropped = 10;
    r.lost_in_crash = 5;
    r.backlog = 30;
    expect(fleet_conserved(r, 10), !fleet_conserved(r, 11),
           "fleet_conserved");
    expect(no_hot_allocs(3, 3), !no_hot_allocs(3, 4), "fleet_hot_allocs");

    TinyConfig config;
    Rng rng(7);
    Network net = make_tiny_inference(config, rng);
    Tensor probe({4, 3, config.image_size, config.image_size});
    probe.fill_uniform(rng, 0.0f, 1.0f);
    const Tensor ref = naive_logits(net, probe);
    const Tensor got = net.forward(probe, false);
    Tensor wrong = ref;
    wrong.data()[3] += 1e-2f * std::max(1.0f, std::fabs(wrong.data()[3]));
    expect(logits_match(got, ref), !logits_match(got, wrong),
           "logits_vs_naive_gemm");

    Tensor again = net.forward(probe, false);
    Tensor ulp = again;
    ulp.data()[0] = std::nextafter(ulp.data()[0], 1e30f);
    expect(identical(got, again), !identical(got, ulp),
           "checkpoint_restore");

    // conv1 alone: 2 * M * (C*K*K) * (H*W) per image.
    const int64_t before = matmul_flops();
    net.layer(0).forward(probe, false);
    const int64_t counted = matmul_flops() - before;
    const int64_t hw = config.image_size * config.image_size;
    const int64_t analytic = 4 * 2 * 16 * (3 * 3 * 3) * hw;
    expect(flops_match(counted, analytic),
           !flops_match(counted, analytic + 1), "flops_vs_counter");
    return bad;
}

} // namespace perfbench
