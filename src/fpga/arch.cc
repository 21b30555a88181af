#include "fpga/arch.h"

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

/** Cycles of an input-unrolled engine over one conv layer. */
double
unrolled_cycles(const LayerDesc& l, const EngineUnroll& e)
{
    return static_cast<double>(l.k) * static_cast<double>(l.k) *
           static_cast<double>(l.r) * static_cast<double>(l.c) *
           ceil_div(static_cast<double>(l.n),
                    static_cast<double>(e.tn)) *
           ceil_div(static_cast<double>(l.m),
                    static_cast<double>(e.tm));
}

/** Cycles of an output-neuron-unrolled WSS engine pass (Eq 11),
 * for @p maps output maps handled by this engine. */
double
wss_cycles(const LayerDesc& l, int64_t tr, int64_t tc, double maps)
{
    return maps * static_cast<double>(l.n) *
           static_cast<double>(l.k) * static_cast<double>(l.k) *
           ceil_div(static_cast<double>(l.r),
                    static_cast<double>(tr)) *
           ceil_div(static_cast<double>(l.c),
                    static_cast<double>(tc));
}

} // namespace

const char*
arch_name(ArchKind kind)
{
    switch (kind) {
      case ArchKind::kNws: return "NWS";
      case ArchKind::kWs: return "WS";
      case ArchKind::kWss: return "WSS";
    }
    return "?";
}

EngineUnroll
pick_engine_unroll(int64_t pe_budget)
{
    INSITU_CHECK(pe_budget > 0, "PE budget must be positive");
    const int64_t side = std::max<int64_t>(
        1, static_cast<int64_t>(std::sqrt(
               static_cast<double>(pe_budget))));
    EngineUnroll e;
    e.tn = side;
    e.tm = pe_budget / side;
    return e;
}

EngineUnroll
best_unroll_for_layer(const LayerDesc& layer, int64_t pe_budget)
{
    INSITU_CHECK(pe_budget > 0, "PE budget must be positive");
    EngineUnroll best{1, 1};
    double best_cycles = -1.0;
    const int64_t tn_max = std::min<int64_t>(layer.n, pe_budget);
    for (int64_t tn = 1; tn <= tn_max; ++tn) {
        const int64_t tm =
            std::min<int64_t>(layer.m, pe_budget / tn);
        if (tm < 1) break;
        const EngineUnroll e{tn, tm};
        const double cycles = unrolled_cycles(layer, e);
        if (best_cycles < 0.0 || cycles < best_cycles) {
            best_cycles = cycles;
            best = e;
        }
    }
    return best;
}

FpgaArchSim::FpgaArchSim(FpgaSpec spec, int64_t total_pes)
    : spec_(std::move(spec)), total_pes_(total_pes)
{
    INSITU_CHECK(total_pes > 0, "PE budget must be positive");
    // WSS: size Tr x Tc so that one WSS unit (inference engine + nine
    // half-side tile engines = Tr*Tc * (1 + 9/4)) times the group
    // size fills the budget; prefer the paper's 14x14 when it fits.
    wss_.tr = 14;
    wss_.tc = 14;
    const int64_t per_wss = FpgaModel::dsp_per_wss(wss_);
    wss_.group_size = std::max<int64_t>(1, total_pes / per_wss);
}

std::vector<LayerEngineStats>
FpgaArchSim::layer_stats(const NetworkDesc& net, ArchKind kind,
                         size_t shared_layers) const
{
    const auto convs = net.conv_layers();
    const NetworkDesc diag = diagnosis_desc(net);
    INSITU_CHECK(shared_layers <= convs.size(),
                 "cannot share more conv layers than exist");

    std::vector<LayerEngineStats> out;
    for (size_t i = 0; i < convs.size(); ++i) {
        const LayerDesc& inf = convs[i];
        const LayerDesc& tile = diag.layers[i];
        LayerEngineStats s;
        s.layer = inf.name;
        s.weights_shared = i < shared_layers;
        const double wbytes = 4.0 * inf.weight_count();
        s.raw_weight_bytes = wbytes;

        switch (kind) {
          case ArchKind::kNws: {
            // One big engine runs the image, then the nine tiles; its
            // unroll reconfigures per layer (Caffeine-style).
            s.inference_cycles = unrolled_cycles(
                inf, best_unroll_for_layer(inf, total_pes_));
            s.diagnosis_cycles =
                9.0 * unrolled_cycles(
                          tile, best_unroll_for_layer(tile,
                                                      total_pes_));
            // No sharing anywhere: the inference pass and each of the
            // nine tile passes stream their own copy of the weights.
            s.weight_bytes = wbytes * 10.0;
            break;
          }
          case ArchKind::kWs: {
            // Ten parallel engines with uniform budgets (Fig. 17),
            // each reconfiguring its unroll per layer.
            const int64_t engine_budget = total_pes_ / 10;
            s.inference_cycles = unrolled_cycles(
                inf, best_unroll_for_layer(inf, engine_budget));
            s.diagnosis_cycles = unrolled_cycles(
                tile, best_unroll_for_layer(tile, engine_budget));
            // Level-1 sharing only: a shared layer is broadcast once;
            // an unshared layer feeds the inference engine and each
            // tile engine from its own dedicated stream.
            s.weight_bytes = s.weights_shared ? wbytes : wbytes * 10.0;
            break;
          }
          case ArchKind::kWss: {
            const double maps = ceil_div(
                static_cast<double>(inf.m),
                static_cast<double>(wss_.group_size));
            s.inference_cycles =
                wss_cycles(inf, wss_.tr, wss_.tc, maps);
            s.diagnosis_cycles = wss_cycles(
                tile, std::max<int64_t>(1, wss_.tr / 2),
                std::max<int64_t>(1, wss_.tc / 2), maps);
            // Two-level sharing: a shared layer streams once for
            // everyone; an unshared layer streams once for the
            // inference engines and once broadcast across all nine
            // tile engines.
            s.weight_bytes = s.weights_shared ? wbytes : wbytes * 2.0;
            break;
          }
        }
        out.push_back(s);
    }
    return out;
}

ConvRunStats
FpgaArchSim::run_conv_layers(const NetworkDesc& net, ArchKind kind,
                             size_t shared_layers,
                             bool tile_weight_cache) const
{
    const auto layers = layer_stats(net, kind, shared_layers);
    ConvRunStats stats;
    double idle_acc = 0.0;
    for (const auto& s : layers) {
        double layer_cycles = 0.0;
        double idle = 0.0;
        if (kind == ArchKind::kNws) {
            // Sequential on one engine: never idle, maximal traffic.
            layer_cycles = s.inference_cycles + s.diagnosis_cycles;
            idle = 0.0;
        } else {
            // Parallel engines: the layer takes the slower side; the
            // faster side idles for the difference.
            layer_cycles =
                std::max(s.inference_cycles, s.diagnosis_cycles);
            idle = 1.0 - std::min(s.inference_cycles,
                                  s.diagnosis_cycles) /
                             layer_cycles;
        }
        stats.compute_seconds += layer_cycles / spec_.freq_hz;
        if (tile_weight_cache) {
            // Cached regime: one stream when shared, two otherwise
            // (inference stream + one broadcast to the tile engines),
            // regardless of how many engine passes reuse them.
            stats.weight_bytes +=
                (s.weights_shared ? 1.0 : 2.0) * s.raw_weight_bytes;
        } else {
            stats.weight_bytes += s.weight_bytes;
        }
        idle_acc += idle;
    }
    stats.access_seconds = stats.weight_bytes / spec_.mem_bandwidth;
    stats.idle_fraction =
        layers.empty() ? 0.0
                       : idle_acc / static_cast<double>(layers.size());
    return stats;
}

} // namespace insitu
