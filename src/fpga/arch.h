/**
 * @file
 * Cycle-approximate simulation of the three Co-running FPGA
 * architectures the paper compares (Figs 17-19, 22):
 *
 *  - NWS (No-Weight-Sharing): one large input-unrolled conv engine
 *    time-multiplexed between the inference image and the nine
 *    diagnosis tiles; every engine pass streams its own weights.
 *  - WS  (Weight-Shared): ten dedicated engines with uniform
 *    unrolling (Fig. 17) — one for the inference image, nine for the
 *    tiles — with a shared-weight broadcast for shared layers. The
 *    uniform split leaves the tile engines idle ~75% of cycles.
 *  - WSS (Weight-Share-Share, Fig. 18): output-neuron unrolled
 *    engines sized 4:1 between inference and tile work, plus the
 *    second level of sharing (one weight broadcast to every PE of an
 *    engine and across the nine tile engines).
 *
 * The simulator walks the layer loop nests in closed form (cycle
 * counts per engine), tracks per-engine busy/idle cycles and counts
 * off-chip weight traffic; it does not model individual wires.
 */
#pragma once

#include "hw/fpga_model.h"
#include "hw/spec.h"
#include "models/descriptor.h"

namespace insitu {

/** Which Co-running architecture to simulate. */
enum class ArchKind { kNws, kWs, kWss };

/** Printable architecture name. */
const char* arch_name(ArchKind kind);

/** Result of running all conv layers for one image + its 9 tiles. */
struct ConvRunStats {
    double compute_seconds = 0; ///< critical-path engine time
    double access_seconds = 0;  ///< off-chip weight streaming time
    double weight_bytes = 0;    ///< bytes of weights fetched
    double idle_fraction = 0;   ///< mean idle share of tile engines

    double
    total_seconds() const
    {
        return compute_seconds + access_seconds;
    }
};

/** Per-layer engine accounting (exposed for tests and ablations). */
struct LayerEngineStats {
    std::string layer;
    double inference_cycles = 0;
    double diagnosis_cycles = 0; ///< per the whole 9-tile batch
    double weight_bytes = 0;     ///< streamed, load-then-compute regime
    double raw_weight_bytes = 0; ///< one copy of the layer's weights
    bool weights_shared = false;
};

/**
 * Simulator for one FPGA Co-running architecture at a fixed PE
 * budget, following the paper's equal-PE comparison (2628 PEs in
 * Fig. 22).
 */
class FpgaArchSim {
  public:
    /**
     * @param spec device parameters (clock, bandwidth).
     * @param total_pes multiply-accumulate units to allocate across
     *        all engines of the architecture.
     */
    FpgaArchSim(FpgaSpec spec, int64_t total_pes);

    /**
     * Run every conv layer of @p net for one inference image plus the
     * nine diagnosis tiles with the first @p shared_layers conv
     * layers weight-shared between the two tasks (CONV-n strategy).
     *
     * @param tile_weight_cache when true, an on-chip buffer keeps a
     *        layer's weights resident across the engine passes of one
     *        image (inference + 9 tiles), so an unshared layer
     *        streams at most twice and a shared layer once. This is
     *        the steady-state pipeline regime (Fig. 20); the default
     *        models the load-weights-then-compute regime of the
     *        Fig. 22 experiment.
     */
    ConvRunStats run_conv_layers(const NetworkDesc& net, ArchKind kind,
                                 size_t shared_layers,
                                 bool tile_weight_cache = false) const;

    /** Per-layer breakdown backing run_conv_layers. */
    std::vector<LayerEngineStats> layer_stats(const NetworkDesc& net,
                                              ArchKind kind,
                                              size_t shared_layers) const;

    /** The WSS geometry chosen for the PE budget. */
    WssConfig wss_config() const { return wss_; }

    int64_t total_pes() const { return total_pes_; }

  private:
    FpgaSpec spec_;
    int64_t total_pes_;
    WssConfig wss_;           ///< balanced 4:1 output-unrolled design
};

/**
 * Pick the largest Tn x Tm engine that fits @p pe_budget with a
 * near-square aspect ratio.
 */
EngineUnroll pick_engine_unroll(int64_t pe_budget);

/**
 * Per-layer optimal unroll: the (Tn, Tm) with Tn*Tm <= pe_budget,
 * Tn <= N, Tm <= M minimizing the layer's cycle count. Real conv
 * engines (Caffeine-style) reconfigure their unroll per layer; the
 * NWS and WS engines here do the same.
 */
EngineUnroll best_unroll_for_layer(const LayerDesc& layer,
                                   int64_t pe_budget);

} // namespace insitu
