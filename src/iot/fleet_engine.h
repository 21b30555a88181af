/**
 * @file
 * Sharded fleet engine: the scale path of the In-situ AI loop, built
 * to sweep from 10 to 1,000,000 nodes on one machine.
 *
 * `FleetSim` (src/iot/fleet.h) carries a real neural network, radio
 * model and scheduler per node — paper-fidelity, but memory-bound in
 * the hundreds of nodes. `ScaleFleetEngine` keeps the *system*
 * behaviors (capture/flag/upload, crash chaos, quarantine, canary
 * rollout, validation-gated updates, rollback) while shrinking each
 * node to a POD of at most 32 bytes, so a million-node fleet fits in
 * tens of megabytes and steps millions of events per second.
 *
 * Engine shape, per stage (the same as `FleetSim`'s):
 *
 *  1. **Node-parallel stage step.** Nodes are split into `shards()`
 *     contiguous node-id shards (a pure function of the config, never
 *     of the thread count), each one `parallel_shards` job. Inside a
 *     stage window no node reads another node's state: an event
 *     touches only its own node, integer shard tallies, and version
 *     watermarks that stay fixed for the whole window. So each node
 *     simply steps through its own window in time order — a reboot
 *     at the window start if it crashed last stage, then its one
 *     capture merged with its drain chain (the capture wins a tie),
 *     then one stage-close `quarantine_step`, the policy
 *     `FleetSupervisor` runs too. Per-node randomness is the pure
 *     function `derive_stream(seed, node, draw_counter)`, so a node's
 *     trajectory is identical at any shard count and thread width.
 *  2. **Serial merge fold.** Shard partials — integer tallies and
 *     fixed-point upload values (ppm scale), quarantine and
 *     readmission counts, FNV digests — are folded in ascending shard
 *     order into one stage report, exactly invariant to the shard
 *     count.
 *  3. **Serial cloud phase.** Validation-gated model update, canary
 *     start/judgment, rollback — all against a real (tiny) `Network`
 *     and the copy-on-write `ModelRegistry`, so version bookkeeping
 *     and rollback latency are honestly O(1) in fleet size: a deploy
 *     repoints one per-shard version watermark, never per-node state.
 *
 * tests/test_fleet_oracle.cc replays random configs through a
 * brute-force reference — one global (time, node, kind) event list,
 * no shards — and requires every report field to match, which is
 * what licenses stepping nodes one at a time.
 *
 * The transcript (one merged stage line plus one digest line per
 * shard, all emitted serially) and the flight-recorder ring are byte
 * identical at any `INSITU_THREADS`, including under chaos — the
 * check_fleet_scale ctest gate byte-diffs both at widths 1 vs 4.
 */
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cloud/registry.h"
#include "iot/supervisor.h"
#include "models/tiny.h"
#include "obs/flight.h"

namespace insitu {

/** Configuration of one scale-engine run. */
struct ScaleFleetConfig {
    int64_t nodes = 1000;
    /// Node-id shards. 0 = auto: ~4096 nodes per shard, clamped to
    /// [1, 256]. Part of the replay contract — never derived from the
    /// thread count.
    int shards = 0;

    double stage_window_s = 600.0; ///< simulated stage length

    // Chaos knobs (all off by default; integer probabilities so draws
    // stay exact across platforms).
    int32_t crash_permille = 0;  ///< per node-stage crash probability
    int32_t drop_permille = 0;   ///< per drain-batch link-loss probability
    int32_t poison_permille = 0; ///< per stage poisoned-pool probability

    /// Validation gate: a candidate may lag the deployed quality by at
    /// most this many ppm and still commit.
    int64_t quality_tolerance_ppm = 20000;

    uint64_t seed = 1;

    /** Fatal-checks internal consistency; returns *this. */
    const ScaleFleetConfig& validated() const;

    /** The shard count a run of this config uses (resolves 0 = auto). */
    int resolved_shards() const;
};

/** Merged, shard-count- and width-invariant summary of one stage. */
struct ScaleStageReport {
    int stage = 0;
    int64_t events = 0;        ///< events processed fleet-wide
    int64_t captured = 0;      ///< images captured
    int64_t flagged = 0;       ///< images flagged valuable
    int64_t delivered = 0;     ///< images landed in the cloud pool
    int64_t dropped = 0;       ///< link losses + backlog evictions
    int64_t lost_in_crash = 0; ///< backlog wiped by crashes
    int64_t crashes = 0;
    int64_t backlog = 0;       ///< fleet-wide backlog at stage close
    int64_t quarantined = 0;   ///< nodes quarantined at stage close
    int64_t newly_quarantined = 0;
    int64_t readmitted = 0;
    int64_t excluded = 0;      ///< quarantined deliveries kept from pool
    bool update_ran = false;
    bool poisoned = false;     ///< this stage's pool was poisoned
    bool rejected = false;     ///< validation gate refused the update
    bool canary_started = false;
    bool canary_promoted = false;
    bool canary_rolled_back = false;
    int64_t canary_judged_version = 0; ///< version a judgment resolved
    int64_t version = 0;       ///< fleet-deployed registry version
    int64_t quality_ppm = 0;   ///< deployed model quality (ppm)
};

/**
 * The sharded fleet engine. Constructed from a config; each
 * `run_stage()` advances one stage window and returns the merged
 * report. See the file header for the phase structure.
 */
class ScaleFleetEngine {
  public:
    explicit ScaleFleetEngine(ScaleFleetConfig config);

    /** Advance one stage window (node step, merge fold, cloud). */
    ScaleStageReport run_stage();

    const ScaleFleetConfig& config() const { return config_; }
    int shards() const { return static_cast<int>(shards_.size()); }
    int64_t nodes() const { return static_cast<int64_t>(nodes_.size()); }

    /** Events processed across all stages so far. */
    int64_t events_processed() const { return events_total_; }

    /** Always 0: nothing in the node step can grow (kept for perfbench). */
    int64_t hot_allocs() const { return 0; }

    /** Registry version the fleet watermark points at. */
    int64_t version() const { return version_; }

    /** Deployed model quality, ppm. */
    int64_t quality_ppm() const { return quality_ppm_; }

    /** Nodes currently quarantined. */
    int64_t quarantined_nodes() const;

    /**
     * Byte-identical-at-any-width run log: one merged line per stage
     * followed by one `(shard, node range, events, digest)` line per
     * shard, all emitted on the serial fold.
     */
    const std::string& transcript() const { return transcript_; }

    const obs::FlightRecorder& flight() const { return black_box_; }
    const ModelRegistry& registry() const { return registry_; }

    /** Resident footprint estimate of the engine state, in bytes. */
    int64_t approx_bytes() const;

    /**
     * Operator-initiated rollback: restore registry version
     * @p to_version from a copy-on-write snapshot into the master
     * network, commit the event as a "rollback" version, and repoint
     * every shard's deploy watermark. O(registry blob + shards) —
     * independent of fleet size, which is what the bench's flat
     * 10 -> 1M rollback-latency column demonstrates.
     * @return false (no state change) if @p to_version is unknown.
     */
    bool rollback_and_redeploy(int64_t to_version);

  private:
    /// Per-node state. Kept POD-small on purpose: the 1M-node sweep
    /// is nodes * sizeof(ScaleNode) resident.
    struct ScaleNode {
        /// The one event state that crosses a stage: when the next
        /// uplink drain fires, +inf while nothing is queued.
        double next_drain = std::numeric_limits<double>::infinity();
        uint32_t backlog = 0;       ///< flagged images awaiting uplink
        uint32_t draws = 0;         ///< RNG draw counter (pure streams)
        uint32_t version = 0;       ///< model version the node runs
        uint16_t value_permille = 0;///< usefulness of this node's uploads
        QuarantineWindow window;    ///< crash window + quarantine flag
        uint8_t state = 0;          ///< kDown | kCanary
    };
    static_assert(sizeof(ScaleNode) <= 32);
    static constexpr uint8_t kDown = 1;   ///< crashed, reboots next stage
    static constexpr uint8_t kCanary = 2; ///< runs the candidate

    /// One node-id shard: disjoint state written only by its own job.
    /// Cache-line aligned so two shards stepped on different threads
    /// never share a line (their tallies are written on every event).
    struct alignas(64) Shard {
        int64_t begin = 0; ///< first owned node id
        int64_t end = 0;   ///< one past the last owned node id
        int64_t quarantined = 0;      ///< owned nodes in quarantine
        int64_t deployed_version = 0; ///< the shard's deploy watermark
        // Per-stage tallies (reset at stage start, folded serially).
        int64_t events = 0;
        int64_t captured = 0;
        int64_t flagged = 0;
        int64_t delivered = 0;
        /// Fixed-point sum of delivered batch * value_permille.
        int64_t value_fixed = 0;
        int64_t dropped = 0;
        int64_t lost_in_crash = 0;
        int64_t crashes = 0;
        int64_t excluded = 0;
        int64_t backlog = 0;
        int64_t newly_quarantined = 0;
        int64_t readmitted = 0;
        uint64_t digest = 0;    ///< FNV fold of processed events
    };

    uint64_t node_draw(ScaleNode& node, uint32_t id);
    void run_shard_stage(Shard& shard, double t0);
    void process_capture(Shard& shard, ScaleNode& node, uint32_t id,
                         double t);
    void process_drain(Shard& shard, ScaleNode& node, uint32_t id);
    void deploy_all(int64_t version);
    void run_cloud_phase(int64_t value_fixed, ScaleStageReport& report);
    void judge_canary(ScaleStageReport& report);
    void start_canary(int64_t candidate_version,
                      int64_t candidate_quality_ppm,
                      ScaleStageReport& report);
    void clear_canary_flags();

    ScaleFleetConfig config_;
    std::vector<ScaleNode> nodes_;
    std::vector<Shard> shards_;
    ModelRegistry registry_;
    Network model_; ///< the cloud master (tiny; versions are real blobs)

    int stage_ = 0;
    double clock_s_ = 0;
    int64_t version_ = 0;      ///< fleet-deployed registry version
    int64_t quality_ppm_ = 0;  ///< quality of version_
    int64_t events_total_ = 0;

    // Pending canary rollout (serial cloud phase only).
    bool canary_pending_ = false;
    int64_t canary_version_ = 0;
    int64_t canary_quality_ppm_ = 0;
    std::vector<uint32_t> canary_nodes_;

    std::string transcript_;
    obs::FlightRecorder black_box_{256};
};

} // namespace insitu
