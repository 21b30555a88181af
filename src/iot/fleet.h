/**
 * @file
 * Multi-node fleet simulation.
 *
 * The paper's edge node already aggregates multiple sensors; real
 * deployments run many such nodes against one cloud. The fleet
 * simulator gives each node its own micro-climate (severity offset),
 * pools the valuable uploads from all nodes into one incremental
 * update, and redeploys the refreshed models fleet-wide — so a node
 * in a harsh micro-climate benefits from data its siblings flagged.
 *
 * The fleet is resilient by construction: every node's flagged images
 * travel through a retransmitting, bounded UplinkQueue over the IoT
 * radio (iot_uplink_spec()); a FaultPlan can flap the link,
 * lose/corrupt payloads, crash nodes mid-run and poison an update's
 * labels. Crashed nodes reboot from their NodeCheckpoint (losing
 * only in-flight flagged images), a stage completes with whatever the
 * surviving nodes delivered (stragglers' backlogs drain in later
 * stages), and every incremental update passes a holdout-accuracy
 * gate that rolls a regressed model back to the last good registry
 * version before it can deploy.
 *
 * Per-node stepping (diagnosis, enqueue, post-deploy evaluation)
 * runs node-parallel on the deterministic thread pool
 * (`util/parallel.h`): inside the parallel region each node draws
 * only from its own RNG and touches only its own state. Everything
 * that consumes a replay-ordered shared stream — acquisition renders
 * from the fleet rng_, crash decisions and uplink drains against the
 * FaultInjector, the cloud update — stays serial, in node order. A
 * chaos run therefore replays bit-identically at any thread count.
 */
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "cloud/update_service.h"
#include "faults/fault_injector.h"
#include "iot/node.h"
#include "iot/supervisor.h"
#include "iot/uplink.h"
#include "obs/flight.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace insitu {

/** Fleet-level configuration. */
struct FleetConfig {
    TinyConfig tiny;
    /// Epochs of the bootstrap and the per-stage incremental updates
    /// (at UpdatePolicy's learning rate, first kSharedConvs frozen).
    int update_epochs = 2;
    int pretrain_epochs = 2;
    /// Per-node severity offsets added to the stage's base severity
    /// (one entry per node; size defines the fleet size).
    std::vector<double> node_severity_offset = {0.0, 0.1, 0.2};
    /// Reliability/bounding knobs of every node's uplink.
    UplinkConfig uplink;
    /// Simulated seconds per stage; the radio may use the whole
    /// window, flaps and backoff eat into it.
    double stage_window_s = 600.0;
    /// Holdout images rendered per stage for the update-validation
    /// gate (clean labels, fleet-mean condition).
    int64_t holdout_images = 48;
    /// Reject (roll back) an update whose holdout accuracy drops by
    /// more than this.
    double rollback_tolerance = 0.02;
    /// Failure scenario; the default injects nothing.
    FaultPlan faults;
    /// Run the self-healing supervision layer (uplink circuit
    /// breakers, crash-loop quarantine, canary rollout — see
    /// iot/supervisor.h). false reproduces the unsupervised fleet
    /// exactly.
    bool supervised = false;
    /// Directory for durable state (created if missing). When set,
    /// the fleet persists node checkpoints (SnapshotStore per node),
    /// the cloud's registry history (a WAL), the supervisor state and
    /// stage progress — and a freshly constructed FleetSim over the
    /// same directory can resume via recover_from_storage(). nullopt
    /// keeps everything in memory (the pre-durability behavior).
    std::optional<std::string> durable_dir;
    uint64_t seed = 1;
};

/** One node's view of a fleet stage. */
struct FleetNodeReport {
    int node = 0;
    int64_t acquired = 0;
    int64_t uploaded = 0;     ///< flagged images *delivered* this stage
    int64_t backlogged = 0;   ///< flagged images still queued (stragglers)
    int64_t lost_in_crash = 0;///< in-flight images a reboot destroyed
    int64_t dropped = 0;      ///< evicted by the bounded backlog
    bool crashed = false;     ///< node rebooted during this stage
    bool quarantined = false; ///< under quarantine after this stage's
                              ///< supervision pass
    bool canary = false;      ///< carries a canary model
    double flag_rate = 0;
    double accuracy_before = 0;
    double accuracy_after = 0;
};

/** One fleet-wide stage, including its resilience outcome. */
struct FleetStageReport {
    int stage = 0;
    std::vector<FleetNodeReport> nodes;
    int64_t pooled_uploads = 0;   ///< images that reached the cloud
    int64_t straggler_backlog = 0;///< fleet-wide images still queued
    int64_t retransmits = 0;      ///< uplink attempts repeated so far
    int64_t corrupted = 0;        ///< corrupted arrivals NACKed so far
    int64_t crashed_nodes = 0;    ///< reboots this stage
    bool update_ran = false;      ///< cloud saw >= 1 image this stage
    bool poisoned = false;        ///< this stage's labels were poisoned
    bool rolled_back = false;     ///< validation gate rejected the update
    double holdout_before = 0;    ///< gate accuracy pre-update
    double holdout_after = 0;     ///< gate accuracy of what deployed
    double holdout_trained = 0;   ///< raw accuracy of the trained
                                  ///< weights (even when rejected)
    double mean_accuracy_after = 0;

    // Supervision outcome (all zero/empty when unsupervised):
    int64_t quarantined_nodes = 0;    ///< nodes quarantined after this
                                      ///< stage's supervision pass
    std::vector<int> newly_quarantined;
    std::vector<int> readmitted;
    int64_t excluded_uploads = 0;     ///< quarantined deliveries kept
                                      ///< out of the update pool
    bool canary_started = false;      ///< this stage's update went to
                                      ///< a canary subset only
    bool canary_promoted = false;     ///< pending canary promoted
    bool canary_rolled_back = false;  ///< pending canary rolled back
    std::vector<int> canary_nodes;    ///< subset of a started canary
    int64_t breaker_opens = 0;        ///< cumulative breaker opens
    double breaker_open_wait_s = 0;   ///< cumulative fast-fail time
    int64_t slo_alerts = 0;           ///< delivery burn-rate alerts
                                      ///< raised this stage
};

/** A fleet of In-situ nodes sharing one cloud. */
class FleetSim {
  public:
    explicit FleetSim(FleetConfig config);

    /** Number of nodes. */
    size_t size() const { return nodes_.size(); }

    /**
     * Bootstrap: every node contributes @p images_per_node initial
     * images (under its own conditions); the cloud pre-trains,
     * transfers and trains on the pooled set, then deploys
     * fleet-wide (and checkpoints every node).
     * @return mean node accuracy on the pooled bootstrap data.
     */
    double bootstrap(int64_t images_per_node, double base_severity);

    /**
     * One incremental stage: each surviving node acquires
     * @p images_per_node new images at @p base_severity (plus its
     * offset), flags the valuable subset and ships it through its
     * uplink; the cloud runs one validation-gated update on whatever
     * was delivered and redeploys. Crashed nodes reboot from their
     * checkpoint and skip the stage's acquisition.
     */
    FleetStageReport run_stage(int64_t images_per_node,
                               double base_severity);

    ModelUpdateService& cloud() { return cloud_; }
    InsituNode& node(size_t i);
    UplinkQueue& uplink(size_t i);
    const FaultInjector& injector() const { return injector_; }
    /** The supervision layer, or nullptr when unsupervised. */
    const FleetSupervisor* supervisor() const {
        return supervisor_ ? &*supervisor_ : nullptr;
    }

    /** Stages run so far (the stage index of the next run_stage). */
    int stage_index() const { return stage_index_; }

    /** Is durable persistence active (config_.durable_dir set)? */
    bool durable() const { return registry_wal_ != nullptr; }

    /** The fleet's flight-recorder ring (last-N stage events; durable
     * fleets persist it as <durable_dir>/flight.dump every stage). */
    const obs::FlightRecorder& flight() const { return black_box_; }

    /**
     * Resume from the durable directory: replay the registry WAL into
     * the cloud, restore the supervisor state, reboot every node from
     * its on-disk checkpoint and resume the stage counter/clock. Call
     * right after constructing a FleetSim over a directory a previous
     * (possibly killed mid-run) fleet wrote. Every piece is
     * all-or-nothing: a damaged file leaves that piece at its
     * freshly-constructed state, never torn.
     * @return true when any durable state was recovered.
     */
    bool recover_from_storage();

  private:
    /** Persist supervisor state + stage progress (end of each stage). */
    void persist_durable_state();
    /** Node-local condition for a stage. */
    Condition node_condition(size_t node,
                             double base_severity) const;

    /**
     * Deploy the cloud models fleet-wide (skipping quarantined
     * nodes, whose redeploys are suspended) and refresh checkpoints.
     */
    void deploy_all();

    /** Deploy the cloud models to one node and refresh its checkpoint. */
    void deploy_node(size_t i);

    FleetConfig config_;
    ModelUpdateService cloud_;
    FaultInjector injector_;
    std::vector<InsituNode> nodes_;
    std::vector<UplinkQueue> uplinks_;
    /// Flagged images queued on each node, FIFO, row-aligned with the
    /// node's UplinkQueue payloads. Lost wholesale on a crash.
    std::vector<Dataset> pending_uploads_;
    /// Pooled uploads held back while a canary verdict is pending
    /// (trained in the first stage after the verdict lands).
    Dataset deferred_pool_;
    std::vector<NodeCheckpoint> checkpoints_;
    /// Engaged iff config_.supervised. Stable address: the
    /// uplinks hold pointers into its breakers.
    std::optional<FleetSupervisor> supervisor_;
    /// Durable-state handles, engaged iff config_.durable_dir is set.
    /// Writes happen only on serial paths (deployments, end-of-stage
    /// persistence), so storage fault draws stay replay-ordered;
    /// reads (crash reboots inside the node-parallel region) are
    /// draw-free by FaultyFile's contract.
    std::vector<std::unique_ptr<storage::SnapshotStore>> node_stores_;
    std::unique_ptr<storage::Wal> registry_wal_;
    std::unique_ptr<storage::SnapshotStore> supervisor_store_;
    std::unique_ptr<storage::SnapshotStore> meta_store_;
    /// Committed registry records found at construction, kept for
    /// recover_from_storage().
    std::vector<storage::WalRecord> recovered_records_;
    /// Per-link delivery SLOs (one handle per node) fed on the serial
    /// drain path; burn-rate windows scale with stage_window_s.
    obs::SloEngine slo_engine_;
    std::vector<size_t> slo_links_;
    /// Last-256-events black box (stage starts, crashes, quarantines,
    /// canary verdicts, updates, deploys); see flight().
    obs::FlightRecorder black_box_{256};
    /// Per-node lineage of the flagged images currently on the link:
    /// minted at capture, advanced at delivery/update/deploy by flow
    /// edges, reset when the lineage completes or a crash destroys
    /// the backlog. Serial paths only.
    std::vector<obs::TraceContext> upload_trace_;
    /// Nodes whose deliveries sit in deferred_pool_ (canary pending);
    /// their lineages join the update that finally trains the pool.
    std::vector<size_t> deferred_contributors_;
    /// Durable home of the black box (nullptr when not durable). Kept
    /// outside the fault injector's write stream on purpose: the
    /// flight dump is diagnostic, and letting it consume storage
    /// fault draws would perturb the replay-ordered fault sequence of
    /// the real state files.
    std::unique_ptr<storage::SnapshotStore> flight_store_;
    int stage_index_ = 0;
    double clock_s_ = 0;
    Rng rng_;
};

/**
 * The chaos fleet scenario `chaos_fleet`, Fig. 25's chaos section and
 * the `chaos`/`obs` determinism gates run: three nodes under 20%
 * payload loss and 5% corruption, a link that flaps through stages
 * 0-1, node 1 crash-looping, and poisoned labels in stage 3, with the
 * holdout gate waved open so only a canary rollout can catch the
 * poison. @p supervised adds the supervision layer (breakers,
 * quarantine, canary); without it the fleet has only its local
 * defenses.
 */
FleetConfig chaos_fleet_config(bool supervised);

} // namespace insitu
