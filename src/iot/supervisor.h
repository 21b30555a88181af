/**
 * @file
 * Self-healing fleet supervision: circuit breakers, crash-loop
 * quarantine and canary model rollout.
 *
 * PR 1 gave every layer a *local* defense (retransmit, checkpoint
 * restore, the holdout gate); this module adds the *system-level*
 * reactions a production fleet needs (the gap on-device-training
 * surveys call out between a training loop and a deployable system):
 *
 * - A **CircuitBreaker** per uplink stops a node from burning radio
 *   energy into a link that keeps eating transmissions (the flapping
 *   adversary in `FaultPlan::flapping`): after N consecutive failed
 *   attempts the breaker opens and the radio fast-fails until a
 *   cooldown expires, then a half-open probe re-admits traffic.
 * - **Health tracking + crash-loop quarantine**: per-node heartbeat /
 *   completion / crash counters feed a health score; a
 *   node that crash-loops is quarantined (uploads excluded from the
 *   update pool, redeploys suspended) and re-admitted on sustained
 *   health.
 * - **Canary rollout**: a validated update deploys first to a small
 *   healthy subset; the next stage compares the canaries' accuracy
 *   and flag rate against the rest of the fleet (still on the
 *   baseline) and either promotes fleet-wide or rolls the cloud back
 *   to the registry baseline version — a second gate behind the
 *   holdout gate.
 *
 * Every decision here is a pure function of serially observed state:
 * the fleet feeds observations in node-ascending order outside its
 * parallel regions, so a supervised chaos run replays bit-identically
 * at any thread count (the PR 2 invariant).
 */
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace insitu {

/** Circuit-breaker state (classic three-state machine). */
enum class BreakerState {
    kClosed,   ///< traffic flows; failures are counted
    kOpen,     ///< fast-fail: no attempts until the cooldown expires
    kHalfOpen, ///< probing: limited attempts decide open vs closed
};

/** Printable name of a breaker state. */
const char* breaker_state_name(BreakerState state);

/// Consecutive failed transmission attempts that open a breaker.
inline constexpr int kBreakerFailureThreshold = 3;
/// Seconds a breaker stays open before a half-open probe.
inline constexpr double kBreakerCooldownS = 8.0;
/// Half-open successes required to close a breaker again.
inline constexpr int kBreakerProbeSuccesses = 2;
static_assert(kBreakerFailureThreshold >= 1 && kBreakerCooldownS > 0 &&
              kBreakerProbeSuccesses >= 1);

/**
 * Per-uplink circuit breaker. The UplinkQueue consults it once per
 * transmission attempt during `drain_window` (serial, replay-ordered):
 * `allow_attempt` gates the attempt, `on_success` / `on_failure`
 * report its outcome. All transitions are pure functions of the
 * simulation clock, so breaker behavior is deterministic.
 */
class CircuitBreaker {
  public:
    BreakerState state() const { return state_; }

    /**
     * May the radio attempt a transmission at time @p now_s?
     * An open breaker whose cooldown has expired transitions to
     * half-open (and admits the attempt as a probe).
     */
    bool allow_attempt(double now_s);

    /** Report a delivered (acked) attempt at @p now_s. */
    void on_success(double now_s);

    /** Report a failed (lost/corrupted/flapped) attempt at @p now_s. */
    void on_failure(double now_s);

    /** Earliest time an open breaker admits a half-open probe. */
    double retry_at() const { return retry_at_; }

    int64_t opens() const { return opens_; }   ///< ->open transitions
    int64_t closes() const { return closes_; } ///< ->closed transitions
    int64_t probes() const { return probes_; } ///< half-open attempts

    /** Plain-data image of a breaker, for durable persistence. */
    struct Snapshot {
        BreakerState state = BreakerState::kClosed;
        int consecutive_failures = 0;
        int half_open_successes = 0;
        double retry_at = 0;
        int64_t opens = 0;
        int64_t closes = 0;
        int64_t probes = 0;
    };

    Snapshot snapshot() const;

    /** Overwrite the breaker's state from @p snap. */
    void restore(const Snapshot& snap);

  private:
    void open(double now_s);

    BreakerState state_ = BreakerState::kClosed;
    int consecutive_failures_ = 0;
    int half_open_successes_ = 0;
    double retry_at_ = 0;
    int64_t opens_ = 0;
    int64_t closes_ = 0;
    int64_t probes_ = 0;
};

/// Crash/restore-failure events within the window that quarantine a
/// node.
inline constexpr int kQuarantineCrashThreshold = 2;
/// Sliding window of observed stages the threshold is evaluated over
/// (1..8: the window is one byte of fault bits).
inline constexpr int kQuarantineWindowStages = 3;
/// Consecutive fault-free stages a quarantined node must show before
/// it is re-admitted (1..255: the streak is one byte).
inline constexpr int kQuarantineReadmitAfter = 2;
static_assert(kQuarantineCrashThreshold >= 1);
static_assert(kQuarantineWindowStages >= 1 && kQuarantineWindowStages <= 8);
static_assert(kQuarantineReadmitAfter >= 1 && kQuarantineReadmitAfter <= 255);

/**
 * One node's crash-window quarantine state. Three bytes of plain data,
 * so the million-node scale engine keeps it inline in every node.
 */
struct QuarantineWindow {
    /// Bit k set: the node faulted k observed stages ago. Masked to
    /// kQuarantineWindowStages bits on every step.
    uint8_t faults = 0;
    uint8_t clean_streak = 0; ///< fault-free stages while quarantined
    uint8_t quarantined = 0;  ///< 1 while excluded from the pool

    int fault_count() const { return std::popcount(faults); }
};
static_assert(sizeof(QuarantineWindow) == 3);

/** The transition one `quarantine_step` fired. */
enum class QuarantineTransition : uint8_t {
    kNone,
    kQuarantined,
    kReadmitted,
};

/**
 * Fold one observed stage into @p window — the single quarantine
 * policy both fleet engines call. The fault window slides by one
 * stage; an admitted node whose window holds kQuarantineCrashThreshold
 * faults is quarantined; a quarantined node is re-admitted after
 * kQuarantineReadmitAfter consecutive clean stages, and readmission
 * clears the window, so one new fault cannot instantly re-quarantine
 * it.
 */
QuarantineTransition quarantine_step(QuarantineWindow& window, bool faulted);

/// Nodes a validated update deploys to first (capped so at least one
/// healthy control node remains).
inline constexpr int kCanaryNodes = 1;
/// Canary mean accuracy may lag the control group by this much and
/// still promote.
inline constexpr double kCanaryAccuracyTolerance = 0.05;
/// Canary mean flag rate may exceed the control group's by this much
/// and still promote.
inline constexpr double kCanaryFlagRateTolerance = 0.15;
static_assert(kCanaryNodes >= 1 && kCanaryAccuracyTolerance >= 0 &&
              kCanaryFlagRateTolerance >= 0);

/** Rolling health record of one node. */
struct NodeHealth {
    int64_t stages_seen = 0;      ///< observed stages (heartbeats)
    int64_t stages_completed = 0; ///< stages finished without a fault
    int64_t crashes = 0;          ///< lifetime crash events
    int64_t restore_failures = 0; ///< lifetime failed reboots
    QuarantineWindow quarantine;  ///< crash window + quarantine flag

    /**
     * Composite health in (0, 1]: completion ratio shrunk by faults
     * still inside the window. Used to order canary candidates.
     */
    double score() const;
};

/** What the fleet observed about one node during one stage. */
struct NodeStageObservation {
    bool crashed = false;
    bool restore_failed = false;
    double flag_rate = 0;
    double accuracy = 0;     ///< pre-update accuracy on stage data
    bool has_accuracy = false; ///< false for crashed nodes
};

/** One in-flight canary rollout. */
struct CanaryRollout {
    bool pending = false;
    int started_stage = -1;
    std::vector<int> nodes;       ///< the canary subset
    int64_t accepted_version = 0; ///< registry id under evaluation
    int64_t baseline_version = 0; ///< registry id to roll back to
    double baseline_accuracy = 0; ///< pre-update fleet mean accuracy
    double baseline_flag_rate = 0;///< pre-update fleet mean flag rate
};

/** Decisions the supervisor made when a stage's observations closed. */
struct SupervisorStageDecisions {
    std::vector<int> newly_quarantined;
    std::vector<int> readmitted;
    bool canary_judged = false;     ///< a pending canary was resolved
    bool canary_promoted = false;   ///< ...and promoted fleet-wide
    bool canary_rolled_back = false;///< ...or rolled back
    int64_t canary_version = 0;     ///< the judged registry version
    int64_t rollback_version = 0;   ///< restore target on rollback
};

/**
 * The fleet's supervision brain. Owns one CircuitBreaker per node
 * (wired into the node's UplinkQueue by FleetSim), the per-node
 * health/quarantine state machines, and the pending canary rollout.
 *
 * Protocol per stage, all calls serial and node-ascending:
 *   1. `observe(node, obs)` for every node;
 *   2. `end_stage(stage)` — applies quarantine transitions, judges a
 *      pending canary against this stage's observations, and returns
 *      the decisions for the fleet to act on;
 *   3. after a validated update, `pick_canaries()` +
 *      `start_canary(...)` if a staged rollout should begin.
 */
class FleetSupervisor {
  public:
    explicit FleetSupervisor(size_t num_nodes);

    size_t size() const { return health_.size(); }

    CircuitBreaker& breaker(size_t node);
    const CircuitBreaker& breaker(size_t node) const;

    const NodeHealth& health(size_t node) const;
    bool quarantined(size_t node) const;

    bool canary_pending() const { return canary_.pending; }
    const CanaryRollout& canary() const { return canary_; }
    bool is_canary(size_t node) const;

    /** Record one node's stage outcome (serial, node-ascending). */
    void observe(size_t node, const NodeStageObservation& obs);

    /**
     * Close the stage: fold observations into health, fire
     * quarantine/readmit transitions, judge a pending canary (using
     * the canaries' observations against the non-canary controls',
     * falling back to the recorded pre-update baseline when no
     * control participated). Clears the observation buffer.
     */
    SupervisorStageDecisions end_stage(int stage);

    /**
     * The canary subset a new rollout would use: healthiest
     * non-quarantined nodes first (score desc, index asc), capped so
     * at least one healthy control remains. Empty when fewer than two
     * healthy nodes exist (no control group — deploy fleet-wide).
     */
    std::vector<int> pick_canaries() const;

    /** Begin a staged rollout of @p accepted_version. */
    void start_canary(int stage, std::vector<int> nodes,
                      int64_t accepted_version,
                      int64_t baseline_version,
                      double baseline_accuracy,
                      double baseline_flag_rate);

    /**
     * Serialize every breaker, every node's health record and the
     * pending canary rollout into one durable payload (suitable for
     * a storage::SnapshotStore). The per-stage observation buffer is
     * intentionally excluded: persistence happens between stages,
     * when it is empty.
     */
    std::string encode_state() const;

    /**
     * All-or-nothing inverse of encode_state. False (leaving the
     * supervisor unchanged) on bad magic/version, a node-count
     * mismatch, or any truncation/corruption.
     */
    bool restore_state(std::string_view blob);

  private:
    std::vector<CircuitBreaker> breakers_;
    std::vector<NodeHealth> health_;
    std::vector<NodeStageObservation> observations_;
    std::vector<char> observed_;
    CanaryRollout canary_;
};

} // namespace insitu
