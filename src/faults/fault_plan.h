/**
 * @file
 * Declarative fault plan for resilience studies.
 *
 * The paper's premise is that the diagnosis/upload path is deferrable
 * and the cloud loop closes *eventually* (§III-C2, Fig. 25). Real
 * AIoT deployments test that premise with lossy duty-cycled links,
 * node reboots and occasionally harmful incremental updates. A
 * FaultPlan describes such a failure scenario declaratively — flapping
 * links, per-payload loss/corruption probabilities, node crash events,
 * poisoned-update events, storage faults — so a fleet run can be
 * replayed bit-identically from one seed. Device faults on the serving
 * host are the serving runtime's own plan (serving::DeviceFaultPlan).
 */
#pragma once

#include <cstdint>
#include <vector>

namespace insitu {

/**
 * A flapping link: inside [from_s, to_s) the link cycles with period
 * `period_s`, and is down for the first `down_s` seconds of every
 * cycle. A flap is discovered only by a failed transmission attempt:
 * the payload gets no ack, the energy is burnt, and the sender
 * retries. This is the adversary the uplink circuit breaker exists
 * for (see iot/supervisor.h).
 */
struct FlappingWindow {
    double from_s = 0;
    double to_s = 0;
    double period_s = 10.0; ///< one down+up cycle
    double down_s = 4.0;    ///< down burst at the start of each cycle
};

/** Node @p node reboots during stage @p stage, losing in-flight data. */
struct NodeCrashEvent {
    int stage = 0;
    int node = 0;
};

/**
 * One failure scenario. Default-constructed plans inject nothing, so
 * fault-aware components behave exactly like their happy-path
 * versions until a plan is supplied.
 */
struct FaultPlan {
    /// Windows during which the link flaps: transmission attempts
    /// inside a down-burst fail (no ack) after burning their energy.
    std::vector<FlappingWindow> flapping;
    /// Probability one transmission attempt vanishes (no ack).
    double payload_loss_prob = 0.0;
    /// Probability one transmission arrives with flipped bits (the
    /// receiver NACKs it, triggering a retransmit).
    double payload_corrupt_prob = 0.0;
    /// Node reboot events (stage-indexed; see FleetSim).
    std::vector<NodeCrashEvent> crashes;
    /// Stages whose pooled upload labels arrive scrambled (a bad
    /// labeling batch / adversarial drift), exercising the cloud's
    /// update-validation gate.
    std::vector<int> poisoned_stages;
    /// Probability one durable append/stage persists only a prefix
    /// (the WAL's recovery scan truncates the tail).
    double torn_write_prob = 0.0;
    /// Probability one persisted buffer gains a flipped bit
    /// (detected by the per-record CRC at read time).
    double bit_rot_prob = 0.0;
    /// Probability a snapshot commit dies between writing the tmp
    /// file and the atomic rename (the previous snapshot survives
    /// untouched).
    double crash_mid_commit_prob = 0.0;
    /// Probability a snapshot replace is silently dropped (recovery
    /// sees the previous version).
    double stale_snapshot_prob = 0.0;
    /// Seed of the injector's private random stream.
    uint64_t seed = 0xFA17ULL;

    /**
     * True when any storage fault can fire. Storage draws come from
     * the injector's *separate* storage stream, so enabling them
     * never perturbs the payload loss/corruption replay sequence.
     */
    bool storage_faulty() const;

    /**
     * Is the link inside a flapping down-burst at time @p t? Callers
     * do not get to wait this out — they find out by the transmission
     * failing.
     */
    bool flapping_down(double t) const;

    /** Does @p node crash during @p stage? */
    bool crashes_at(int stage, int node) const;

    /** Are @p stage's upload labels poisoned? */
    bool poisoned_at(int stage) const;

    /**
     * Fatal-checks internal consistency: probabilities in [0, 1],
     * flapping windows ordered and fitting their period. Returns
     * *this for chaining.
     */
    const FaultPlan& validated() const;
};

} // namespace insitu
