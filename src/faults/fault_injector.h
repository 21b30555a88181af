/**
 * @file
 * Seeded, deterministic fault injection.
 *
 * A FaultInjector turns a FaultPlan into concrete per-event decisions:
 * Bernoulli draws for payload loss/corruption from one private Rng,
 * pure lookups for flapping windows, crash and poison events, and
 * storage-fault draws from a second, isolated stream. Because
 * every stochastic decision comes from the injector's own seeded
 * stream and callers query it in a deterministic order, an entire
 * chaos run replays bit-identically from (config seed, plan seed).
 *
 * The injector also keeps a FaultLog of everything it injected, so
 * resilience reports can separate "faults thrown at the system" from
 * "damage the system actually took".
 */
#pragma once

#include "faults/fault_plan.h"
#include "util/rng.h"

namespace insitu {

/** Tally of the faults an injector has materialized. */
struct FaultLog {
    int64_t payloads_lost = 0;      ///< transmissions with no ack
    int64_t payloads_corrupted = 0; ///< transmissions with bad bits
    int64_t flapping_failures = 0;  ///< attempts eaten by a flap burst
    int64_t crashes = 0;            ///< node reboot events fired
    int64_t poisoned_updates = 0;   ///< poisoned stages fired
    int64_t torn_writes = 0;        ///< durable writes cut to a prefix
    int64_t bit_rots = 0;           ///< persisted buffers bit-flipped
    int64_t mid_commit_crashes = 0; ///< snapshot renames that never ran
    int64_t stale_snapshots = 0;    ///< snapshot replaces silently lost
};

/** Decides, reproducibly, which planned faults actually happen. */
class FaultInjector {
  public:
    explicit FaultInjector(FaultPlan plan);

    const FaultPlan& plan() const { return plan_; }
    const FaultLog& log() const { return log_; }

    /**
     * Does a transmission starting at @p t die in a flapping
     * down-burst? A pure function of the plan and @p t (no draw
     * consumed), but logged — the sender only learns by the missing
     * ack.
     */
    bool transmission_flapped(double t);

    /**
     * Draw: does this transmission attempt vanish in flight?
     * Consumes one uniform from the injector stream either way.
     */
    bool drop_payload();

    /**
     * Draw: does this transmission arrive bit-flipped? The receiver
     * NACKs a corrupted payload.
     */
    bool corrupt_payload();

    /** Fire (and log) a planned crash of @p node at @p stage. */
    bool node_crashes(int stage, int node);

    /** Fire (and log) a planned poisoned update at @p stage. */
    bool update_poisoned(int stage);

    // Storage faults (consumed by storage::FaultyFile). These draw
    // from a *separate* seeded stream, so attaching storage faults to
    // a plan never perturbs the payload loss/corruption replay
    // sequence — and a plan whose storage probabilities are all zero
    // consumes no storage draws at all. Storage writes happen only on
    // the serial side of the fleet's phases, so the draw order is
    // replay-stable.

    /** Draw: does this durable write persist only a prefix? */
    bool torn_write();

    /** Draw: does this persisted buffer gain a flipped bit? */
    bool bit_rot();

    /** Draw: does the process die before the snapshot rename? */
    bool crash_mid_commit();

    /** Draw: is this snapshot replace silently dropped? */
    bool stale_snapshot();

    /**
     * Deterministic uniform in [0, n) from the storage stream, used
     * to place a tear or a flipped bit inside a faulted buffer.
     * @p n must be > 0.
     */
    uint64_t storage_cut(uint64_t n);

  private:
    FaultPlan plan_;
    Rng rng_;
    Rng storage_rng_;
    FaultLog log_;
};

} // namespace insitu
