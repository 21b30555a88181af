#include "faults/fault_injector.h"

#include "obs/metrics.h"

namespace insitu {

namespace {

/// One `faults.injected.<kind>` counter per fault kind. Counters are
/// parallel-safe; crash draws happen during the serial pre-phase and
/// the rest during the serial drains, but the instrument does not
/// care either way.
obs::Counter&
fault_counter(const char* kind)
{
    return obs::MetricsRegistry::global().counter(
        std::string("faults.injected.") + kind);
}

} // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed),
      storage_rng_(plan_.seed ^ 0x5704A6EULL)
{
    plan_.validated();
}

bool
FaultInjector::transmission_flapped(double t)
{
    const bool flapped = plan_.flapping_down(t);
    if (flapped) {
        ++log_.flapping_failures;
        static auto& c = fault_counter("flapping");
        c.add(1);
    }
    return flapped;
}

bool
FaultInjector::drop_payload()
{
    const bool lost = rng_.bernoulli(plan_.payload_loss_prob);
    if (lost) {
        ++log_.payloads_lost;
        static auto& c = fault_counter("payload_loss");
        c.add(1);
    }
    return lost;
}

bool
FaultInjector::corrupt_payload()
{
    const bool corrupted = rng_.bernoulli(plan_.payload_corrupt_prob);
    if (corrupted) {
        ++log_.payloads_corrupted;
        static auto& c = fault_counter("payload_corrupt");
        c.add(1);
    }
    return corrupted;
}

bool
FaultInjector::node_crashes(int stage, int node)
{
    const bool crash = plan_.crashes_at(stage, node);
    if (crash) {
        ++log_.crashes;
        static auto& c = fault_counter("node_crash");
        c.add(1);
    }
    return crash;
}

bool
FaultInjector::update_poisoned(int stage)
{
    const bool poisoned = plan_.poisoned_at(stage);
    if (poisoned) {
        ++log_.poisoned_updates;
        static auto& c = fault_counter("update_poison");
        c.add(1);
    }
    return poisoned;
}

bool
FaultInjector::torn_write()
{
    // A zero probability consumes no draw, so plans without storage
    // faults keep the storage stream untouched.
    if (plan_.torn_write_prob == 0.0) return false;
    const bool torn = storage_rng_.bernoulli(plan_.torn_write_prob);
    if (torn) {
        ++log_.torn_writes;
        static auto& c = fault_counter("torn_write");
        c.add(1);
    }
    return torn;
}

bool
FaultInjector::bit_rot()
{
    if (plan_.bit_rot_prob == 0.0) return false;
    const bool rot = storage_rng_.bernoulli(plan_.bit_rot_prob);
    if (rot) {
        ++log_.bit_rots;
        static auto& c = fault_counter("bit_rot");
        c.add(1);
    }
    return rot;
}

bool
FaultInjector::crash_mid_commit()
{
    if (plan_.crash_mid_commit_prob == 0.0) return false;
    const bool crash =
        storage_rng_.bernoulli(plan_.crash_mid_commit_prob);
    if (crash) {
        ++log_.mid_commit_crashes;
        static auto& c = fault_counter("crash_mid_commit");
        c.add(1);
    }
    return crash;
}

bool
FaultInjector::stale_snapshot()
{
    if (plan_.stale_snapshot_prob == 0.0) return false;
    const bool stale =
        storage_rng_.bernoulli(plan_.stale_snapshot_prob);
    if (stale) {
        ++log_.stale_snapshots;
        static auto& c = fault_counter("stale_snapshot");
        c.add(1);
    }
    return stale;
}

uint64_t
FaultInjector::storage_cut(uint64_t n)
{
    return storage_rng_.next_below(n);
}

} // namespace insitu
