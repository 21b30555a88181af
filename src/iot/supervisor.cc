#include "iot/supervisor.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/codec.h"
#include "util/logging.h"

namespace insitu {

namespace {

obs::Counter&
supervision_counter(const char* name)
{
    return obs::MetricsRegistry::global().counter(name);
}

// Durable supervisor-state framing (payload of a SnapshotStore frame,
// which already carries the CRC; this header pins the layout).
constexpr uint32_t kSupMagic = 0x1A51'70A5u;
// v2: each node's health record is fixed-width, its crash window
// three raw bytes (fault bits, clean streak, quarantined flag).
// v3: the health record drops the last flag rate and accuracy, which
// nothing read.
constexpr uint32_t kSupVersion = 3u;

} // namespace

const char*
breaker_state_name(BreakerState state)
{
    switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
    }
    return "?";
}

void
CircuitBreaker::open(double now_s)
{
    state_ = BreakerState::kOpen;
    retry_at_ = now_s + kBreakerCooldownS;
    consecutive_failures_ = 0;
    half_open_successes_ = 0;
    ++opens_;
    static auto& opens = supervision_counter("iot.breaker.opens");
    opens.add(1);
    obs::TraceRecorder::global().instant_at(now_s, "breaker.open");
}

bool
CircuitBreaker::allow_attempt(double now_s)
{
    if (state_ == BreakerState::kOpen) {
        if (now_s < retry_at_) return false;
        state_ = BreakerState::kHalfOpen;
        half_open_successes_ = 0;
    }
    if (state_ == BreakerState::kHalfOpen) {
        ++probes_;
        static auto& probes =
            supervision_counter("iot.breaker.probes");
        probes.add(1);
    }
    return true;
}

void
CircuitBreaker::on_success(double now_s)
{
    consecutive_failures_ = 0;
    if (state_ == BreakerState::kHalfOpen) {
        if (++half_open_successes_ >= kBreakerProbeSuccesses) {
            state_ = BreakerState::kClosed;
            half_open_successes_ = 0;
            ++closes_;
            static auto& closes =
                supervision_counter("iot.breaker.closes");
            closes.add(1);
            obs::TraceRecorder::global().instant_at(now_s,
                                                    "breaker.close");
        }
    }
}

void
CircuitBreaker::on_failure(double now_s)
{
    if (state_ == BreakerState::kHalfOpen) {
        // The probe failed: the link is still bad, back to open.
        open(now_s);
        return;
    }
    if (state_ == BreakerState::kClosed &&
        ++consecutive_failures_ >= kBreakerFailureThreshold)
        open(now_s);
}

CircuitBreaker::Snapshot
CircuitBreaker::snapshot() const
{
    Snapshot snap;
    snap.state = state_;
    snap.consecutive_failures = consecutive_failures_;
    snap.half_open_successes = half_open_successes_;
    snap.retry_at = retry_at_;
    snap.opens = opens_;
    snap.closes = closes_;
    snap.probes = probes_;
    return snap;
}

void
CircuitBreaker::restore(const Snapshot& snap)
{
    state_ = snap.state;
    consecutive_failures_ = snap.consecutive_failures;
    half_open_successes_ = snap.half_open_successes;
    retry_at_ = snap.retry_at;
    opens_ = snap.opens;
    closes_ = snap.closes;
    probes_ = snap.probes;
}

QuarantineTransition
quarantine_step(QuarantineWindow& window, bool faulted)
{
    constexpr unsigned mask = (1u << kQuarantineWindowStages) - 1;
    window.faults = static_cast<uint8_t>(
        ((static_cast<unsigned>(window.faults) << 1) |
         (faulted ? 1u : 0u)) &
        mask);
    if (!window.quarantined) {
        if (window.fault_count() < kQuarantineCrashThreshold)
            return QuarantineTransition::kNone;
        window.quarantined = 1;
        window.clean_streak = 0;
        return QuarantineTransition::kQuarantined;
    }
    window.clean_streak =
        faulted ? 0 : static_cast<uint8_t>(window.clean_streak + 1);
    if (window.clean_streak < kQuarantineReadmitAfter)
        return QuarantineTransition::kNone;
    window = QuarantineWindow{};
    return QuarantineTransition::kReadmitted;
}

double
NodeHealth::score() const
{
    const double completion =
        (static_cast<double>(stages_completed) + 1.0) /
        (static_cast<double>(stages_seen) + 1.0);
    const double fault_penalty =
        1.0 / (1.0 + static_cast<double>(quarantine.fault_count()) +
               static_cast<double>(restore_failures));
    return completion * fault_penalty;
}

FleetSupervisor::FleetSupervisor(size_t num_nodes)
    : breakers_(num_nodes), health_(num_nodes),
      observations_(num_nodes), observed_(num_nodes, 0)
{
    INSITU_CHECK(num_nodes > 0, "supervisor needs at least one node");
}

CircuitBreaker&
FleetSupervisor::breaker(size_t node)
{
    INSITU_CHECK(node < breakers_.size(), "node index out of range");
    return breakers_[node];
}

const CircuitBreaker&
FleetSupervisor::breaker(size_t node) const
{
    INSITU_CHECK(node < breakers_.size(), "node index out of range");
    return breakers_[node];
}

const NodeHealth&
FleetSupervisor::health(size_t node) const
{
    INSITU_CHECK(node < health_.size(), "node index out of range");
    return health_[node];
}

bool
FleetSupervisor::quarantined(size_t node) const
{
    return health(node).quarantine.quarantined != 0;
}

bool
FleetSupervisor::is_canary(size_t node) const
{
    return canary_.pending &&
           std::find(canary_.nodes.begin(), canary_.nodes.end(),
                     static_cast<int>(node)) != canary_.nodes.end();
}

void
FleetSupervisor::observe(size_t node, const NodeStageObservation& obs)
{
    INSITU_CHECK(node < health_.size(), "node index out of range");
    observations_[node] = obs;
    observed_[node] = 1;
}

SupervisorStageDecisions
FleetSupervisor::end_stage(int stage)
{
    SupervisorStageDecisions decisions;

    // 1. Health + quarantine transitions, node-ascending.
    for (size_t i = 0; i < health_.size(); ++i) {
        if (!observed_[i]) continue;
        const NodeStageObservation& obs = observations_[i];
        NodeHealth& h = health_[i];
        ++h.stages_seen;
        const bool faulted = obs.crashed || obs.restore_failed;
        if (obs.crashed) ++h.crashes;
        if (obs.restore_failed) ++h.restore_failures;
        if (!faulted) ++h.stages_completed;
        const QuarantineTransition t =
            quarantine_step(h.quarantine, faulted);
        if (t == QuarantineTransition::kNone) continue;
        const bool entered = t == QuarantineTransition::kQuarantined;
        (entered ? decisions.newly_quarantined : decisions.readmitted)
            .push_back(static_cast<int>(i));
        supervision_counter(entered ? "iot.supervisor.quarantines"
                                    : "iot.supervisor.readmissions")
            .add(1);
        obs::TraceRecorder::global().instant(
            entered ? "supervisor.quarantine" : "supervisor.readmit",
            {{"node", std::to_string(i)},
             {"stage", std::to_string(stage)}});
    }

    // 2. Judge a pending canary: the canaries (new model) against the
    // non-quarantined controls (baseline model) on this stage's data.
    // With no surviving control, fall back to the recorded pre-update
    // baseline. With no surviving canary the judgment defers to the
    // next stage.
    if (canary_.pending) {
        double canary_acc = 0, canary_flag = 0;
        double control_acc = 0, control_flag = 0;
        int canaries = 0, controls = 0;
        for (size_t i = 0; i < health_.size(); ++i) {
            if (!observed_[i] || !observations_[i].has_accuracy)
                continue;
            if (is_canary(i)) {
                canary_acc += observations_[i].accuracy;
                canary_flag += observations_[i].flag_rate;
                ++canaries;
            } else if (!health_[i].quarantine.quarantined) {
                control_acc += observations_[i].accuracy;
                control_flag += observations_[i].flag_rate;
                ++controls;
            }
        }
        if (canaries > 0) {
            canary_acc /= canaries;
            canary_flag /= canaries;
            const double base_acc = controls > 0
                                        ? control_acc / controls
                                        : canary_.baseline_accuracy;
            const double base_flag = controls > 0
                                         ? control_flag / controls
                                         : canary_.baseline_flag_rate;
            decisions.canary_judged = true;
            decisions.canary_version = canary_.accepted_version;
            const bool healthy =
                canary_acc + kCanaryAccuracyTolerance >= base_acc &&
                canary_flag <=
                    base_flag + kCanaryFlagRateTolerance;
            if (healthy) {
                decisions.canary_promoted = true;
                static auto& promotions = supervision_counter(
                    "iot.supervisor.canary_promotions");
                promotions.add(1);
                obs::TraceRecorder::global().instant(
                    "supervisor.canary.promoted",
                    {{"version",
                      std::to_string(canary_.accepted_version)},
                     {"stage", std::to_string(stage)}});
            } else {
                decisions.canary_rolled_back = true;
                decisions.rollback_version = canary_.baseline_version;
                static auto& rollbacks = supervision_counter(
                    "iot.supervisor.canary_rollbacks");
                rollbacks.add(1);
                obs::TraceRecorder::global().instant(
                    "supervisor.canary.rolled_back",
                    {{"version",
                      std::to_string(canary_.accepted_version)},
                     {"stage", std::to_string(stage)}});
            }
            canary_ = CanaryRollout{};
        }
    }

    std::fill(observed_.begin(), observed_.end(), 0);
    return decisions;
}

std::vector<int>
FleetSupervisor::pick_canaries() const
{
    std::vector<int> healthy;
    for (size_t i = 0; i < health_.size(); ++i)
        if (!health_[i].quarantine.quarantined)
            healthy.push_back(static_cast<int>(i));
    if (healthy.size() < 2) return {}; // no control group possible
    std::sort(healthy.begin(), healthy.end(), [this](int a, int b) {
        const double sa = health_[static_cast<size_t>(a)].score();
        const double sb = health_[static_cast<size_t>(b)].score();
        if (sa != sb) return sa > sb;
        return a < b;
    });
    const size_t take =
        std::min(static_cast<size_t>(kCanaryNodes),
                 healthy.size() - 1); // keep >= 1 control
    healthy.resize(take);
    std::sort(healthy.begin(), healthy.end());
    return healthy;
}

std::string
FleetSupervisor::encode_state() const
{
    std::string out;
    storage::put_u32(out, kSupMagic);
    storage::put_u32(out, kSupVersion);
    storage::put_u64(out, health_.size());
    for (size_t i = 0; i < health_.size(); ++i) {
        const CircuitBreaker::Snapshot b = breakers_[i].snapshot();
        storage::put_u32(out, static_cast<uint32_t>(b.state));
        storage::put_i64(out, b.consecutive_failures);
        storage::put_i64(out, b.half_open_successes);
        storage::put_f64(out, b.retry_at);
        storage::put_i64(out, b.opens);
        storage::put_i64(out, b.closes);
        storage::put_i64(out, b.probes);

        const NodeHealth& h = health_[i];
        storage::put_i64(out, h.stages_seen);
        storage::put_i64(out, h.stages_completed);
        storage::put_i64(out, h.crashes);
        storage::put_i64(out, h.restore_failures);
        out.push_back(static_cast<char>(h.quarantine.faults));
        out.push_back(static_cast<char>(h.quarantine.clean_streak));
        out.push_back(static_cast<char>(h.quarantine.quarantined));
    }
    storage::put_u32(out, canary_.pending ? 1u : 0u);
    storage::put_i64(out, canary_.started_stage);
    storage::put_u64(out, canary_.nodes.size());
    for (int n : canary_.nodes) storage::put_i64(out, n);
    storage::put_i64(out, canary_.accepted_version);
    storage::put_i64(out, canary_.baseline_version);
    storage::put_f64(out, canary_.baseline_accuracy);
    storage::put_f64(out, canary_.baseline_flag_rate);
    return out;
}

bool
FleetSupervisor::restore_state(std::string_view blob)
{
    storage::Reader r(blob);
    if (r.u32() != kSupMagic || r.u32() != kSupVersion || !r.ok)
        return false;
    if (r.u64() != health_.size() || !r.ok) return false;

    // Decode into temporaries so a torn payload changes nothing.
    std::vector<CircuitBreaker::Snapshot> breakers(health_.size());
    std::vector<NodeHealth> health(health_.size());
    for (size_t i = 0; i < health.size(); ++i) {
        CircuitBreaker::Snapshot& b = breakers[i];
        const uint32_t state = r.u32();
        if (state > 2) return false;
        b.state = static_cast<BreakerState>(state);
        b.consecutive_failures = static_cast<int>(r.i64());
        b.half_open_successes = static_cast<int>(r.i64());
        b.retry_at = r.f64();
        b.opens = r.i64();
        b.closes = r.i64();
        b.probes = r.i64();

        NodeHealth& h = health[i];
        h.stages_seen = r.i64();
        h.stages_completed = r.i64();
        h.crashes = r.i64();
        h.restore_failures = r.i64();
        const std::string_view window = r.view(3);
        if (!r.ok) return false;
        QuarantineWindow& w = h.quarantine;
        w.faults = static_cast<uint8_t>(window[0]);
        w.clean_streak = static_cast<uint8_t>(window[1]);
        w.quarantined = static_cast<uint8_t>(window[2]);
        // Refuse a window quarantine_step could never have produced.
        if (w.quarantined > 1 ||
            (w.faults >> kQuarantineWindowStages) != 0 ||
            w.clean_streak >= (w.quarantined ? kQuarantineReadmitAfter : 1))
            return false;
    }
    CanaryRollout canary;
    canary.pending = r.u32() != 0;
    canary.started_stage = static_cast<int>(r.i64());
    const uint64_t canaries = r.u64();
    if (!r.ok || canaries > blob.size()) return false;
    for (uint64_t k = 0; k < canaries; ++k)
        canary.nodes.push_back(static_cast<int>(r.i64()));
    canary.accepted_version = r.i64();
    canary.baseline_version = r.i64();
    canary.baseline_accuracy = r.f64();
    canary.baseline_flag_rate = r.f64();
    if (!r.ok || r.remaining() != 0) return false;

    for (size_t i = 0; i < health_.size(); ++i)
        breakers_[i].restore(breakers[i]);
    health_ = std::move(health);
    canary_ = std::move(canary);
    std::fill(observed_.begin(), observed_.end(), 0);
    return true;
}

void
FleetSupervisor::start_canary(int stage, std::vector<int> nodes,
                              int64_t accepted_version,
                              int64_t baseline_version,
                              double baseline_accuracy,
                              double baseline_flag_rate)
{
    INSITU_CHECK(!canary_.pending,
                 "a canary rollout is already in flight");
    INSITU_CHECK(!nodes.empty(), "canary subset must be non-empty");
    canary_.pending = true;
    canary_.started_stage = stage;
    canary_.nodes = std::move(nodes);
    canary_.accepted_version = accepted_version;
    canary_.baseline_version = baseline_version;
    canary_.baseline_accuracy = baseline_accuracy;
    canary_.baseline_flag_rate = baseline_flag_rate;
}

} // namespace insitu
