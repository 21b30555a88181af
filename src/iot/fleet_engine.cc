#include "iot/fleet_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace insitu {

namespace {

obs::Counter&
fleet_counter(const char* name)
{
    return obs::MetricsRegistry::global().counter(name);
}

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t
fnv_mix(uint64_t digest, uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (value >> (8 * i)) & 0xFF;
        digest *= kFnvPrime;
    }
    return digest;
}

/** Count one event and fold (time bits, node id, kind) into the digest. */
void
fold_event(uint64_t& digest, int64_t& events, double t, uint32_t id,
           uint8_t kind)
{
    ++events;
    uint64_t time_bits = 0;
    static_assert(sizeof(time_bits) == sizeof(t));
    std::memcpy(&time_bits, &t, sizeof(time_bits));
    digest = fnv_mix(fnv_mix(digest, time_bits),
                     (static_cast<uint64_t>(id) << 8) | kind);
}

/// Event kinds, as folded into a shard's digest. At equal times a
/// node's reboot precedes its capture, which precedes its drain.
enum : uint8_t { kRebootEvent = 0, kCaptureEvent = 1, kDrainEvent = 2 };

constexpr int64_t kPpm = 1000000;
constexpr int64_t kGenesisQualityPpm = 350000;

// Node behaviour: every node captures, flags and drains alike.
constexpr double kDrainIntervalS = 60.0;  ///< uplink cadence per node
constexpr int64_t kImagesPerCapture = 24;
/// Baseline fraction of captured images flagged valuable (permille).
constexpr int32_t kFlagPermille = 120;
/// Per-node micro-climate spread applied to kFlagPermille (±, permille).
constexpr int32_t kSeveritySpreadPermille = 200;
constexpr int64_t kLinkCapacity = 16; ///< images per drain window
constexpr int64_t kBacklogCap = 256;  ///< on-device buffer; oldest dropped
static_assert(kDrainIntervalS > 0, "drain interval must be positive");
static_assert(kImagesPerCapture >= 0, "negative capture size");
static_assert(kLinkCapacity >= 1, "link capacity must be positive");
static_assert(kBacklogCap >= kLinkCapacity,
              "backlog cap below one drain window");
static_assert(kFlagPermille >= 0 && kFlagPermille <= 1000 &&
                  kSeveritySpreadPermille >= 0 &&
                  kSeveritySpreadPermille <= 1000,
              "permille constants live in [0, 1000]");

// Derivation salts. Per-node *draws* use the node's own draw counter
// (never these), so the streams stay disjoint: counters in a run stay
// far below the smallest salt.
constexpr uint64_t kValueSalt = 0x56A10000;    ///< per-node upload value
constexpr uint64_t kClimateSalt = 0x5E770000;  ///< per-node flag severity
constexpr uint64_t kPoisonSalt = 0x9015ULL << 32; ///< per-stage poison
constexpr uint64_t kPoisonDepthSalt = 0x0D05ULL << 32;
constexpr uint64_t kCanarySalt = 0xCA7AULL << 32; ///< canary scan start

} // namespace

const ScaleFleetConfig&
ScaleFleetConfig::validated() const
{
    INSITU_CHECK(nodes >= 1, "fleet needs at least one node");
    INSITU_CHECK(nodes <= (int64_t(1) << 31), "node ids are 32-bit");
    INSITU_CHECK(shards >= 0, "negative shard count");
    INSITU_CHECK(stage_window_s > 0, "stage window must be positive");
    const auto permille_ok = [](int32_t p) {
        return p >= 0 && p <= 1000;
    };
    INSITU_CHECK(permille_ok(crash_permille) &&
                     permille_ok(drop_permille) &&
                     permille_ok(poison_permille),
                 "permille knobs live in [0, 1000]");
    INSITU_CHECK(quality_tolerance_ppm >= 0,
                 "negative validation tolerance");
    return *this;
}

int
ScaleFleetConfig::resolved_shards() const
{
    if (shards > 0)
        return static_cast<int>(std::min<int64_t>(shards, nodes));
    const int64_t auto_shards = (nodes + 4095) / 4096;
    return static_cast<int>(
        std::clamp<int64_t>(auto_shards, 1, 256));
}

ScaleFleetEngine::ScaleFleetEngine(ScaleFleetConfig config)
    : config_(config.validated()),
      // The node array is by far the largest allocation; taking it
      // before anything else keeps a rebuilt engine in the same heap
      // hole its predecessor left, so rebuilds do not grow the heap.
      nodes_(static_cast<size_t>(config_.nodes)),
      model_([&] {
          Rng rng(config_.seed);
          return make_tiny_inference(TinyConfig{}, rng);
      }())
{
    for (int64_t i = 0; i < config_.nodes; ++i) {
        // Static per-node upload usefulness in [200, 1000] permille —
        // a pure hash, not a draw, so it never shifts the draw streams.
        nodes_[static_cast<size_t>(i)].value_permille =
            static_cast<uint16_t>(
                200 + derive_stream(config_.seed,
                                    static_cast<uint64_t>(i),
                                    kValueSalt) %
                          801);
    }

    const int nshards = config_.resolved_shards();
    shards_.resize(static_cast<size_t>(nshards));
    for (int s = 0; s < nshards; ++s) {
        Shard& shard = shards_[static_cast<size_t>(s)];
        const ShardRange range =
            shard_range(config_.nodes, nshards, s);
        shard.begin = range.begin;
        shard.end = range.end;
    }

    quality_ppm_ = kGenesisQualityPpm;
    version_ = registry_.commit(
        model_, "genesis",
        static_cast<double>(quality_ppm_) / kPpm, 0);
    deploy_all(version_);
}

uint64_t
ScaleFleetEngine::node_draw(ScaleNode& node, uint32_t id)
{
    // Pure function of (seed, node, ordinal): a node's stream is
    // identical at any shard count and thread width (rule 5).
    return derive_stream(config_.seed, id, node.draws++);
}

void
ScaleFleetEngine::run_shard_stage(Shard& shard, double t0)
{
    shard.events = 0;
    shard.captured = 0;
    shard.flagged = 0;
    shard.delivered = 0;
    shard.value_fixed = 0;
    shard.dropped = 0;
    shard.lost_in_crash = 0;
    shard.crashes = 0;
    shard.excluded = 0;
    shard.backlog = 0;
    shard.newly_quarantined = 0;
    shard.readmitted = 0;
    shard.digest = kFnvOffset;

    // One pass: each owned node steps through its own window in time
    // order. No event reads another node, so node order is free.
    const double jitter_unit = config_.stage_window_s / 1024.0;
    const double window_end = t0 + config_.stage_window_s;
    for (int64_t i = shard.begin; i < shard.end; ++i) {
        ScaleNode& node = nodes_[static_cast<size_t>(i)];
        const uint32_t id = static_cast<uint32_t>(i);
        const double capture_t =
            t0 + static_cast<double>(node_draw(node, id) % 512) *
                     jitter_unit;
        // A node that crashed last stage reboots at the window start.
        if (node.state & kDown) {
            node.state &= static_cast<uint8_t>(~kDown);
            fold_event(shard.digest, shard.events, t0, id, kRebootEvent);
        }
        // Drains carried from earlier stages, then the capture (it
        // wins a tie), then the drains it leaves inside the window.
        while (node.next_drain < capture_t) process_drain(shard, node, id);
        process_capture(shard, node, id, capture_t);
        while (node.next_drain < window_end)
            process_drain(shard, node, id);

        // Stage close: kDown now means exactly "crashed this stage".
        // An up, admitted node with an empty window cannot change state.
        shard.backlog += node.backlog;
        const bool crashed = (node.state & kDown) != 0;
        if (!(crashed | node.window.faults | node.window.quarantined))
            continue;
        const QuarantineTransition t = quarantine_step(node.window, crashed);
        shard.newly_quarantined += t == QuarantineTransition::kQuarantined;
        shard.readmitted += t == QuarantineTransition::kReadmitted;
    }
    shard.quarantined += shard.newly_quarantined - shard.readmitted;
}

void
ScaleFleetEngine::process_capture(Shard& shard, ScaleNode& node,
                                  uint32_t id, double t)
{
    fold_event(shard.digest, shard.events, t, id, kCaptureEvent);
    // Chaos: the capture moment doubles as the per-stage crash draw.
    // The node reboots at the next stage's window start.
    if (config_.crash_permille > 0 &&
        node_draw(node, id) % 1000 <
            static_cast<uint64_t>(config_.crash_permille)) {
        ++shard.crashes;
        shard.lost_in_crash += node.backlog;
        node.backlog = 0;
        node.state |= kDown;
        return;
    }

    // Lazy deploy: adopt the shard watermark (canaries: the candidate
    // under evaluation). Quarantined nodes hold their version —
    // redeploys are suspended until readmission.
    if (!node.window.quarantined) {
        node.version = static_cast<uint32_t>(
            (node.state & kCanary) ? canary_version_
                                   : shard.deployed_version);
    }

    shard.captured += kImagesPerCapture;
    // Flag rate = baseline shifted by the node's static micro-climate
    // (a pure hash), with integer dithering on the remainder so the
    // fleet-wide expectation is exact.
    const uint64_t climate =
        derive_stream(config_.seed, id, kClimateSalt);
    const int32_t severity =
        static_cast<int32_t>(climate % (2 * kSeveritySpreadPermille + 1)) -
        kSeveritySpreadPermille;
    const int64_t rate = std::clamp<int64_t>(
        static_cast<int64_t>(kFlagPermille) * (1000 + severity) / 1000,
        0, 1000);
    const int64_t scaled = kImagesPerCapture * rate;
    int64_t flagged = scaled / 1000;
    if (node_draw(node, id) % 1000 <
        static_cast<uint64_t>(scaled % 1000))
        ++flagged;
    shard.flagged += flagged;
    node.backlog += static_cast<uint32_t>(flagged);
    if (node.backlog > static_cast<uint64_t>(kBacklogCap)) {
        shard.dropped += node.backlog - kBacklogCap;
        node.backlog = static_cast<uint32_t>(kBacklogCap);
    }
    if (node.backlog > 0 && std::isinf(node.next_drain))
        node.next_drain = t + kDrainIntervalS;
}

void
ScaleFleetEngine::process_drain(Shard& shard, ScaleNode& node,
                                uint32_t id)
{
    const double t = node.next_drain;
    node.next_drain = std::numeric_limits<double>::infinity();
    fold_event(shard.digest, shard.events, t, id, kDrainEvent);
    if (node.state & kDown) return;
    const int64_t batch =
        std::min<int64_t>(node.backlog, kLinkCapacity);
    if (batch > 0) {
        const bool lost =
            config_.drop_permille > 0 &&
            node_draw(node, id) % 1000 <
                static_cast<uint64_t>(config_.drop_permille);
        if (lost) {
            shard.dropped += batch;
        } else if (node.window.quarantined) {
            shard.excluded += batch;
        } else {
            shard.delivered += batch;
            shard.value_fixed += batch * node.value_permille;
        }
        node.backlog -= static_cast<uint32_t>(batch);
    }
    // Straggler: keep draining. A drain past the window end simply
    // carries into a later stage.
    if (node.backlog > 0) node.next_drain = t + kDrainIntervalS;
}

void
ScaleFleetEngine::deploy_all(int64_t version)
{
    for (auto& shard : shards_) shard.deployed_version = version;
}

ScaleStageReport
ScaleFleetEngine::run_stage()
{
    const double t0 = clock_s_;
    const int nshards = shards();
    parallel_shards(nshards, [&](int64_t s) {
        run_shard_stage(shards_[static_cast<size_t>(s)], t0);
    });

    // Serial merge fold, ascending shard order (rule 3). Everything
    // from here to the end of the function is single-threaded.
    ScaleStageReport report;
    report.stage = stage_;
    int64_t value_fixed = 0;
    for (const auto& shard : shards_) {
        value_fixed += shard.value_fixed;
        report.events += shard.events;
        report.captured += shard.captured;
        report.flagged += shard.flagged;
        report.delivered += shard.delivered;
        report.dropped += shard.dropped;
        report.lost_in_crash += shard.lost_in_crash;
        report.crashes += shard.crashes;
        report.backlog += shard.backlog;
        report.excluded += shard.excluded;
        report.quarantined += shard.quarantined;
        report.newly_quarantined += shard.newly_quarantined;
        report.readmitted += shard.readmitted;
    }

    if (canary_pending_) judge_canary(report);
    run_cloud_phase(value_fixed, report);

    report.version = version_;
    report.quality_ppm = quality_ppm_;
    events_total_ += report.events;

    char line[320];
    std::snprintf(
        line, sizeof line,
        "stage %d ev=%lld cap=%lld flag=%lld del=%lld drop=%lld "
        "lost=%lld crash=%lld quar=%lld(+%lld/-%lld) excl=%lld "
        "backlog=%lld ver=%lld q=%lld up=%d poison=%d rej=%d "
        "canary=%d%d%d\n",
        report.stage, static_cast<long long>(report.events),
        static_cast<long long>(report.captured),
        static_cast<long long>(report.flagged),
        static_cast<long long>(report.delivered),
        static_cast<long long>(report.dropped),
        static_cast<long long>(report.lost_in_crash),
        static_cast<long long>(report.crashes),
        static_cast<long long>(report.quarantined),
        static_cast<long long>(report.newly_quarantined),
        static_cast<long long>(report.readmitted),
        static_cast<long long>(report.excluded),
        static_cast<long long>(report.backlog),
        static_cast<long long>(report.version),
        static_cast<long long>(report.quality_ppm),
        report.update_ran ? 1 : 0, report.poisoned ? 1 : 0,
        report.rejected ? 1 : 0, report.canary_started ? 1 : 0,
        report.canary_promoted ? 1 : 0,
        report.canary_rolled_back ? 1 : 0);
    transcript_ += line;
    for (size_t s = 0; s < shards_.size(); ++s) {
        const Shard& shard = shards_[s];
        std::snprintf(
            line, sizeof line,
            "  shard %zu nodes=[%lld,%lld) ev=%lld "
            "digest=%016llx\n",
            s, static_cast<long long>(shard.begin),
            static_cast<long long>(shard.end),
            static_cast<long long>(shard.events),
            static_cast<unsigned long long>(shard.digest));
        transcript_ += line;
    }

    const double t_end = t0 + config_.stage_window_s;
    black_box_.record(t_end, "fleet.stage",
                      "stage=" + std::to_string(report.stage) +
                          " ev=" + std::to_string(report.events) +
                          " ver=" + std::to_string(report.version) +
                          " q=" +
                          std::to_string(report.quality_ppm));
    if (report.crashes > 0)
        black_box_.record(t_end, "fleet.crashes",
                          std::to_string(report.crashes));
    if (report.newly_quarantined > 0)
        black_box_.record(
            t_end, "fleet.quarantine",
            "new=" + std::to_string(report.newly_quarantined) +
                " total=" + std::to_string(report.quarantined));
    if (report.readmitted > 0)
        black_box_.record(t_end, "fleet.readmit",
                          std::to_string(report.readmitted));

    static auto& events = fleet_counter("fleet.shard.events");
    static auto& merges = fleet_counter("fleet.shard.merges");
    static auto& stages = fleet_counter("fleet.shard.stages");
    static auto& crashes = fleet_counter("fleet.shard.crashes");
    static auto& quarantines =
        fleet_counter("fleet.shard.quarantines");
    static auto& readmissions =
        fleet_counter("fleet.shard.readmissions");
    events.add(report.events);
    merges.add(nshards);
    stages.add(1);
    crashes.add(report.crashes);
    quarantines.add(report.newly_quarantined);
    readmissions.add(report.readmitted);

    clock_s_ = t_end;
    ++stage_;
    return report;
}

void
ScaleFleetEngine::judge_canary(ScaleStageReport& report)
{
    // The canaries ran the candidate for a full stage; compare their
    // (noisy) observed quality against the control fleet, still on the
    // deployed version. Integer ppm end to end — exact at any width.
    int64_t noise_sum = 0;
    for (const uint32_t id : canary_nodes_) {
        ScaleNode& node = nodes_[id];
        noise_sum +=
            static_cast<int64_t>(node_draw(node, id) % 20001) - 10000;
    }
    const int64_t mean_noise =
        canary_nodes_.empty()
            ? 0
            : noise_sum / static_cast<int64_t>(canary_nodes_.size());
    const int64_t canary_mean = canary_quality_ppm_ + mean_noise;
    const int64_t tolerance = static_cast<int64_t>(
        std::llround(kCanaryAccuracyTolerance * kPpm));
    const double t_end = clock_s_ + config_.stage_window_s;
    report.canary_judged_version = canary_version_;
    if (canary_mean + tolerance >= quality_ppm_) {
        version_ = canary_version_;
        quality_ppm_ = canary_quality_ppm_;
        deploy_all(version_);
        report.canary_promoted = true;
        black_box_.record(t_end, "fleet.canary.promote",
                          "version=" +
                              std::to_string(canary_version_));
        static auto& promotions =
            fleet_counter("fleet.shard.canary_promotions");
        promotions.add(1);
    } else {
        report.canary_rolled_back = true;
        black_box_.record(
            t_end, "fleet.canary.rollback",
            "version=" + std::to_string(canary_version_) +
                " keep=" + std::to_string(version_));
        static auto& rollbacks =
            fleet_counter("fleet.shard.canary_rollbacks");
        rollbacks.add(1);
    }
    clear_canary_flags();
    canary_pending_ = false;
    canary_nodes_.clear();
}

void
ScaleFleetEngine::run_cloud_phase(int64_t value_fixed,
                                  ScaleStageReport& report)
{
    const int64_t images = report.delivered;
    if (images <= 0) return;
    const double t_end = clock_s_ + config_.stage_window_s;
    report.update_ran = true;
    // Integer quality model: the candidate improves on the deployed
    // quality in proportion to the pool's mean upload value and
    // (logarithmically) its size. ppm throughout, so the outcome is
    // exactly invariant to shard count and thread width.
    const int64_t mean_value = value_fixed / images;
    int64_t log2_images = 0;
    for (int64_t x = images; x > 1; x >>= 1) ++log2_images;
    int64_t candidate =
        quality_ppm_ + (kPpm - quality_ppm_) * mean_value *
                           std::min<int64_t>(log2_images, 20) /
                           (1000 * 400);
    const bool poisoned =
        config_.poison_permille > 0 &&
        derive_stream(config_.seed, kPoisonSalt,
                      static_cast<uint64_t>(stage_)) %
                1000 <
            static_cast<uint64_t>(config_.poison_permille);
    if (poisoned) {
        report.poisoned = true;
        candidate =
            quality_ppm_ - 100000 -
            static_cast<int64_t>(
                derive_stream(config_.seed, kPoisonDepthSalt,
                              static_cast<uint64_t>(stage_)) %
                50000);
    }
    candidate = std::clamp<int64_t>(candidate, 0, kPpm);

    // Validation gate: a candidate lagging the deployed quality by
    // more than the tolerance never commits, let alone deploys.
    if (candidate + config_.quality_tolerance_ppm < quality_ppm_) {
        report.rejected = true;
        black_box_.record(t_end, "cloud.update.rejected",
                          "candidate_q=" + std::to_string(candidate));
        static auto& rejects =
            fleet_counter("cloud.shard.rejected_updates");
        rejects.add(1);
        return;
    }

    char tag[32];
    std::snprintf(tag, sizeof tag, "stage-%d", stage_);
    const int64_t committed =
        registry_.commit(model_, tag,
                         static_cast<double>(candidate) / kPpm,
                         images);
    black_box_.record(t_end, "cloud.update.commit",
                      std::string(tag) +
                          " version=" + std::to_string(committed) +
                          " q=" + std::to_string(candidate));
    if (config_.nodes >= 2) {
        start_canary(committed, candidate, report);
    } else {
        version_ = committed;
        quality_ppm_ = candidate;
        deploy_all(committed);
    }
}

void
ScaleFleetEngine::start_canary(int64_t candidate_version,
                               int64_t candidate_quality_ppm,
                               ScaleStageReport& report)
{
    const int64_t n = config_.nodes;
    const int64_t want = std::min<int64_t>(kCanaryNodes, n - 1);
    canary_nodes_.clear();
    const uint64_t scan_start =
        derive_stream(config_.seed, kCanarySalt,
                      static_cast<uint64_t>(stage_)) %
        static_cast<uint64_t>(n);
    for (int64_t step = 0;
         step < n &&
         static_cast<int64_t>(canary_nodes_.size()) < want;
         ++step) {
        const uint32_t id = static_cast<uint32_t>(
            (scan_start + static_cast<uint64_t>(step)) %
            static_cast<uint64_t>(n));
        ScaleNode& node = nodes_[id];
        if ((node.state & kDown) || node.window.quarantined) continue;
        node.state |= kCanary;
        canary_nodes_.push_back(id);
    }
    if (canary_nodes_.empty()) {
        // No healthy canary candidate: deploy fleet-wide (the
        // FleetSupervisor fallback for the same situation).
        version_ = candidate_version;
        quality_ppm_ = candidate_quality_ppm;
        deploy_all(candidate_version);
        return;
    }
    canary_pending_ = true;
    canary_version_ = candidate_version;
    canary_quality_ppm_ = candidate_quality_ppm;
    report.canary_started = true;
    black_box_.record(
        clock_s_ + config_.stage_window_s, "fleet.canary.start",
        "version=" + std::to_string(candidate_version) + " nodes=" +
            std::to_string(canary_nodes_.size()));
    static auto& canaries = fleet_counter("fleet.shard.canaries");
    canaries.add(1);
}

void
ScaleFleetEngine::clear_canary_flags()
{
    for (const uint32_t id : canary_nodes_)
        nodes_[id].state &= static_cast<uint8_t>(~kCanary);
}

int64_t
ScaleFleetEngine::quarantined_nodes() const
{
    int64_t total = 0;
    for (const auto& shard : shards_) total += shard.quarantined;
    return total;
}

int64_t
ScaleFleetEngine::approx_bytes() const
{
    return static_cast<int64_t>(nodes_.capacity() * sizeof(ScaleNode) +
                                shards_.capacity() * sizeof(Shard) +
                                transcript_.capacity());
}

bool
ScaleFleetEngine::rollback_and_redeploy(int64_t to_version)
{
    // O(1) in fleet size: one COW snapshot lookup, one blob restore,
    // one commit, then repointing shards() watermarks. No per-node
    // work — nodes adopt lazily at their next capture.
    const ModelRegistry::Snapshot snap = registry_.snapshot();
    const auto meta = snap.find(to_version);
    if (!meta) return false;
    INSITU_CHECK(snap.restore(to_version, model_),
                 "registry blob failed to restore");
    quality_ppm_ = static_cast<int64_t>(
        std::llround(meta->validation_accuracy * kPpm));
    version_ = registry_.commit(model_, "rollback",
                                meta->validation_accuracy,
                                meta->trained_images);
    if (canary_pending_) {
        clear_canary_flags();
        canary_pending_ = false;
        canary_nodes_.clear();
    }
    deploy_all(version_);
    black_box_.record(clock_s_, "fleet.rollback",
                      "to=" + std::to_string(to_version) +
                          " as=" + std::to_string(version_));
    static auto& rollbacks = fleet_counter("cloud.rollbacks");
    rollbacks.add(1);
    return true;
}

} // namespace insitu
