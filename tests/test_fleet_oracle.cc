/**
 * @file
 * Brute-force reference for `ScaleFleetEngine`. One global event list
 * for the whole fleet, ordered by (time, node, kind), with no shards
 * and no per-node windows; the integer cloud phase (quality model,
 * poison, validation gate, canary scan and verdict, version ids,
 * rollback) is restated from scratch. Over seeded random configs —
 * including windows shorter than the drain interval, where a drain
 * carries across several stages — every `ScaleStageReport` field must
 * equal the engine's at every stage.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "iot/fleet_engine.h"
#include "util/parallel.h"

namespace insitu {
namespace {

// Restated from fleet_engine.cc: node constants and derivation salts.
constexpr int64_t kPpm = 1000000;
constexpr double kDrainIntervalS = 60.0;
constexpr int64_t kImagesPerCapture = 24;
constexpr int64_t kFlagPermille = 120;
constexpr int64_t kSeveritySpreadPermille = 200;
constexpr int64_t kLinkCapacity = 16;
constexpr int64_t kBacklogCap = 256;
constexpr uint64_t kValueSalt = 0x56A10000;
constexpr uint64_t kClimateSalt = 0x5E770000;
constexpr uint64_t kPoisonSalt = 0x9015ULL << 32;
constexpr uint64_t kPoisonDepthSalt = 0x0D05ULL << 32;
constexpr uint64_t kCanarySalt = 0xCA7AULL << 32;

enum Kind { kReboot = 0, kCapture = 1, kDrain = 2 };

struct RefNode {
    int64_t backlog = 0;
    uint64_t draws = 0;
    int64_t value = 0;
    QuarantineWindow window;
    bool down = false, canary = false, drain_queued = false;
};

class FleetOracle {
  public:
    explicit FleetOracle(const ScaleFleetConfig& c)
        : c_(c), nodes_(static_cast<size_t>(c.nodes))
    {
        for (int64_t i = 0; i < c_.nodes; ++i)
            nodes_[i].value = 200 + static_cast<int64_t>(
                derive_stream(c_.seed, i, kValueSalt) % 801);
        quality_ = 350000;
        version_ = commit(double(quality_) / kPpm);
    }

    ScaleStageReport run_stage()
    {
        ScaleStageReport r;
        r.stage = stage_;
        const double end = clock_ + c_.stage_window_s;
        for (int64_t i = 0; i < c_.nodes; ++i)
            events_.insert({clock_ + static_cast<double>(draw(i) % 512) *
                                         (c_.stage_window_s / 1024.0),
                            i, kCapture});
        int64_t value = 0; // delivered batch * node value, summed
        while (!events_.empty() && std::get<0>(*events_.begin()) < end) {
            const auto [t, id, kind] = *events_.begin();
            events_.erase(events_.begin());
            ++r.events;
            RefNode& n = nodes_[id];
            if (kind == kReboot) {
                n.down = false;
            } else if (kind == kCapture && !n.down) {
                if (c_.crash_permille > 0 &&
                    draw(id) % 1000 < uint64_t(c_.crash_permille)) {
                    ++r.crashes;
                    r.lost_in_crash += n.backlog;
                    n.backlog = 0;
                    n.down = true;
                    events_.insert({end, id, kReboot});
                    continue;
                }
                r.captured += kImagesPerCapture;
                const int64_t severity =
                    int64_t(derive_stream(c_.seed, id, kClimateSalt) %
                            (2 * kSeveritySpreadPermille + 1)) -
                    kSeveritySpreadPermille;
                const int64_t scaled =
                    kImagesPerCapture *
                    std::clamp<int64_t>(
                        kFlagPermille * (1000 + severity) / 1000, 0, 1000);
                const int64_t flagged =
                    scaled / 1000 + (draw(id) % 1000 < uint64_t(scaled % 1000));
                r.flagged += flagged;
                n.backlog += flagged;
                r.dropped += std::max<int64_t>(n.backlog - kBacklogCap, 0);
                n.backlog = std::min(n.backlog, kBacklogCap);
                if (n.backlog > 0 && !n.drain_queued) {
                    n.drain_queued = true;
                    events_.insert({t + kDrainIntervalS, id, kDrain});
                }
            } else if (kind == kDrain) {
                n.drain_queued = false;
                if (n.down) continue;
                const int64_t batch = std::min(n.backlog, kLinkCapacity);
                if (batch > 0) {
                    if (c_.drop_permille > 0 &&
                        draw(id) % 1000 < uint64_t(c_.drop_permille)) {
                        r.dropped += batch;
                    } else if (n.window.quarantined) {
                        r.excluded += batch;
                    } else {
                        r.delivered += batch;
                        value += batch * n.value;
                    }
                    n.backlog -= batch;
                }
                if (n.backlog > 0) {
                    n.drain_queued = true;
                    events_.insert({t + kDrainIntervalS, id, kDrain});
                }
            }
        }
        for (RefNode& n : nodes_) {
            r.backlog += n.backlog;
            const QuarantineTransition step =
                quarantine_step(n.window, n.down);
            r.newly_quarantined += step == QuarantineTransition::kQuarantined;
            r.readmitted += step == QuarantineTransition::kReadmitted;
            r.quarantined += n.window.quarantined;
        }
        if (!canaries_.empty()) judge(r);
        if (r.delivered > 0) cloud(r, value);
        r.version = version_;
        r.quality_ppm = quality_;
        clock_ = end;
        ++stage_;
        return r;
    }

    bool rollback(int64_t to)
    {
        if (to < 1 || to > int64_t(accuracy_.size())) return false;
        const double acc = accuracy_[to - 1];
        quality_ = std::llround(acc * kPpm);
        version_ = commit(acc);
        clear_canaries();
        return true;
    }

  private:
    uint64_t draw(int64_t id)
    {
        return derive_stream(c_.seed, id, nodes_[id].draws++);
    }
    int64_t commit(double accuracy)
    {
        accuracy_.push_back(accuracy);
        return int64_t(accuracy_.size());
    }
    void clear_canaries()
    {
        for (int64_t id : canaries_) nodes_[id].canary = false;
        canaries_.clear();
    }

    void judge(ScaleStageReport& r)
    {
        int64_t noise = 0;
        for (int64_t id : canaries_) noise += int64_t(draw(id) % 20001) - 10000;
        const int64_t mean =
            canary_quality_ + noise / int64_t(canaries_.size());
        const int64_t tolerance =
            std::llround(kCanaryAccuracyTolerance * kPpm);
        r.canary_judged_version = canary_version_;
        if (mean + tolerance >= quality_) {
            version_ = canary_version_;
            quality_ = canary_quality_;
            r.canary_promoted = true;
        } else {
            r.canary_rolled_back = true;
        }
        clear_canaries();
    }

    void cloud(ScaleStageReport& r, int64_t value)
    {
        const int64_t images = r.delivered;
        r.update_ran = true;
        int64_t log2 = 0;
        for (int64_t x = images; x > 1; x >>= 1) ++log2;
        int64_t candidate = quality_ + (kPpm - quality_) * (value / images) *
                                           std::min<int64_t>(log2, 20) / 400000;
        const uint64_t s = uint64_t(stage_);
        if (c_.poison_permille > 0 &&
            derive_stream(c_.seed, kPoisonSalt, s) % 1000 <
                uint64_t(c_.poison_permille)) {
            r.poisoned = true;
            candidate = quality_ - 100000 -
                        int64_t(derive_stream(c_.seed, kPoisonDepthSalt, s) %
                                50000);
        }
        candidate = std::clamp<int64_t>(candidate, 0, kPpm);
        if (candidate + c_.quality_tolerance_ppm < quality_) {
            r.rejected = true;
            return;
        }
        const int64_t v = commit(double(candidate) / kPpm);
        const int64_t n = c_.nodes;
        const int64_t want = std::min<int64_t>(kCanaryNodes, n - 1);
        const uint64_t start =
            derive_stream(c_.seed, kCanarySalt, s) % uint64_t(n);
        for (int64_t k = 0; k < n && int64_t(canaries_.size()) < want; ++k) {
            const int64_t id = int64_t((start + uint64_t(k)) % uint64_t(n));
            if (nodes_[id].down || nodes_[id].window.quarantined) continue;
            nodes_[id].canary = true;
            canaries_.push_back(id);
        }
        if (canaries_.empty()) {
            version_ = v;
            quality_ = candidate;
            return;
        }
        r.canary_started = true;
        canary_version_ = v;
        canary_quality_ = candidate;
    }

    ScaleFleetConfig c_;
    std::vector<RefNode> nodes_;
    std::multiset<std::tuple<double, int64_t, int>> events_;
    std::vector<double> accuracy_; ///< validation accuracy of version k+1
    std::vector<int64_t> canaries_;
    int stage_ = 0;
    double clock_ = 0;
    int64_t version_ = 0, quality_ = 0;
    int64_t canary_version_ = 0, canary_quality_ = 0;
};

void
expect_same(const ScaleStageReport& a, const ScaleStageReport& b)
{
#define SAME(f) EXPECT_EQ(a.f, b.f) << "field " #f << " at stage " << a.stage
    SAME(stage); SAME(events); SAME(captured); SAME(flagged);
    SAME(delivered); SAME(dropped); SAME(lost_in_crash); SAME(crashes);
    SAME(backlog); SAME(quarantined); SAME(newly_quarantined);
    SAME(readmitted); SAME(excluded); SAME(update_ran); SAME(poisoned);
    SAME(rejected); SAME(canary_started); SAME(canary_promoted);
    SAME(canary_rolled_back); SAME(canary_judged_version); SAME(version);
    SAME(quality_ppm);
#undef SAME
}

TEST(FleetOracle, EngineMatchesBruteForceOverRandomConfigs)
{
    constexpr int kConfigs = 200;
    int rollbacks = 0;
    ScaleStageReport seen; // tallies across every config
    for (int k = 0; k < kConfigs; ++k) {
        const auto pick = [k](uint64_t field, uint64_t range) {
            return derive_stream(0x0AC1E, uint64_t(k), field) % range;
        };
        ScaleFleetConfig c;
        // Log-uniform-ish sizes: every decade from 1 to 1000 is hit.
        c.nodes = 1 + int64_t(pick(1, 1000) >> (pick(2, 4) * 3));
        c.shards = std::array<int, 5>{0, 1, 2, 3, 7}[pick(3, 5)];
        // Under 60 s a drain carries across stages; at 13 s a drain can
        // leave a backlog behind, re-drained inside the run.
        c.stage_window_s =
            std::array<double, 7>{13, 20, 45, 60, 61, 600, 1000}[pick(4, 7)];
        c.crash_permille = int32_t(pick(5, 401));
        c.drop_permille = int32_t(pick(6, 401));
        c.poison_permille = int32_t(pick(7, 401));
        c.quality_tolerance_ppm =
            std::array<int64_t, 4>{0, 20000, 200000, kPpm}[pick(13, 4)];
        c.seed = 1 + pick(14, 1u << 30);
        const int stages = 8 + int(pick(15, 5));
        const int rollback_at = k % 3 == 0 ? 2 + int(pick(16, 5)) : -1;
        SCOPED_TRACE("config " + std::to_string(k) + ": nodes=" +
                     std::to_string(c.nodes) + " shards=" +
                     std::to_string(c.shards) + " window=" +
                     std::to_string(c.stage_window_s));

        ScaleFleetEngine engine(c);
        FleetOracle oracle(c);
        for (int s = 0; s < stages; ++s) {
            if (s == rollback_at) {
                const int64_t to =
                    1 + int64_t(pick(17, engine.registry().size() + 1));
                const bool ok = engine.rollback_and_redeploy(to);
                ASSERT_EQ(ok, oracle.rollback(to));
                rollbacks += ok;
            }
            const ScaleStageReport r = engine.run_stage();
            expect_same(r, oracle.run_stage());
            if (HasFailure()) return;
            seen.crashes += r.crashes;
            seen.readmitted += r.readmitted;
            seen.excluded += r.excluded;
            seen.rejected |= r.rejected;
            seen.canary_promoted |= r.canary_promoted;
            seen.canary_rolled_back |= r.canary_rolled_back;
        }
    }
    // Every path the reports can show was exercised.
    EXPECT_GT(rollbacks, kConfigs / 6);
    EXPECT_GT(seen.crashes, 0);
    EXPECT_GT(seen.readmitted, 0);
    EXPECT_GT(seen.excluded, 0);
    EXPECT_TRUE(seen.rejected && seen.canary_promoted &&
                seen.canary_rolled_back);
}

} // namespace
} // namespace insitu
