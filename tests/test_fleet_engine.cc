/**
 * @file
 * Sharded fleet engine: cross-shard merge determinism (byte-identical
 * transcripts at widths 1/2/4 and shard counts 1/8), supervision
 * (quarantine, canary, validation gate) and O(1) rollback — plus the
 * copy-on-write registry snapshot isolation. Event order against a
 * brute-force reference is checked in test_fleet_oracle.cc.
 */
#include <gtest/gtest.h>

#include <vector>

#include "cloud/registry.h"
#include "iot/fleet_engine.h"
#include "models/tiny.h"
#include "nn/serialize.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace insitu {
namespace {

TEST(FleetEngine, AutoShardResolutionIsConfigPure)
{
    ScaleFleetConfig config;
    config.nodes = 10;
    EXPECT_EQ(config.resolved_shards(), 1);
    config.nodes = 100000;
    EXPECT_EQ(config.resolved_shards(), 25);
    config.nodes = 10000000;
    EXPECT_EQ(config.resolved_shards(), 256); // clamped
    config.nodes = 3;
    config.shards = 8;
    EXPECT_EQ(config.resolved_shards(), 3); // never more than nodes
}

ScaleFleetConfig
chaos_config(int64_t nodes)
{
    ScaleFleetConfig config;
    config.nodes = nodes;
    config.seed = 77;
    config.crash_permille = 60;
    config.drop_permille = 80;
    config.poison_permille = 200;
    return config;
}

TEST(FleetEngine, TranscriptByteIdenticalAcrossWidths)
{
    std::string reference;
    std::string reference_flight;
    for (int threads : {1, 2, 4}) {
        set_num_threads(threads);
        ScaleFleetEngine engine(chaos_config(2000));
        for (int s = 0; s < 4; ++s) engine.run_stage();
        if (threads == 1) {
            reference = engine.transcript();
            reference_flight = engine.flight().encode();
            EXPECT_NE(reference.find("digest="), std::string::npos);
        } else {
            EXPECT_EQ(engine.transcript(), reference)
                << "transcript diverged at width " << threads;
            EXPECT_EQ(engine.flight().encode(), reference_flight)
                << "flight dump diverged at width " << threads;
        }
    }
    set_num_threads(0);
}

void
expect_same_reports(const std::vector<ScaleStageReport>& a,
                    const std::vector<ScaleStageReport>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].events, b[i].events) << "stage " << i;
        EXPECT_EQ(a[i].captured, b[i].captured) << "stage " << i;
        EXPECT_EQ(a[i].flagged, b[i].flagged) << "stage " << i;
        EXPECT_EQ(a[i].delivered, b[i].delivered) << "stage " << i;
        EXPECT_EQ(a[i].dropped, b[i].dropped) << "stage " << i;
        EXPECT_EQ(a[i].crashes, b[i].crashes) << "stage " << i;
        EXPECT_EQ(a[i].quarantined, b[i].quarantined) << "stage " << i;
        EXPECT_EQ(a[i].excluded, b[i].excluded) << "stage " << i;
        EXPECT_EQ(a[i].version, b[i].version) << "stage " << i;
        EXPECT_EQ(a[i].quality_ppm, b[i].quality_ppm) << "stage " << i;
        EXPECT_EQ(a[i].rejected, b[i].rejected) << "stage " << i;
        EXPECT_EQ(a[i].canary_promoted, b[i].canary_promoted)
            << "stage " << i;
        EXPECT_EQ(a[i].canary_rolled_back, b[i].canary_rolled_back)
            << "stage " << i;
    }
}

std::vector<ScaleStageReport>
run_stages(ScaleFleetConfig config, int stages)
{
    ScaleFleetEngine engine(config);
    std::vector<ScaleStageReport> reports;
    for (int s = 0; s < stages; ++s)
        reports.push_back(engine.run_stage());
    return reports;
}

TEST(FleetEngine, MergedReportInvariantToFleetShardCount)
{
    ScaleFleetConfig one = chaos_config(1500);
    one.shards = 1;
    ScaleFleetConfig eight = chaos_config(1500);
    eight.shards = 8;
    expect_same_reports(run_stages(one, 4), run_stages(eight, 4));
}

TEST(FleetEngine, QuarantineAndReadmission)
{
    ScaleFleetConfig config;
    config.nodes = 400;
    config.seed = 11;
    config.crash_permille = 450;
    ScaleFleetEngine engine(config);
    int64_t quarantines = 0, readmissions = 0;
    for (int s = 0; s < 10; ++s) {
        const ScaleStageReport report = engine.run_stage();
        quarantines += report.newly_quarantined;
        readmissions += report.readmitted;
        EXPECT_GE(report.quarantined, 0);
        EXPECT_LE(report.quarantined, config.nodes);
    }
    EXPECT_GT(quarantines, 0);
    EXPECT_GT(readmissions, 0);
}

TEST(FleetEngine, CanaryPromotesHealthyUpdate)
{
    ScaleFleetConfig config;
    config.nodes = 500;
    config.seed = 5;
    ScaleFleetEngine engine(config);
    const ScaleStageReport first = engine.run_stage();
    EXPECT_TRUE(first.update_ran);
    EXPECT_TRUE(first.canary_started);
    EXPECT_EQ(first.version, 1); // fleet still on genesis
    const ScaleStageReport second = engine.run_stage();
    EXPECT_TRUE(second.canary_promoted);
    EXPECT_FALSE(second.canary_rolled_back);
    EXPECT_GT(second.version, first.version);
    EXPECT_GT(second.quality_ppm, first.quality_ppm);
}

TEST(FleetEngine, CanaryRollsBackPoisonedUpdate)
{
    ScaleFleetConfig config;
    config.nodes = 500;
    config.seed = 5;
    config.poison_permille = 1000; // every pool poisoned
    // Disarm the validation gate so the bad candidate reaches the
    // canaries — the rollout itself must catch it.
    config.quality_tolerance_ppm = 1000000;
    ScaleFleetEngine engine(config);
    const ScaleStageReport first = engine.run_stage();
    EXPECT_TRUE(first.poisoned);
    EXPECT_TRUE(first.canary_started);
    const ScaleStageReport second = engine.run_stage();
    EXPECT_TRUE(second.canary_rolled_back);
    EXPECT_FALSE(second.canary_promoted);
    EXPECT_EQ(second.version, 1);          // fleet never adopted
    EXPECT_EQ(second.quality_ppm, first.quality_ppm);
}

TEST(FleetEngine, ValidationGateRejectsPoisonedUpdate)
{
    ScaleFleetConfig config;
    config.nodes = 500;
    config.seed = 5;
    config.poison_permille = 1000;
    // Default tolerance: the gate must refuse before any canary runs.
    ScaleFleetEngine engine(config);
    const size_t versions_before = engine.registry().size();
    for (int s = 0; s < 3; ++s) {
        const ScaleStageReport report = engine.run_stage();
        EXPECT_TRUE(report.poisoned);
        EXPECT_TRUE(report.rejected);
        EXPECT_FALSE(report.canary_started);
        EXPECT_EQ(report.version, 1);
    }
    // Rejected candidates never commit.
    EXPECT_EQ(engine.registry().size(), versions_before);
}

TEST(FleetEngine, RollbackAndRedeployRestoresOldVersion)
{
    ScaleFleetConfig config;
    config.nodes = 500;
    config.seed = 5;
    ScaleFleetEngine engine(config);
    for (int s = 0; s < 3; ++s) engine.run_stage();
    EXPECT_GT(engine.version(), 1);
    EXPECT_GT(engine.quality_ppm(), 350000);

    EXPECT_FALSE(engine.rollback_and_redeploy(9999));
    ASSERT_TRUE(engine.rollback_and_redeploy(1));
    EXPECT_EQ(engine.quality_ppm(), 350000); // genesis quality
    const auto latest = engine.registry().latest();
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->tag, "rollback");
    EXPECT_EQ(engine.version(), latest->id);
    // The engine keeps running on the restored lineage.
    const ScaleStageReport next = engine.run_stage();
    EXPECT_GT(next.events, 0);
}

TEST(FleetEngineRegistry, SnapshotIsolatedFromLaterCommits)
{
    Rng rng(3);
    TinyConfig tiny;
    Network net = make_tiny_inference(tiny, rng);
    ModelRegistry registry;
    const int64_t v1 = registry.commit(net, "first", 0.5, 100);

    const ModelRegistry::Snapshot snap = registry.snapshot();
    ASSERT_EQ(snap.size(), 1u);

    Rng rng2(4);
    Network other = make_tiny_inference(tiny, rng2);
    const int64_t v2 = registry.commit(other, "second", 0.6, 200);

    // The earlier snapshot keeps seeing the pre-commit history...
    EXPECT_EQ(snap.size(), 1u);
    EXPECT_FALSE(snap.find(v2).has_value());
    ASSERT_TRUE(snap.latest().has_value());
    EXPECT_EQ(snap.latest()->id, v1);
    // ...while the registry itself moved on.
    EXPECT_EQ(registry.size(), 2u);
    ASSERT_TRUE(registry.latest().has_value());
    EXPECT_EQ(registry.latest()->id, v2);

    // Restoring v1 through the old snapshot yields v1's exact bytes.
    Network restored = make_tiny_inference(tiny, rng2);
    ASSERT_TRUE(snap.restore(v1, restored));
    EXPECT_EQ(save_weights(restored), save_weights(net));
}

} // namespace
} // namespace insitu
