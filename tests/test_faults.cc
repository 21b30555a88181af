/**
 * @file
 * Tests for the fault-injection subsystem and the resilience it
 * exercises: deterministic replay, flap/loss/corruption handling in
 * the uplink, bounded backlogs, node crash/restore, the cloud's
 * update-validation gate and the fleet's uplink conservation.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "cloud/update_service.h"
#include "faults/fault_injector.h"
#include "iot/fleet.h"
#include "iot/uplink.h"

namespace insitu {
namespace {

TEST(FaultPlan, PureQueriesAndEmptiness)
{
    FaultPlan plan;
    plan.crashes = {{2, 1}};
    plan.poisoned_stages = {3};

    EXPECT_TRUE(plan.crashes_at(2, 1));
    EXPECT_FALSE(plan.crashes_at(2, 0));
    EXPECT_FALSE(plan.crashes_at(1, 1));
    EXPECT_TRUE(plan.poisoned_at(3));
    EXPECT_FALSE(plan.poisoned_at(2));
}

TEST(FaultPlan, FlappingWindowsCycleInsideTheirRange)
{
    FaultPlan plan;
    plan.flapping = {{10.0, 50.0, 10.0, 4.0}};
    plan.validated();

    // Before/after the window the link never flaps.
    EXPECT_FALSE(plan.flapping_down(9.9));
    EXPECT_FALSE(plan.flapping_down(50.0));
    // Inside: down for the first 4 s of every 10 s cycle.
    EXPECT_TRUE(plan.flapping_down(10.0));
    EXPECT_TRUE(plan.flapping_down(13.9));
    EXPECT_FALSE(plan.flapping_down(14.0));
    EXPECT_FALSE(plan.flapping_down(19.9));
    EXPECT_TRUE(plan.flapping_down(20.0));
    EXPECT_TRUE(plan.flapping_down(43.0));
    EXPECT_FALSE(plan.flapping_down(45.0));
}

TEST(FaultInjector, FlappingIsPureButLogged)
{
    FaultPlan plan;
    plan.flapping = {{0.0, 100.0, 10.0, 4.0}};
    plan.payload_loss_prob = 0.3;
    plan.seed = 5;
    FaultInjector with_flaps(plan);
    FaultInjector control(plan);

    // Flap queries consume no draw from the injector stream: the
    // Bernoulli sequence must stay aligned with a control injector
    // that never asks. (This is what keeps pre-flapping plans
    // replaying bit-identically.)
    for (int i = 0; i < 100; ++i) {
        const double t = static_cast<double>(i);
        EXPECT_EQ(with_flaps.transmission_flapped(t),
                  plan.flapping_down(t));
        EXPECT_EQ(with_flaps.drop_payload(), control.drop_payload());
    }
    // ...but every eaten attempt is logged.
    EXPECT_EQ(with_flaps.log().flapping_failures, 40);
    EXPECT_EQ(control.log().flapping_failures, 0);
}

TEST(FaultInjector, SameSeedSameDraws)
{
    FaultPlan plan;
    plan.payload_loss_prob = 0.3;
    plan.payload_corrupt_prob = 0.2;
    plan.seed = 77;
    FaultInjector a(plan);
    FaultInjector b(plan);
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.drop_payload(), b.drop_payload());
        EXPECT_EQ(a.corrupt_payload(), b.corrupt_payload());
    }
    EXPECT_EQ(a.log().payloads_lost, b.log().payloads_lost);
    EXPECT_EQ(a.log().payloads_corrupted, b.log().payloads_corrupted);
    EXPECT_GT(a.log().payloads_lost, 0);
    EXPECT_GT(a.log().payloads_corrupted, 0);
}

TEST(UplinkQueue, RetransmitsDeliverEverything)
{
    FaultPlan plan;
    plan.payload_loss_prob = 0.25;
    plan.payload_corrupt_prob = 0.15;
    plan.seed = 9;
    FaultInjector injector(plan);

    LinkSpec link = lan_uplink_spec();
    link.bandwidth_bps = 8e6; // 1 ms per 1000-byte payload
    UplinkQueue queue(link, 1000.0);
    queue.set_fault_injector(&injector);
    queue.enqueue(60, 0.0);
    EXPECT_EQ(queue.drain_window(0.0, 1e6), 60);
    EXPECT_EQ(queue.backlog(), 0);
    EXPECT_EQ(queue.stats().dropped, 0);
    EXPECT_GT(queue.stats().retransmits, 0);
    EXPECT_GT(queue.stats().lost_in_flight, 0);
    EXPECT_GT(queue.stats().corrupted, 0);
    // Failed attempts burn radio energy but do not count as goodput.
    EXPECT_DOUBLE_EQ(queue.stats().bytes_sent, 60 * 1000.0);
    EXPECT_GT(queue.stats().energy_j,
              60 * link.transfer_energy(1000.0));
    EXPECT_EQ(queue.stats().retransmits,
              queue.stats().lost_in_flight +
                  queue.stats().corrupted);
}

TEST(UplinkQueue, BackoffIsClampedAtItsCeiling)
{
    // A black-hole link (every payload vanishes) exposes the whole
    // backoff ladder: 0.5 s, 1 s, then clamped at 2 s forever.
    FaultPlan plan;
    plan.payload_loss_prob = 1.0;
    FaultInjector injector(plan);

    LinkSpec link = lan_uplink_spec();
    link.bandwidth_bps = 8000.0; // 1 s per 1000-byte payload
    UplinkConfig config;
    config.backoff_base_s = 0.5;
    config.backoff_max_s = 2.0;
    UplinkQueue queue(link, 1000.0, config);
    queue.set_fault_injector(&injector);
    queue.enqueue(1, 0.0);

    // Attempts start at t = 0, 1.5, 3.5, then — the clamp — every
    // 3 s (1 s transmit + 2 s backoff) through 57.5: 21 attempts fit
    // the [0, 60) window. An unclamped ladder would fit only 7.
    EXPECT_EQ(queue.drain_window(0.0, 60.0), 0);
    EXPECT_EQ(queue.stats().retransmits, 21);
    EXPECT_EQ(queue.stats().lost_in_flight, 21);
    EXPECT_EQ(queue.backlog(), 1); // still queued, never dropped
    EXPECT_DOUBLE_EQ(queue.stats().energy_j,
                     21 * link.transfer_energy(1000.0));
}

TEST(UplinkQueue, BoundedBacklogDropsOldestWithoutFaults)
{
    UplinkConfig config;
    config.max_backlog_images = 3;
    LinkSpec link = lan_uplink_spec();
    link.bandwidth_bps = 8000.0;
    UplinkQueue queue(link, 1000.0, config); // 1 s per payload
    EXPECT_EQ(queue.enqueue(2, 0.0), 0);
    EXPECT_EQ(queue.enqueue(3, 5.0), 2); // evicts the two t=0 payloads
    EXPECT_EQ(queue.backlog(), 3);
    EXPECT_EQ(queue.stats().dropped, 2);
    EXPECT_EQ(queue.drain_window(5.0, 100.0), 3);
    // Only the fresh (t=5) payloads delivered: delays count from 5.
    EXPECT_DOUBLE_EQ(queue.stats().total_delay_s,
                     (6.0 - 5.0) + (7.0 - 5.0) + (8.0 - 5.0));
}

TEST(UplinkQueue, ClearModelsPowerLoss)
{
    UplinkQueue queue(iot_uplink_spec(), 100.0);
    queue.enqueue(7, 0.0);
    EXPECT_EQ(queue.clear(), 7);
    EXPECT_EQ(queue.backlog(), 0);
    EXPECT_EQ(queue.drain_window(0.0, 1e9), 0);
}

TEST(NodeCheckpoint, CrashRestoreRoundTripsDeployedModel)
{
    TinyConfig tiny;
    tiny.num_permutations = 8;
    ModelUpdateService cloud(tiny, titan_x_spec(), 3);
    ModelUpdateService other(tiny, titan_x_spec(), 99);
    InsituNode node(tiny, cloud.permutations(), 3, DiagnosisConfig{},
                    17);

    node.deploy_diagnosis(cloud.jigsaw());
    node.deploy_inference(cloud.inference());
    const NodeCheckpoint ckpt = node.checkpoint();
    EXPECT_FALSE(ckpt.empty());

    // The crash scribbles a different deployment over the node.
    node.deploy_diagnosis(other.jigsaw());
    node.deploy_inference(other.inference());

    ASSERT_TRUE(node.restore(ckpt));
    const auto want = cloud.inference().params();
    const auto got = node.inference().network().params();
    ASSERT_EQ(want.size(), got.size());
    for (size_t p = 0; p < want.size(); ++p)
        for (int64_t i = 0; i < want[p]->numel(); ++i)
            ASSERT_EQ(got[p]->value().at(i), want[p]->value().at(i));

    EXPECT_FALSE(node.restore(NodeCheckpoint{}));
}

TEST(NodeCheckpoint, RestoreIsAllOrNothingPerBlob)
{
    TinyConfig tiny;
    tiny.num_permutations = 8;
    ModelUpdateService cloud(tiny, titan_x_spec(), 3);
    InsituNode node(tiny, cloud.permutations(), 3, DiagnosisConfig{},
                    17);
    node.deploy_diagnosis(cloud.jigsaw());
    node.deploy_inference(cloud.inference());
    const NodeCheckpoint good = node.checkpoint();

    auto snapshot = [&node] {
        std::vector<std::vector<float>> all;
        auto grab = [&all](const Network& net) {
            for (const auto& p : net.params()) {
                std::vector<float> v;
                for (int64_t i = 0; i < p->numel(); ++i)
                    v.push_back(p->value().at(i));
                all.push_back(std::move(v));
            }
        };
        grab(node.inference().network());
        grab(node.diagnosis().network().trunk());
        grab(node.diagnosis().network().head());
        return all;
    };
    const auto before = snapshot();

    // Corrupt each blob in turn: restore must refuse the whole
    // checkpoint and leave every network — including the ones whose
    // blobs were fine — exactly as it was.
    for (int blob = 0; blob < 3; ++blob) {
        NodeCheckpoint bad = good;
        std::string& target =
            blob == 0   ? bad.trunk_blob
            : blob == 1 ? bad.head_blob
                        : bad.inference_blob;
        target.resize(target.size() / 2); // truncated mid-weights
        EXPECT_FALSE(node.restore(bad)) << "blob " << blob;
        const auto after = snapshot();
        ASSERT_EQ(before.size(), after.size());
        for (size_t p = 0; p < before.size(); ++p)
            for (size_t i = 0; i < before[p].size(); ++i)
                ASSERT_EQ(before[p][i], after[p][i])
                    << "blob " << blob << " param " << p;
    }
    // The untouched checkpoint still restores cleanly.
    EXPECT_TRUE(node.restore(good));
}

TEST(NodeCheckpoint, RejectsSwappedBlobsBitIdentically)
{
    TinyConfig tiny;
    tiny.num_permutations = 8;
    ModelUpdateService cloud(tiny, titan_x_spec(), 3);
    InsituNode node(tiny, cloud.permutations(), 3, DiagnosisConfig{},
                    17);
    node.deploy_diagnosis(cloud.jigsaw());
    node.deploy_inference(cloud.inference());
    const NodeCheckpoint good = node.checkpoint();

    auto snapshot = [&node] {
        std::vector<std::vector<float>> all;
        auto grab = [&all](const Network& net) {
            for (const auto& p : net.params()) {
                std::vector<float> v;
                for (int64_t i = 0; i < p->numel(); ++i)
                    v.push_back(p->value().at(i));
                all.push_back(std::move(v));
            }
        };
        grab(node.inference().network());
        grab(node.diagnosis().network().trunk());
        grab(node.diagnosis().network().head());
        return all;
    };
    const auto before = snapshot();

    // A checkpoint whose blobs were written to the wrong slots (the
    // classic "restored the wrong partition" bug): every blob is
    // individually valid, but none fits the network it lands on. The
    // restore must fail and leave the node bit-identical.
    NodeCheckpoint swapped = good;
    std::swap(swapped.inference_blob, swapped.head_blob);
    EXPECT_FALSE(node.restore(swapped));
    // Diagnosis pair swapped among themselves too.
    NodeCheckpoint diag_swapped = good;
    std::swap(diag_swapped.trunk_blob, diag_swapped.head_blob);
    EXPECT_FALSE(node.restore(diag_swapped));

    const auto after = snapshot();
    ASSERT_EQ(before.size(), after.size());
    for (size_t p = 0; p < before.size(); ++p)
        for (size_t i = 0; i < before[p].size(); ++i)
            ASSERT_EQ(before[p][i], after[p][i]) << "param " << p;
    EXPECT_TRUE(node.restore(good));
}

TEST(NodeCheckpoint, RejectsStaleWeightFormatBitIdentically)
{
    TinyConfig tiny;
    tiny.num_permutations = 8;
    ModelUpdateService cloud(tiny, titan_x_spec(), 3);
    InsituNode node(tiny, cloud.permutations(), 3, DiagnosisConfig{},
                    17);
    node.deploy_diagnosis(cloud.jigsaw());
    node.deploy_inference(cloud.inference());
    const NodeCheckpoint good = node.checkpoint();

    auto snapshot = [&node] {
        std::vector<std::vector<float>> all;
        auto grab = [&all](const Network& net) {
            for (const auto& p : net.params()) {
                std::vector<float> v;
                for (int64_t i = 0; i < p->numel(); ++i)
                    v.push_back(p->value().at(i));
                all.push_back(std::move(v));
            }
        };
        grab(node.inference().network());
        grab(node.diagnosis().network().trunk());
        grab(node.diagnosis().network().head());
        return all;
    };
    const auto before = snapshot();

    // A checkpoint written by an older firmware: the weight blob's
    // format-version word (right after the magic) says 1. Layouts may
    // have changed since, so the restore must refuse it wholesale.
    for (int blob = 0; blob < 3; ++blob) {
        NodeCheckpoint stale = good;
        std::string& target =
            blob == 0   ? stale.inference_blob
            : blob == 1 ? stale.trunk_blob
                        : stale.head_blob;
        ASSERT_GE(target.size(), 8u);
        target[4] = static_cast<char>(1);
        target[5] = target[6] = target[7] = static_cast<char>(0);
        EXPECT_FALSE(node.restore(stale)) << "blob " << blob;
        const auto after = snapshot();
        ASSERT_EQ(before.size(), after.size());
        for (size_t p = 0; p < before.size(); ++p)
            for (size_t i = 0; i < before[p].size(); ++i)
                ASSERT_EQ(before[p][i], after[p][i])
                    << "blob " << blob << " param " << p;
    }
    EXPECT_TRUE(node.restore(good));
}

TEST(ValidationGate, RollsBackRegressingUpdate)
{
    TinyConfig tiny;
    tiny.num_permutations = 8;
    ModelUpdateService cloud(tiny, titan_x_spec(), 5);
    Rng rng(11);
    SynthConfig synth;
    const Dataset train =
        make_dataset(synth, 200, Condition::in_situ(0.2), rng);
    const Dataset holdout =
        make_dataset(synth, 80, Condition::in_situ(0.2), rng);

    cloud.pretrain(train.images, 2);
    cloud.transfer_from_pretext(3);
    UpdatePolicy policy;
    policy.epochs = 4;
    cloud.update(train, policy);
    const double trained = cloud.evaluate(holdout);
    EXPECT_GT(trained, 0.3);

    // A clean update passes the gate and commits a new version.
    const auto ok =
        cloud.validated_update(train, policy, holdout, 0.02);
    EXPECT_FALSE(ok.rolled_back);
    EXPECT_GE(ok.holdout_after + 0.02, ok.holdout_before);
    const size_t versions_after_ok = cloud.registry().size();

    // A poisoned update (labels shifted by half the classes) must
    // regress and be rolled back, leaving accuracy untouched.
    Dataset poisoned = train;
    for (auto& label : poisoned.labels)
        label = (label + synth.num_classes / 2) % synth.num_classes;
    UpdatePolicy hard = policy;
    hard.epochs = 4;
    hard.lr = 0.05;
    const auto bad =
        cloud.validated_update(poisoned, hard, holdout, 0.02);
    EXPECT_TRUE(bad.rolled_back);
    EXPECT_DOUBLE_EQ(bad.holdout_after, bad.holdout_before);
    EXPECT_DOUBLE_EQ(cloud.evaluate(holdout), bad.holdout_before);
    // Rejected updates leave no "accepted" version behind.
    EXPECT_EQ(cloud.registry().size(), versions_after_ok + 1);
}

FleetConfig
chaos_fleet_config()
{
    FleetConfig c;
    c.tiny.num_permutations = 8;
    c.update_epochs = 2;
    c.pretrain_epochs = 1;
    c.node_severity_offset = {0.0, 0.2};
    c.holdout_images = 32;
    c.seed = 21;
    c.faults.payload_loss_prob = 0.2;
    c.faults.payload_corrupt_prob = 0.05;
    c.faults.flapping = {{0.0, 60.0, 10.0, 4.0}};
    c.faults.crashes = {{1, 1}};
    c.faults.poisoned_stages = {2};
    c.faults.seed = 1234;
    return c;
}

/** Flatten everything observable about a stage for exact replay. */
std::vector<double>
fingerprint(const FleetStageReport& r)
{
    std::vector<double> v = {
        static_cast<double>(r.stage),
        static_cast<double>(r.pooled_uploads),
        static_cast<double>(r.straggler_backlog),
        static_cast<double>(r.retransmits),
        static_cast<double>(r.corrupted),
        static_cast<double>(r.crashed_nodes),
        static_cast<double>(r.update_ran),
        static_cast<double>(r.poisoned),
        static_cast<double>(r.rolled_back),
        r.holdout_before,
        r.holdout_after,
        r.holdout_trained,
        r.mean_accuracy_after,
    };
    for (const auto& n : r.nodes) {
        v.push_back(static_cast<double>(n.acquired));
        v.push_back(static_cast<double>(n.uploaded));
        v.push_back(static_cast<double>(n.backlogged));
        v.push_back(static_cast<double>(n.lost_in_crash));
        v.push_back(static_cast<double>(n.dropped));
        v.push_back(static_cast<double>(n.crashed));
        v.push_back(n.flag_rate);
        v.push_back(n.accuracy_before);
        v.push_back(n.accuracy_after);
    }
    return v;
}

TEST(ChaosFleet, SameSeedBitIdenticalStats)
{
    std::vector<std::vector<double>> runs[2];
    for (auto& run : runs) {
        FleetSim fleet(chaos_fleet_config());
        fleet.bootstrap(40, 0.2);
        for (int s = 0; s < 3; ++s)
            run.push_back(fingerprint(fleet.run_stage(30, 0.25)));
    }
    ASSERT_EQ(runs[0].size(), runs[1].size());
    for (size_t s = 0; s < runs[0].size(); ++s) {
        ASSERT_EQ(runs[0][s].size(), runs[1][s].size());
        for (size_t i = 0; i < runs[0][s].size(); ++i)
            ASSERT_EQ(runs[0][s][i], runs[1][s][i])
                << "stage " << s << " field " << i;
    }
}

TEST(ChaosFleet, StageCompletesThroughLossAndCrash)
{
    FleetSim fleet(chaos_fleet_config());
    fleet.bootstrap(40, 0.2);

    const FleetStageReport s0 = fleet.run_stage(30, 0.25);
    EXPECT_EQ(s0.crashed_nodes, 0);

    // Stage 1: node 1 reboots; the stage still completes with the
    // survivor's uploads, and the crashed node keeps its model.
    const FleetStageReport s1 = fleet.run_stage(30, 0.25);
    ASSERT_EQ(s1.nodes.size(), 2u);
    EXPECT_EQ(s1.crashed_nodes, 1);
    EXPECT_TRUE(s1.nodes[1].crashed);
    EXPECT_EQ(s1.nodes[1].acquired, 0);
    EXPECT_EQ(s1.nodes[1].uploaded, 0);
    EXPECT_FALSE(s1.nodes[0].crashed);
    // The crashed node rebooted into the fleet's deployed weights.
    const auto cloud_p = fleet.cloud().inference().params();
    const auto node_p = fleet.node(1).inference().network().params();
    for (int64_t i = 0; i < cloud_p[0]->numel(); ++i)
        ASSERT_EQ(node_p[0]->value().at(i), cloud_p[0]->value().at(i));

    // Stage 2 is poisoned: the gate must keep the deployed model
    // from regressing past the tolerance.
    const FleetStageReport s2 = fleet.run_stage(30, 0.25);
    EXPECT_EQ(s2.crashed_nodes, 0);
    if (s2.update_ran) {
        EXPECT_TRUE(s2.poisoned);
        EXPECT_TRUE(s2.rolled_back ||
                    s2.holdout_after + 0.02 >= s2.holdout_before);
    }
    EXPECT_GT(s2.mean_accuracy_after, 0.0);
}

TEST(ChaosFleet, UplinkConservationHoldsEveryStage)
{
    // Every image a node hands its radio is delivered, evicted by the
    // backlog bound, destroyed by a crash, or still queued — per node,
    // at every stage close — and the stage report and the injector's
    // log agree with the uplinks' own counts. The chaos plan runs with
    // a tight backlog bound and a slow retry, so that evictions and
    // stragglers happen too, and node 2 crashes once while it holds a
    // backlog.
    for (const bool supervised : {false, true}) {
        FleetConfig config = insitu::chaos_fleet_config(supervised);
        config.uplink.max_backlog_images = 6;
        config.uplink.backoff_base_s = 20.0;
        config.uplink.backoff_max_s = 20.0;
        config.faults.crashes.push_back({2, 2});
        FleetSim fleet(config);
        fleet.bootstrap(40, 0.2);
        const size_t n = fleet.size();
        std::vector<int64_t> uploaded(n, 0), dropped(n, 0), crashed(n, 0);
        int64_t max_backlog = 0;
        for (int s = 0; s < 5; ++s) {
            const FleetStageReport r = fleet.run_stage(30, 0.25);
            ASSERT_EQ(r.nodes.size(), n);
            int64_t pooled = 0, backlog = 0;
            int64_t lost_in_flight = 0, corrupted = 0;
            for (size_t i = 0; i < n; ++i) {
                const FleetNodeReport& nr = r.nodes[i];
                const UplinkStats& us = fleet.uplink(i).stats();
                uploaded[i] += nr.uploaded;
                dropped[i] += nr.dropped;
                crashed[i] += nr.lost_in_crash;
                EXPECT_EQ(us.enqueued, uploaded[i] + dropped[i] +
                                           crashed[i] + nr.backlogged)
                    << "supervised " << supervised << " stage " << s
                    << " node " << i;
                pooled += nr.uploaded;
                backlog += nr.backlogged;
                lost_in_flight += us.lost_in_flight;
                corrupted += us.corrupted;
            }
            EXPECT_EQ(r.pooled_uploads, pooled) << "stage " << s;
            EXPECT_EQ(r.straggler_backlog, backlog) << "stage " << s;
            max_backlog = std::max(max_backlog, backlog);
            const FaultLog& log = fleet.injector().log();
            EXPECT_EQ(log.payloads_lost + log.flapping_failures,
                      lost_in_flight)
                << "stage " << s;
            EXPECT_EQ(log.payloads_corrupted, corrupted) << "stage " << s;
        }
        // Every term of the balance was exercised.
        const auto total = [](const std::vector<int64_t>& v) {
            return std::accumulate(v.begin(), v.end(), int64_t{0});
        };
        EXPECT_GT(total(uploaded), 0);
        EXPECT_GT(total(dropped), 0);
        EXPECT_GT(total(crashed), 0);
        EXPECT_GT(max_backlog, 0);
    }
}

TEST(ChaosFleet, NoFaultPlanMatchesHappyPath)
{
    // With the default (empty) plan the resilience layer is inert:
    // everything flagged is delivered inside the stage window.
    FleetConfig c;
    c.tiny.num_permutations = 8;
    c.update_epochs = 2;
    c.pretrain_epochs = 2;
    c.node_severity_offset = {0.0, 0.15};
    c.seed = 3;
    FleetSim fleet(c);
    fleet.bootstrap(80, 0.2);
    const FleetStageReport report = fleet.run_stage(40, 0.25);
    int64_t flagged_sum = 0;
    for (const auto& nr : report.nodes) {
        EXPECT_EQ(nr.backlogged, 0);
        EXPECT_EQ(nr.dropped, 0);
        EXPECT_FALSE(nr.crashed);
        flagged_sum += nr.uploaded;
    }
    EXPECT_EQ(report.pooled_uploads, flagged_sum);
    EXPECT_EQ(report.retransmits, 0);
    EXPECT_EQ(report.straggler_backlog, 0);
    EXPECT_FALSE(report.poisoned);
}

} // namespace
} // namespace insitu
