/**
 * @file
 * Tests for the self-healing supervision layer: the circuit-breaker
 * state machine and its energy savings under a flapping link,
 * the shared quarantine step and the crash-loop quarantine and
 * re-admission built on it, canary selection/judgment,
 * and the full supervised-vs-unsupervised chaos-fleet acceptance
 * scenario (including bit-identical replay across thread counts).
 */
#include <gtest/gtest.h>

#include <string>

#include "faults/fault_injector.h"
#include "iot/fleet.h"
#include "iot/supervisor.h"
#include "iot/uplink.h"
#include "util/parallel.h"

namespace insitu {
namespace {

TEST(CircuitBreaker, StateMachineTransitions)
{
    static_assert(kBreakerFailureThreshold == 3 &&
                      kBreakerCooldownS == 8.0 &&
                      kBreakerProbeSuccesses == 2,
                  "the script below is written for these constants");
    CircuitBreaker breaker;

    // Closed: failures below the threshold keep traffic flowing.
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
    EXPECT_TRUE(breaker.allow_attempt(0.0));
    breaker.on_failure(0.0);
    EXPECT_TRUE(breaker.allow_attempt(1.0));
    breaker.on_failure(1.0);
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
    // A success resets the consecutive count.
    breaker.on_success(1.5);
    breaker.on_failure(2.0);
    breaker.on_failure(3.0);
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
    // The third consecutive failure opens the breaker.
    breaker.on_failure(4.0);
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_EQ(breaker.opens(), 1);
    EXPECT_DOUBLE_EQ(breaker.retry_at(), 12.0);

    // Open: fast-fail until the cooldown expires.
    EXPECT_FALSE(breaker.allow_attempt(5.0));
    EXPECT_FALSE(breaker.allow_attempt(11.9));
    // Cooldown over: the next attempt is a half-open probe.
    EXPECT_TRUE(breaker.allow_attempt(12.0));
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
    EXPECT_EQ(breaker.probes(), 1);

    // A failed probe re-opens immediately.
    breaker.on_failure(12.5);
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_EQ(breaker.opens(), 2);
    EXPECT_DOUBLE_EQ(breaker.retry_at(), 20.5);

    // Two successful probes close the breaker again.
    EXPECT_TRUE(breaker.allow_attempt(21.0));
    breaker.on_success(21.1);
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
    EXPECT_TRUE(breaker.allow_attempt(21.2));
    breaker.on_success(21.3);
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
    EXPECT_EQ(breaker.closes(), 1);
    EXPECT_EQ(breaker.probes(), 3);

    EXPECT_STREQ(breaker_state_name(BreakerState::kClosed), "closed");
    EXPECT_STREQ(breaker_state_name(BreakerState::kOpen), "open");
    EXPECT_STREQ(breaker_state_name(BreakerState::kHalfOpen),
                 "half-open");
}

TEST(CircuitBreaker, SavesRadioEnergyUnderFlappingLink)
{
    // A link that flaps (down 8 s of every 10 s) eats transmission
    // attempts: the sender burns the energy and learns only from the
    // missing ack. The breaker's job is to stop hammering it.
    FaultPlan plan;
    plan.flapping = {{0.0, 1000.0, 10.0, 8.0}};

    LinkSpec link = lan_uplink_spec();
    link.bandwidth_bps = 8000.0; // 1 s per 1000-byte payload
    UplinkConfig ucfg;
    ucfg.backoff_base_s = 0.25;
    ucfg.backoff_max_s = 0.5; // a persistent sender: worst case

    FaultInjector naive_injector(plan);
    UplinkQueue naive(link, 1000.0, ucfg);
    naive.set_fault_injector(&naive_injector);

    FaultInjector supervised_injector(plan);
    UplinkQueue supervised(link, 1000.0, ucfg);
    supervised.set_fault_injector(&supervised_injector);
    CircuitBreaker breaker;
    supervised.set_breaker(&breaker);

    naive.enqueue(20, 0.0);
    supervised.enqueue(20, 0.0);
    const int64_t naive_delivered = naive.drain_window(0.0, 400.0);
    const int64_t supervised_delivered =
        supervised.drain_window(0.0, 400.0);

    // Both eventually deliver everything: the breaker defers, it does
    // not drop.
    EXPECT_EQ(naive_delivered, 20);
    EXPECT_EQ(supervised_delivered, 20);
    // The naive sender burned energy into the down-bursts; the
    // breaker fast-failed through them instead.
    EXPECT_GT(naive.stats().lost_in_flight,
              supervised.stats().lost_in_flight);
    EXPECT_LT(supervised.stats().energy_j, naive.stats().energy_j);
    EXPECT_GT(supervised.stats().breaker_opens, 0);
    EXPECT_GT(supervised.stats().breaker_open_wait_s, 0.0);
    // No breaker: the mirror stays zeroed.
    EXPECT_EQ(naive.stats().breaker_opens, 0);
    EXPECT_EQ(naive.stats().breaker_state, 0);
}

NodeStageObservation
healthy_obs(double accuracy = 0.8, double flag_rate = 0.2)
{
    NodeStageObservation obs;
    obs.flag_rate = flag_rate;
    obs.accuracy = accuracy;
    obs.has_accuracy = true;
    return obs;
}

NodeStageObservation
crashed_obs()
{
    NodeStageObservation obs;
    obs.crashed = true;
    return obs;
}

/** One row: the per-stage faults ('X' faulted, '.' clean), the
 * transition each stage fires ('Q' quarantined, 'R' readmitted, '.'
 * none) and whether the node ends quarantined. */
struct StepCase {
    const char* name;
    const char* faults;
    const char* transitions;
    bool ends_quarantined;
};

TEST(Quarantine, StepFollowsProtocol)
{
    static_assert(kQuarantineCrashThreshold == 2 &&
                      kQuarantineWindowStages == 3 &&
                      kQuarantineReadmitAfter == 2,
                  "the cases below are written for these constants");
    const StepCase cases[] = {
        {"threshold inside the window", "X.X", "..Q", true},
        {"a fault ages out of the window", "X..X", "....", false},
        {"a fault in quarantine resets the streak", "XX.X..", ".Q...R",
         false},
        {"readmission clears the window", "XX..X", ".Q.R.", false},
    };
    for (const StepCase& c : cases) {
        QuarantineWindow window;
        std::string got;
        for (const char* f = c.faults; *f != '\0'; ++f) {
            switch (quarantine_step(window, *f == 'X')) {
            case QuarantineTransition::kNone: got += '.'; break;
            case QuarantineTransition::kQuarantined: got += 'Q'; break;
            case QuarantineTransition::kReadmitted:
                got += 'R';
                // The window's oldest fault is still inside it; only
                // the reset removes it.
                EXPECT_EQ(window.faults, 0) << c.name;
                break;
            }
            EXPECT_EQ(window.faults >> kQuarantineWindowStages, 0)
                << c.name;
        }
        EXPECT_EQ(got, c.transitions) << c.name;
        EXPECT_EQ(window.quarantined != 0, c.ends_quarantined) << c.name;
    }
}

TEST(Quarantine, CrashLoopQuarantinesAndSustainedHealthReadmits)
{
    FleetSupervisor sup(3);

    // Stage 0: node 2 crashes once — under the threshold.
    sup.observe(0, healthy_obs());
    sup.observe(1, healthy_obs());
    sup.observe(2, crashed_obs());
    auto d0 = sup.end_stage(0);
    EXPECT_TRUE(d0.newly_quarantined.empty());
    EXPECT_FALSE(sup.quarantined(2));

    // Stage 1: second crash inside the window — quarantined.
    sup.observe(0, healthy_obs());
    sup.observe(1, healthy_obs());
    sup.observe(2, crashed_obs());
    auto d1 = sup.end_stage(1);
    ASSERT_EQ(d1.newly_quarantined, std::vector<int>{2});
    EXPECT_TRUE(sup.quarantined(2));
    EXPECT_EQ(sup.health(2).crashes, 2);

    // Stage 2: one healthy stage is not enough to rejoin.
    sup.observe(0, healthy_obs());
    sup.observe(1, healthy_obs());
    sup.observe(2, healthy_obs());
    auto d2 = sup.end_stage(2);
    EXPECT_TRUE(d2.readmitted.empty());
    EXPECT_TRUE(sup.quarantined(2));

    // Stage 3: the second consecutive healthy stage re-admits.
    sup.observe(0, healthy_obs());
    sup.observe(1, healthy_obs());
    sup.observe(2, healthy_obs());
    auto d3 = sup.end_stage(3);
    ASSERT_EQ(d3.readmitted, std::vector<int>{2});
    EXPECT_FALSE(sup.quarantined(2));
    // Re-admission wipes the fault window: a single new fault must
    // not instantly re-quarantine.
    sup.observe(2, crashed_obs());
    auto d4 = sup.end_stage(4);
    EXPECT_TRUE(d4.newly_quarantined.empty());
}

TEST(Quarantine, RestoreFailuresCountAsFaults)
{
    FleetSupervisor sup(2);
    NodeStageObservation bad_reboot;
    bad_reboot.crashed = true;
    bad_reboot.restore_failed = true;

    sup.observe(0, healthy_obs());
    sup.observe(1, bad_reboot);
    sup.end_stage(0);
    sup.observe(0, healthy_obs());
    sup.observe(1, bad_reboot);
    auto d = sup.end_stage(1);
    ASSERT_EQ(d.newly_quarantined, std::vector<int>{1});
    EXPECT_EQ(sup.health(1).restore_failures, 2);
    // Failed reboots depress the health score below a clean node's.
    EXPECT_LT(sup.health(1).score(), sup.health(0).score());
}

TEST(Canary, PickPrefersHealthiestAndKeepsAControl)
{
    static_assert(kCanaryNodes == 1);
    FleetSupervisor sup(3);

    // Node 0 crashes once: healthy but scarred.
    sup.observe(0, crashed_obs());
    sup.observe(1, healthy_obs());
    sup.observe(2, healthy_obs());
    sup.end_stage(0);

    // Healthiest first, tie broken by index: node 1, never the
    // scarred node 0, which would win on index alone.
    EXPECT_EQ(sup.pick_canaries(), std::vector<int>{1});

    // Quarantined nodes are never canaries; with fewer than two
    // healthy nodes there is no control group and no canary.
    sup.observe(1, crashed_obs());
    sup.observe(2, crashed_obs());
    sup.end_stage(1);
    sup.observe(1, crashed_obs());
    sup.observe(2, crashed_obs());
    sup.end_stage(2);
    ASSERT_TRUE(sup.quarantined(1));
    ASSERT_TRUE(sup.quarantined(2));
    EXPECT_TRUE(sup.pick_canaries().empty());
}

TEST(Canary, RegressingCanaryRollsBackToBaseline)
{
    FleetSupervisor sup(3);
    sup.start_canary(/*stage=*/0, {0}, /*accepted_version=*/7,
                     /*baseline_version=*/6, 0.8, 0.2);
    ASSERT_TRUE(sup.canary_pending());
    EXPECT_TRUE(sup.is_canary(0));
    EXPECT_FALSE(sup.is_canary(1));

    // The canary's accuracy collapses while the controls hold steady.
    sup.observe(0, healthy_obs(0.3, 0.6));
    sup.observe(1, healthy_obs(0.8, 0.2));
    sup.observe(2, healthy_obs(0.8, 0.2));
    auto d = sup.end_stage(1);
    EXPECT_TRUE(d.canary_judged);
    EXPECT_TRUE(d.canary_rolled_back);
    EXPECT_FALSE(d.canary_promoted);
    EXPECT_EQ(d.canary_version, 7);
    EXPECT_EQ(d.rollback_version, 6);
    EXPECT_FALSE(sup.canary_pending());
}

TEST(Canary, HealthyCanaryPromotes)
{
    FleetSupervisor sup(3);
    sup.start_canary(0, {2}, 9, 8, 0.8, 0.2);
    sup.observe(0, healthy_obs(0.78, 0.2));
    sup.observe(1, healthy_obs(0.8, 0.2));
    sup.observe(2, healthy_obs(0.79, 0.25)); // within both tolerances
    auto d = sup.end_stage(1);
    EXPECT_TRUE(d.canary_judged);
    EXPECT_TRUE(d.canary_promoted);
    EXPECT_FALSE(d.canary_rolled_back);
    EXPECT_EQ(d.canary_version, 9);
}

TEST(Canary, JudgmentDefersWhileCanariesAreDown)
{
    FleetSupervisor sup(3);
    sup.start_canary(0, {1}, 5, 4, 0.8, 0.2);
    // The canary crashed: no verdict this stage.
    sup.observe(0, healthy_obs());
    sup.observe(1, crashed_obs());
    sup.observe(2, healthy_obs());
    auto d = sup.end_stage(1);
    EXPECT_FALSE(d.canary_judged);
    EXPECT_TRUE(sup.canary_pending());
    // Next stage it participates — and is judged against the
    // recorded pre-update baseline even if every control is silent.
    sup.observe(1, healthy_obs(0.81, 0.2));
    auto d2 = sup.end_stage(2);
    EXPECT_TRUE(d2.canary_judged);
    EXPECT_TRUE(d2.canary_promoted);
}

/**
 * The acceptance scenario: a flapping link, a crash-looping node and
 * a poisoned update that the (deliberately disabled) holdout gate
 * waves through, so the canary stage is the last line of defense.
 */
FleetConfig
supervised_chaos_config()
{
    FleetConfig c;
    c.tiny.num_permutations = 8;
    c.update_epochs = 2;
    c.pretrain_epochs = 1;
    c.node_severity_offset = {0.0, 0.1, 0.2, 0.3};
    c.holdout_images = 32;
    c.stage_window_s = 600.0;
    c.seed = 21;
    // The uplink hammers the link hard so the flapping windows have
    // something to eat (and the breaker something to save).
    c.uplink.backoff_base_s = 0.25;
    c.uplink.backoff_max_s = 0.5;
    // Flapping covers the first two stage windows.
    c.faults.flapping = {{0.0, 1200.0, 10.0, 4.0}};
    // Node 3 crash-loops through stages 0-1, then stays healthy.
    c.faults.crashes = {{0, 3}, {1, 3}};
    // Stage 2's labels are scrambled — and the holdout gate is
    // disabled below, so only the canary can catch it.
    c.faults.poisoned_stages = {2};
    c.faults.seed = 1234;
    c.rollback_tolerance = 1.0; // the gate waves everything through
    c.supervised = true;
    return c;
}

/** Flatten a supervised stage for exact replay comparison. */
std::vector<double>
supervised_fingerprint(const FleetStageReport& r)
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
        static_cast<double>(r.quarantined_nodes),
        static_cast<double>(r.excluded_uploads),
        static_cast<double>(r.canary_started),
        static_cast<double>(r.canary_promoted),
        static_cast<double>(r.canary_rolled_back),
        static_cast<double>(r.breaker_opens),
        r.breaker_open_wait_s,
    };
    for (int n : r.newly_quarantined) v.push_back(n);
    for (int n : r.readmitted) v.push_back(n);
    for (int n : r.canary_nodes) v.push_back(n);
    for (const auto& n : r.nodes) {
        v.push_back(static_cast<double>(n.acquired));
        v.push_back(static_cast<double>(n.uploaded));
        v.push_back(static_cast<double>(n.backlogged));
        v.push_back(static_cast<double>(n.lost_in_crash));
        v.push_back(static_cast<double>(n.dropped));
        v.push_back(static_cast<double>(n.crashed));
        v.push_back(static_cast<double>(n.quarantined));
        v.push_back(static_cast<double>(n.canary));
        v.push_back(n.flag_rate);
        v.push_back(n.accuracy_before);
        v.push_back(n.accuracy_after);
    }
    return v;
}

double
fleet_radio_energy(FleetSim& fleet, size_t nodes)
{
    double joules = 0;
    for (size_t i = 0; i < nodes; ++i)
        joules += fleet.uplink(i).stats().energy_j;
    return joules;
}

TEST(SupervisedFleet, SurvivesChaosAndBeatsTheNaiveFleet)
{
    constexpr int kStages = 6;

    // The breaker-less baseline: same faults, no supervision.
    FleetConfig naive_config = supervised_chaos_config();
    naive_config.supervised = false;
    FleetSim naive(naive_config);
    naive.bootstrap(40, 0.2);
    for (int s = 0; s < kStages; ++s) naive.run_stage(30, 0.25);
    const double naive_joules = fleet_radio_energy(naive, 4);

    FleetSim fleet(supervised_chaos_config());
    fleet.bootstrap(40, 0.2);
    std::vector<FleetStageReport> stages;
    for (int s = 0; s < kStages; ++s)
        stages.push_back(fleet.run_stage(30, 0.25));
    const double supervised_joules = fleet_radio_energy(fleet, 4);

    // 1. The breakers kept the radios from hammering the flapping
    // link: strictly less energy than the naive fleet under the same
    // FaultPlan.
    EXPECT_LT(supervised_joules, naive_joules);
    EXPECT_GT(stages.back().breaker_opens, 0);

    // 2. The crash-looper was quarantined after its second crash and
    // re-admitted after sustained health.
    ASSERT_EQ(stages[1].newly_quarantined, std::vector<int>{3});
    EXPECT_TRUE(stages[1].nodes[3].quarantined);
    EXPECT_GT(stages[1].quarantined_nodes, 0);
    bool readmitted = false;
    for (int s = 2; s < kStages; ++s)
        if (!stages[s].readmitted.empty()) {
            EXPECT_EQ(stages[s].readmitted, std::vector<int>{3});
            readmitted = true;
        }
    EXPECT_TRUE(readmitted);
    EXPECT_FALSE(stages.back().nodes[3].quarantined);

    // 3. The poisoned update never got past its canary subset: the
    // stage that judged it rolled the fleet back, and no poisoned
    // canary was ever promoted.
    bool poison_judged = false;
    for (int s = 0; s < kStages; ++s) {
        if (!(stages[s].poisoned && stages[s].canary_started))
            continue;
        // At most one node carried the poisoned weights.
        EXPECT_LE(stages[s].canary_nodes.size(), 1u);
        for (int t = s + 1; t < kStages; ++t) {
            if (!stages[t].canary_promoted &&
                !stages[t].canary_rolled_back)
                continue;
            EXPECT_TRUE(stages[t].canary_rolled_back)
                << "poisoned canary from stage " << s
                << " was promoted at stage " << t;
            poison_judged = true;
            break;
        }
    }
    EXPECT_TRUE(poison_judged)
        << "the poisoned update never reached a canary verdict";
}

TEST(SupervisedFleet, ReplaysBitIdenticallyAcrossThreadCounts)
{
    std::vector<std::vector<double>> runs[2];
    const int widths[2] = {1, 4};
    for (int w = 0; w < 2; ++w) {
        set_num_threads(widths[w]);
        FleetSim fleet(supervised_chaos_config());
        fleet.bootstrap(40, 0.2);
        for (int s = 0; s < 4; ++s)
            runs[w].push_back(
                supervised_fingerprint(fleet.run_stage(30, 0.25)));
    }
    set_num_threads(0);
    ASSERT_EQ(runs[0].size(), runs[1].size());
    for (size_t s = 0; s < runs[0].size(); ++s) {
        ASSERT_EQ(runs[0][s].size(), runs[1][s].size());
        for (size_t i = 0; i < runs[0][s].size(); ++i)
            ASSERT_EQ(runs[0][s][i], runs[1][s][i])
                << "stage " << s << " field " << i;
    }
}

} // namespace
} // namespace insitu
