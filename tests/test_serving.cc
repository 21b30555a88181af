/**
 * @file
 * Unit tests for the async serving runtime: the bursty load
 * generator, the EDF admission queue, the node's double-buffered
 * weight swaps, the online batch planner, the calibration bridge and
 * the end-to-end runtime invariants (determinism, no-tear swaps,
 * planner-beats-static).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>

#include "cloud/update_service.h"
#include "iot/node.h"
#include "serving/calibrate.h"
#include "serving/scenarios.h"

namespace insitu::serving {
namespace {

TrafficMix
small_mix()
{
    TrafficMix mix;
    mix.name = "test";
    mix.duration_s = 30.0;
    mix.calm_rate_hz = 10.0;
    mix.burst_rate_mult = 6.0;
    mix.mean_calm_s = 4.0;
    mix.mean_burst_s = 1.5;
    mix.classes = {{"fast", 0.1, 0.5}, {"slow", 1.0, 0.5}};
    mix.seed = 11;
    return mix;
}

// ---- traffic generator --------------------------------------------

TEST(Traffic, ArrivalsAreDeterministic)
{
    const TrafficMix mix = small_mix();
    const auto a = generate_arrivals(mix);
    const auto b = generate_arrivals(mix);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].cls, b[i].cls);
        EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_DOUBLE_EQ(a[i].deadline_s, b[i].deadline_s);
    }
}

TEST(Traffic, StreamStructureHolds)
{
    const TrafficMix mix = small_mix();
    const auto arrivals = generate_arrivals(mix);
    ASSERT_FALSE(arrivals.empty());
    double prev = 0.0;
    for (size_t i = 0; i < arrivals.size(); ++i) {
        const Request& r = arrivals[i];
        EXPECT_EQ(r.id, static_cast<int64_t>(i)); // ids dense from 0
        EXPECT_GT(r.arrival_s, prev);             // strictly ordered
        EXPECT_LT(r.arrival_s, mix.duration_s);
        ASSERT_GE(r.cls, 0);
        ASSERT_LT(r.cls, 2);
        // Absolute deadline = arrival + class relative deadline.
        EXPECT_DOUBLE_EQ(r.deadline_s,
                         r.arrival_s +
                             mix.classes[static_cast<size_t>(r.cls)]
                                 .deadline_s);
        prev = r.arrival_s;
    }
    // Both classes actually drawn (weights 0.5/0.5 over hundreds).
    int64_t fast = 0;
    for (const auto& r : arrivals) fast += r.cls == 0 ? 1 : 0;
    EXPECT_GT(fast, 0);
    EXPECT_LT(fast, static_cast<int64_t>(arrivals.size()));
}

TEST(Traffic, BurstWindowsCarryHigherRate)
{
    const TrafficMix mix = small_mix();
    std::vector<BurstWindow> bursts;
    const auto arrivals = generate_arrivals(mix, &bursts);
    ASSERT_FALSE(bursts.empty());

    double burst_time = 0.0;
    int64_t burst_arrivals = 0;
    for (const auto& w : bursts) {
        EXPECT_GE(w.begin_s, 0.0);
        EXPECT_GT(w.end_s, w.begin_s);
        EXPECT_LE(w.end_s, mix.duration_s);
        burst_time += w.end_s - w.begin_s;
        for (const auto& r : arrivals)
            if (r.arrival_s >= w.begin_s && r.arrival_s < w.end_s)
                ++burst_arrivals;
    }
    const double calm_time = mix.duration_s - burst_time;
    const double calm_arrivals =
        static_cast<double>(arrivals.size()) -
        static_cast<double>(burst_arrivals);
    ASSERT_GT(burst_time, 0.0);
    ASSERT_GT(calm_time, 0.0);
    // Empirical burst rate must clearly exceed the calm rate (the
    // configured ratio is 6x; demand at least 2x to stay robust).
    EXPECT_GT(static_cast<double>(burst_arrivals) / burst_time,
              2.0 * calm_arrivals / calm_time);
}

// ---- admission queue ----------------------------------------------

Request
make_request(int64_t id, double arrival, double deadline)
{
    Request r;
    r.id = id;
    r.cls = 0;
    r.arrival_s = arrival;
    r.deadline_s = deadline;
    return r;
}

TEST(AdmissionQueue, PopsInEdfOrder)
{
    AdmissionQueue q(8);
    // Admission order is arrival order; deadlines are shuffled.
    q.admit(make_request(0, 0.0, 0.9));
    q.admit(make_request(1, 0.1, 0.3));
    q.admit(make_request(2, 0.2, 0.6));
    q.admit(make_request(3, 0.3, 0.3)); // deadline tie: id breaks it

    const auto deadlines = q.edf_deadlines(3);
    ASSERT_EQ(deadlines.size(), 3u);
    EXPECT_DOUBLE_EQ(deadlines[0], 0.3);
    EXPECT_DOUBLE_EQ(deadlines[1], 0.3);
    EXPECT_DOUBLE_EQ(deadlines[2], 0.6);

    const auto batch = q.pop_edf(3);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].id, 1);
    EXPECT_EQ(batch[1].id, 3);
    EXPECT_EQ(batch[2].id, 2);
    EXPECT_EQ(q.depth(), 1u);
    EXPECT_EQ(q.pop_edf(5).size(), 1u); // n > depth: returns depth
    EXPECT_TRUE(q.empty());
}

TEST(AdmissionQueue, DropsAtCapacity)
{
    AdmissionQueue q(2);
    EXPECT_TRUE(q.admit(make_request(0, 0.0, 1.0)));
    EXPECT_TRUE(q.admit(make_request(1, 0.0, 2.0)));
    EXPECT_FALSE(q.admit(make_request(2, 0.0, 0.5)));
    EXPECT_FALSE(q.sheds_class(0)); // a capacity drop, not a shed
    EXPECT_EQ(q.depth(), 2u);
}

TEST(AdmissionQueue, ShedsOnlyExpired)
{
    AdmissionQueue q(8);
    q.admit(make_request(0, 0.0, 0.2));
    q.admit(make_request(1, 0.0, 0.4));
    q.admit(make_request(2, 0.0, 0.8));
    const auto shed = q.shed_expired(0.5);
    ASSERT_EQ(shed.size(), 2u);
    EXPECT_EQ(shed[0].id, 0);
    EXPECT_EQ(shed[1].id, 1);
    EXPECT_EQ(q.depth(), 1u);
    // Deadline exactly now is not yet expired.
    EXPECT_TRUE(q.shed_expired(0.8).empty());
}

// ---- double-buffered weight swaps on the node ---------------------

float
first_fc_weight(InsituNode& node)
{
    const auto ii =
        node.inference().network().conv_layer_indices();
    return node.inference()
        .network()
        .layer(ii[4])
        .params()[0]
        ->value()
        .at(0);
}

TEST(DoubleBuffer, StageIsInvisibleUntilCommit)
{
    TinyConfig tiny;
    tiny.num_permutations = 8;
    ModelUpdateService cloud(tiny, titan_x_spec(), 10);
    InsituNode node(tiny, cloud.permutations(), 3, DiagnosisConfig{},
                    11);

    for (auto& p : cloud.inference().params()) p->value().fill(0.5f);
    node.deploy_diagnosis(cloud.jigsaw());
    node.deploy_inference(cloud.inference());
    const NodeCheckpoint old = node.checkpoint();
    const uint64_t v_old = node.model_version();
    EXPECT_GT(v_old, 0u);

    // New cloud weights deploy... but staged, not live.
    for (auto& p : cloud.inference().params()) p->value().fill(0.25f);
    node.deploy_inference(cloud.inference());
    const NodeCheckpoint next = node.checkpoint();
    EXPECT_TRUE(node.restore(old));
    const uint64_t v_live = node.model_version();

    const uint64_t v_staged = node.stage_deployment(next);
    EXPECT_TRUE(node.has_staged_deployment());
    EXPECT_EQ(node.staged_version(), v_staged);
    EXPECT_GT(v_staged, v_live);
    EXPECT_EQ(node.model_version(), v_live); // live untouched
    EXPECT_EQ(first_fc_weight(node), 0.5f);  // weights untouched

    // The batch boundary: commit makes it live, atomically.
    EXPECT_TRUE(node.commit_staged_deployment());
    EXPECT_FALSE(node.has_staged_deployment());
    EXPECT_EQ(node.model_version(), v_staged);
    EXPECT_EQ(first_fc_weight(node), 0.25f);
}

TEST(DoubleBuffer, LastStagedUpdateWins)
{
    TinyConfig tiny;
    tiny.num_permutations = 8;
    ModelUpdateService cloud(tiny, titan_x_spec(), 12);
    InsituNode node(tiny, cloud.permutations(), 3, DiagnosisConfig{},
                    13);
    node.deploy_diagnosis(cloud.jigsaw());
    node.deploy_inference(cloud.inference());

    const uint64_t v1 = node.stage_deployment(node.checkpoint());
    const uint64_t v2 = node.stage_deployment(node.checkpoint());
    EXPECT_GT(v2, v1);
    EXPECT_EQ(node.staged_version(), v2);
    EXPECT_TRUE(node.commit_staged_deployment());
    EXPECT_EQ(node.model_version(), v2);
}

TEST(DoubleBuffer, BadCheckpointCommitLeavesNodeUntouched)
{
    TinyConfig tiny;
    tiny.num_permutations = 8;
    ModelUpdateService cloud(tiny, titan_x_spec(), 14);
    InsituNode node(tiny, cloud.permutations(), 3, DiagnosisConfig{},
                    15);
    for (auto& p : cloud.inference().params()) p->value().fill(0.5f);
    node.deploy_diagnosis(cloud.jigsaw());
    node.deploy_inference(cloud.inference());
    const uint64_t v_live = node.model_version();

    NodeCheckpoint bad = node.checkpoint();
    bad.inference_blob = "not a weight blob";
    node.stage_deployment(bad);
    EXPECT_FALSE(node.commit_staged_deployment());
    EXPECT_FALSE(node.has_staged_deployment()); // not retried
    EXPECT_EQ(node.model_version(), v_live);
    EXPECT_EQ(first_fc_weight(node), 0.5f);
}

// ---- batch planner ------------------------------------------------

TEST(Planner, StaticModeIgnoresDeadlines)
{
    PlannerConfig cfg;
    cfg.mode = PlannerMode::kStatic;
    cfg.static_batch = 4;
    const BatchPlanner planner(cfg);
    const GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();

    const std::vector<double> ten(10, -1.0); // all long expired
    EXPECT_EQ(planner.plan(gpu, net, 0.0, ten, 0.0).batch, 4);
    const std::vector<double> two(2, -1.0);
    EXPECT_EQ(planner.plan(gpu, net, 0.0, two, 0.0).batch, 2);
}

TEST(Planner, PicksLargestDeadlineFeasiblePrefix)
{
    const BatchPlanner planner(PlannerConfig{});
    const GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();

    // Generous front deadline: take the whole queue.
    const std::vector<double> relaxed(6, 100.0);
    const BatchDecision all = planner.plan(gpu, net, 0.0, relaxed, 0.0);
    EXPECT_EQ(all.batch, 6);
    EXPECT_TRUE(all.deadline_feasible);

    // Front slack strictly between the predicted batch-1 and batch-2
    // times: only batch 1 fits.
    const double t1 =
        kPlannerSafety * gpu.predicted_batch_latency(net, 1);
    const double t2 =
        kPlannerSafety * gpu.predicted_batch_latency(net, 2);
    ASSERT_LT(t1, t2);
    std::vector<double> tight(6, 100.0);
    tight[0] = 0.5 * (t1 + t2);
    const BatchDecision one = planner.plan(gpu, net, 0.0, tight, 0.0);
    EXPECT_EQ(one.batch, 1);
    EXPECT_TRUE(one.deadline_feasible);
    EXPECT_NEAR(one.predicted_s, t1, 1e-12);
}

TEST(Planner, DrainModeMaximizesThroughput)
{
    const BatchPlanner planner(PlannerConfig{});
    const GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();

    // Every deadline hopeless: drain at max throughput. For the Eq 5
    // model, images/s grows with batch up to 8, so the whole queue
    // goes.
    const std::vector<double> hopeless(8, -1.0);
    const BatchDecision d = planner.plan(gpu, net, 0.0, hopeless, 0.0);
    EXPECT_FALSE(d.deadline_feasible);
    EXPECT_EQ(d.batch, 8);
    // A deeper queue drains at most kMaxBatch.
    const std::vector<double> deep(kMaxBatch + 8, -1.0);
    EXPECT_LE(planner.plan(gpu, net, 0.0, deep, 0.0).batch, kMaxBatch);
}

TEST(Planner, CorunInterferenceShrinksTheBatch)
{
    const BatchPlanner planner(PlannerConfig{});
    const GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();

    // A front deadline strictly between the batch-16 prediction
    // alone and under interference: without the co-runner the full
    // batch fits, with it the planner must back off.
    const double diag_ops = diagnosis_desc(net).total_ops() * 9.0;
    const double t16 =
        kPlannerSafety * gpu.predicted_batch_latency(net, 16);
    const double slow =
        gpu.corun_slowdown(net.total_ops() * 16.0, diag_ops);
    ASSERT_GT(slow, 1.0);
    std::vector<double> deadlines(16, 0.5 * t16 * (1.0 + slow));
    const int64_t alone =
        planner.plan(gpu, net, 0.0, deadlines, 0.0).batch;
    EXPECT_EQ(alone, 16);
    const int64_t corun =
        planner.plan(gpu, net, 0.0, deadlines, diag_ops).batch;
    EXPECT_LT(corun, alone);
    EXPECT_GE(corun, 1);
}

// ---- calibration bridge -------------------------------------------

BatchRecord
measured(int64_t size, double pure_exec_s, bool healthy = true)
{
    BatchRecord b;
    b.size = size;
    b.pure_exec_s = pure_exec_s;
    b.exec_s = pure_exec_s;
    b.healthy = healthy;
    return b;
}

TEST(Calibrate, PointsAggregateHealthyBatches)
{
    std::vector<BatchRecord> ledger = {
        measured(4, 0.040), measured(16, 9.0, /*healthy=*/false),
        measured(1, 0.020), measured(4, 0.060)};

    const auto points = calibration_points(ledger);
    ASSERT_EQ(points.size(), 2u); // the unhealthy size is skipped
    EXPECT_EQ(points[0].batch, 1); // ascending by batch
    EXPECT_EQ(points[0].count, 1);
    EXPECT_NEAR(points[0].mean_seconds, 0.020, 1e-6);
    EXPECT_EQ(points[1].batch, 4);
    EXPECT_EQ(points[1].count, 2);
    // Integer nanosecond quanta, de-quantized then divided: the
    // mean a quantized histogram sum gives, bit for bit.
    EXPECT_EQ(points[1].mean_seconds,
              static_cast<double>(40000000 + 60000000) * 1e-9 / 2.0);

    // Integer sums: the fold order cannot move a bit.
    std::reverse(ledger.begin(), ledger.end());
    const auto again = calibration_points(ledger);
    ASSERT_EQ(again.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(again[i].mean_seconds, points[i].mean_seconds);
}

TEST(Calibrate, LedgerFitRecoversHostConstants)
{
    const GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();
    const double scale = 1.6, overhead = 0.004;

    std::vector<BatchRecord> ledger;
    for (int64_t b : {1, 2, 4, 8, 16}) {
        const double t = scale * gpu.network_latency(net, b) + overhead;
        ledger.push_back(measured(b, t));
        ledger.push_back(measured(b, t));
    }
    const GpuCalibration fit =
        fit_calibration(gpu, net, calibration_points(ledger));
    EXPECT_EQ(fit.samples, 10);
    EXPECT_NEAR(fit.time_scale, scale, 1e-3);
    EXPECT_NEAR(fit.overhead_s, overhead, 1e-4);

    // An empty ledger yields the identity.
    EXPECT_TRUE(fit_calibration(gpu, net, calibration_points({}))
                    .is_identity());
}

// ---- device truth and the device-fault seam ----------------------

TEST(DeviceTruth, ReplaysParentHostSequence)
{
    // 16 batch times recorded from the serving host before it became
    // a DeviceTruth: default host constants, a plan arming a thermal
    // throttle, a jitter storm and transient stalls. Any reordering of
    // mean × jitter × corun × throttle × storm × stall moves a bit.
    static const double kRecorded[16] = {
        0x1.f4267aaa47c0ap-6, 0x1.2ef4e28f244cfp-4,
        0x1.67a492303e447p-1, 0x1.69d6c5491c29fp-1,
        0x1.255053db5097fp+2, 0x1.65110181a0e01p-4,
        0x1.00c3a3c844cccp-2, 0x1.cdd247ee36ffcp+1,
        0x1.c066eafd76f33p-5, 0x1.aae7d8585100cp-2,
        0x1.ae2cd429ce6abp-3, 0x1.a928980b0d3c3p-2,
        0x1.08f396cdf08c5p-1, 0x1.a7e939f0e3facp-3,
        0x1.a640f4ce892aep-3, 0x1.d8c92338ba74bp+0,
    };
    DeviceFaultPlan plan;
    plan.seed = 0x5EED15;
    plan.throttles.push_back(ThrottleWindow{0.5, 3.0, 2.5, 1.0});
    plan.jitter_storms.push_back(JitterStormWindow{1.25, 3.5, 0.4});
    plan.transient_stall_prob = 0.3;
    plan.transient_stall_mult = 4.0;
    Rng stream = plan.stream();
    DegradationReport tally;
    DeviceTruth host(tx1_spec(), DeviceTruthConfig{});

    const NetworkDesc net = alexnet_desc();
    const int64_t batches[] = {1, 4, 9, 16, 32, 3, 7, 64};
    const double coruns[] = {1.0, 1.37, 2.2, 1.0, 2.9};
    for (int i = 0; i < 16; ++i) {
        const double now = 0.25 * i;
        const double t = apply_device_faults(
            plan, stream, tally,
            host.run_batch(net, batches[i % 8], coruns[i % 5]), now);
        EXPECT_EQ(t, kRecorded[i]) << "call " << i;
    }
    // Every fault kind fired inside the sequence.
    EXPECT_EQ(tally.throttled_batches, 9);
    EXPECT_EQ(tally.storm_batches, 9);
    EXPECT_EQ(tally.stalled_batches, 5);
}

TEST(DeviceFaultPlan, ThrottleFactorRampsAndHolds)
{
    DeviceFaultPlan plan;
    plan.throttles = {{10.0, 30.0, 3.0, 4.0}};
    plan.validated();

    // Outside the window: no slowdown.
    EXPECT_DOUBLE_EQ(plan.throttle_factor(9.9), 1.0);
    EXPECT_DOUBLE_EQ(plan.throttle_factor(30.0), 1.0);
    // The ramp climbs linearly from 1 at from_s to the peak at
    // from_s + ramp_s, then holds.
    EXPECT_DOUBLE_EQ(plan.throttle_factor(10.0), 1.0);
    EXPECT_DOUBLE_EQ(plan.throttle_factor(12.0), 2.0);
    EXPECT_DOUBLE_EQ(plan.throttle_factor(14.0), 3.0);
    EXPECT_DOUBLE_EQ(plan.throttle_factor(25.0), 3.0);
    // A zero ramp is a step to the peak.
    plan.throttles = {{10.0, 30.0, 2.5, 0.0}};
    EXPECT_DOUBLE_EQ(plan.throttle_factor(10.0), 2.5);
}

TEST(DeviceFaultPlan, StormJitterFracCoversItsWindows)
{
    DeviceFaultPlan plan;
    plan.jitter_storms = {{5.0, 15.0, 0.2}, {10.0, 20.0, 0.4}};
    plan.validated();
    EXPECT_DOUBLE_EQ(plan.storm_jitter_frac(4.9), 0.0);
    EXPECT_DOUBLE_EQ(plan.storm_jitter_frac(5.0), 0.2);
    // Overlap: the larger frac wins.
    EXPECT_DOUBLE_EQ(plan.storm_jitter_frac(12.0), 0.4);
    EXPECT_DOUBLE_EQ(plan.storm_jitter_frac(19.9), 0.4);
    EXPECT_DOUBLE_EQ(plan.storm_jitter_frac(20.0), 0.0);
}

TEST(DeviceFaultPlan, CalmInstantsAndZeroStallProbabilityDrawNothing)
{
    // Throttles are pure; a storm draws one uniform per dispatch
    // inside its window; a calm instant and a zero stall probability
    // draw nothing and leave the batch time exact. The draw count is
    // pinned by advancing a control stream by hand.
    DeviceFaultPlan plan;
    plan.seed = 99;
    plan.throttles = {{0.0, 100.0, 2.0, 5.0}};
    plan.jitter_storms = {{0.0, 50.0, 0.3}};
    Rng stream = plan.stream();
    Rng control = plan.stream();
    DegradationReport tally;
    for (int i = 0; i < 200; ++i) {
        const double t = static_cast<double>(i);
        const double s = apply_device_faults(plan, stream, tally, 0.25, t);
        if (i >= 100) {
            EXPECT_EQ(s, 0.25) << "calm dispatch " << i;
        }
    }
    for (int i = 0; i < 50; ++i) control.uniform();
    EXPECT_EQ(stream.next_u64(), control.next_u64());
    EXPECT_EQ(tally.throttled_batches, 99); // t = 0 has not ramped yet
    EXPECT_EQ(tally.storm_batches, 50);
    EXPECT_EQ(tally.stalled_batches, 0);

    // A non-zero stall probability adds exactly one draw per dispatch,
    // calm or not.
    plan.transient_stall_prob = 0.5;
    stream = plan.stream();
    control = plan.stream();
    tally = DegradationReport{};
    for (int i = 0; i < 200; ++i)
        apply_device_faults(plan, stream, tally, 0.25, i);
    for (int i = 0; i < 50 + 200; ++i) control.uniform();
    EXPECT_EQ(stream.next_u64(), control.next_u64());
    EXPECT_GT(tally.stalled_batches, 0);
    EXPECT_LT(tally.stalled_batches, 200);

    // A default plan is calm everywhere: an exact identity.
    const DeviceFaultPlan calm;
    Rng calm_stream = calm.stream();
    Rng calm_control = calm.stream();
    DegradationReport none;
    EXPECT_EQ(apply_device_faults(calm, calm_stream, none, 0.125, 3.0),
              0.125);
    EXPECT_EQ(calm_stream.next_u64(), calm_control.next_u64());
    EXPECT_EQ(none.throttled_batches + none.storm_batches +
                  none.stalled_batches,
              0);
}

// ---- end-to-end runtime -------------------------------------------

TEST(Runtime, RunsAreByteDeterministic)
{
    auto once = []() {
        ServingConfig cfg = make_scenario("interactive_burst", 5.0, 3);
        cfg.transcript = TranscriptLevel::kFull;
        ServingRuntime runtime(cfg);
        return runtime.run();
    };
    const ServingReport a = once();
    const ServingReport b = once();
    EXPECT_GT(a.batches, 0);
    EXPECT_EQ(a.transcript, b.transcript);
    EXPECT_EQ(a.total.arrived, b.total.arrived);
    EXPECT_EQ(a.total.served, b.total.served);
    EXPECT_DOUBLE_EQ(a.total.p99_latency_s, b.total.p99_latency_s);
    EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.calibration_fits, b.calibration_fits);
    EXPECT_DOUBLE_EQ(a.final_calibration.time_scale,
                     b.final_calibration.time_scale);
}

TEST(Runtime, ServesEveryAdmittedRequestExactlyOnce)
{
    ServingConfig cfg = make_scenario("interactive_burst", 5.0, 4);
    ServingRuntime runtime(cfg);
    const ServingReport rep = runtime.run();
    EXPECT_GT(rep.total.arrived, 0);
    // arrived = served + dropped + shed (no request lost or doubled).
    EXPECT_EQ(rep.total.arrived,
              rep.total.served + rep.total.dropped_capacity +
                  rep.total.shed_expired);
    EXPECT_GE(rep.makespan_s, 0.0);
    EXPECT_EQ(rep.swap_torn, false);
}

TEST(Runtime, CalibrationConvergesOnTheHostConstants)
{
    ServingConfig cfg = make_scenario("bulk_heavy", 10.0, 5);
    ServingRuntime runtime(cfg);
    const ServingReport rep = runtime.run();
    ASSERT_GT(rep.calibration_fits, 0);
    // The host profile is scale 1.6 / overhead 4 ms with 5% jitter;
    // the fitted constants must land near them and the residuals of
    // the measured operating points must be small.
    const DeviceTruthConfig host = serving_host(cfg.mix.seed);
    EXPECT_NEAR(rep.final_calibration.time_scale, host.time_scale, 0.1);
    EXPECT_NEAR(rep.final_calibration.overhead_s, host.overhead_s,
                0.002);
    EXPECT_LT(rep.mean_abs_residual, 0.1);
}

TEST(Runtime, MidBurstSwapsNeverStallOrTear)
{
    TinyConfig tiny;
    tiny.num_permutations = 8;
    ModelUpdateService cloud(tiny, titan_x_spec(), 20);
    InsituNode node(tiny, cloud.permutations(), 3, DiagnosisConfig{},
                    21);
    node.deploy_diagnosis(cloud.jigsaw());
    node.deploy_inference(cloud.inference());
    const uint64_t v0 = node.model_version();

    // Near-saturated mix with frequent updates: some must land while
    // a batch is in flight.
    ServingConfig cfg = make_scenario("bulk_heavy", 8.0, 6);
    cfg.corun.update_period_s = 0.7;
    ServingRuntime runtime(cfg, &node);
    const ServingReport rep = runtime.run();

    EXPECT_GE(rep.updates_staged, 5);
    EXPECT_GE(rep.mid_batch_stages, 1);
    EXPECT_GE(rep.swaps_committed, 1);
    EXPECT_LE(rep.swaps_committed, rep.updates_staged);
    EXPECT_FALSE(rep.swap_torn);
    EXPECT_DOUBLE_EQ(rep.swap_stall_s, 0.0);
    EXPECT_GT(node.model_version(), v0);
}

TEST(Runtime, RealInferenceGroundsTheStream)
{
    TinyConfig tiny;
    tiny.num_permutations = 8;
    ModelUpdateService cloud(tiny, titan_x_spec(), 22);
    InsituNode node(tiny, cloud.permutations(), 3, DiagnosisConfig{},
                    23);
    node.deploy_diagnosis(cloud.jigsaw());
    node.deploy_inference(cloud.inference());

    ServingConfig cfg = make_scenario("interactive_burst", 2.0, 7);
    cfg.real_inference_every = 2;
    ServingRuntime runtime(cfg, &node);
    const ServingReport rep = runtime.run();
    EXPECT_GT(rep.total.served, 0);

    // The batch ledger holds the calibration points.
    EXPECT_FALSE(calibration_points(rep.batch_records).empty());
}

TEST(Runtime, PlannerBeatsStaticBaselines)
{
    // Smoke version of the acceptance sweep (check_serving runs the
    // full one): on the bursty interactive mix the online planner's
    // miss rate must not exceed any static policy's.
    auto miss_rate = [](PlannerMode mode, int64_t static_b) {
        ServingConfig cfg = make_scenario("interactive_burst", 6.0, 7);
        cfg.planner.mode = mode;
        cfg.planner.static_batch = static_b;
        ServingRuntime runtime(cfg);
        return runtime.run().total.miss_rate;
    };
    const double online = miss_rate(PlannerMode::kOnline, 0);
    EXPECT_LE(online, miss_rate(PlannerMode::kStatic, 1));
    EXPECT_LE(online, miss_rate(PlannerMode::kStatic, 16));
}

// ---- planner hardening + overrides --------------------------------

TEST(Planner, EmptyQueueYieldsTheExplicitEmptyDecision)
{
    const BatchPlanner planner(PlannerConfig{});
    const GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();
    const BatchDecision d = planner.plan(gpu, net, 0.0, {}, 0.0);
    EXPECT_EQ(d.batch, 0);
    EXPECT_DOUBLE_EQ(d.predicted_s, 0.0);
    EXPECT_TRUE(d.deadline_feasible);
}

TEST(Planner, OverridesInflateSafetyAndForceDrain)
{
    const BatchPlanner planner(PlannerConfig{});
    const GpuModel gpu(tx1_spec());
    const NetworkDesc net = alexnet_desc();

    // Front slack of 2x the batch-8 prediction: the full batch fits
    // at safety 1x, but a 3x-inflated margin must back off to a
    // smaller (still feasible) prefix.
    const double t1 =
        kPlannerSafety * gpu.predicted_batch_latency(net, 1);
    const double t8 =
        kPlannerSafety * gpu.predicted_batch_latency(net, 8);
    ASSERT_LT(3.0 * t1, 2.0 * t8); // batch 1 survives the inflation
    std::vector<double> deadlines(8, 2.0 * t8);
    EXPECT_EQ(planner.plan(gpu, net, 0.0, deadlines, 0.0).batch, 8);

    PlanOverrides hedged;
    hedged.safety_mult = 3.0;
    const BatchDecision careful =
        planner.plan(gpu, net, 0.0, deadlines, 0.0, hedged);
    EXPECT_TRUE(careful.deadline_feasible);
    EXPECT_LT(careful.batch, 8);

    // Forced drain ignores a perfectly feasible front deadline.
    PlanOverrides drain;
    drain.force_drain = true;
    const std::vector<double> relaxed(8, 100.0);
    const BatchDecision forced =
        planner.plan(gpu, net, 0.0, relaxed, 0.0, drain);
    EXPECT_FALSE(forced.deadline_feasible);
    EXPECT_EQ(forced.batch, 8); // Eq 5 throughput grows with batch
}

// ---- per-class admission accounting + degraded shedding ------------

/** One class's row, counted straight off the run's request ledger. */
ClassReport
ledger_row(const ServingReport& rep, int cls)
{
    ClassReport c;
    for (const Request& r : rep.requests) {
        if (r.cls != cls) continue;
        ++c.arrived;
        switch (r.outcome) {
        case Outcome::kServed: ++c.served; break;
        case Outcome::kDroppedCapacity: ++c.dropped_capacity; break;
        case Outcome::kShedExpired: ++c.shed_expired; break;
        case Outcome::kShedDegraded: ++c.shed_degraded; break;
        case Outcome::kPending: ADD_FAILURE() << "undecided " << r.id;
        }
    }
    return c;
}

void
expect_rows_match(const ClassReport& got, const ClassReport& want)
{
    EXPECT_EQ(got.arrived, want.arrived) << got.name;
    EXPECT_EQ(got.served, want.served) << got.name;
    EXPECT_EQ(got.dropped_capacity, want.dropped_capacity) << got.name;
    EXPECT_EQ(got.shed_expired, want.shed_expired) << got.name;
    EXPECT_EQ(got.shed_degraded, want.shed_degraded) << got.name;
}

TEST(AdmissionQueue, SplitsStatsByClass)
{
    // The queue refuses and sheds whatever class a request carries.
    AdmissionQueue q(2);
    Request r0 = make_request(0, 0.0, 0.5);
    Request r1 = make_request(1, 0.0, 0.2);
    r1.cls = 1;
    Request r2 = make_request(2, 0.0, 0.9);
    r2.cls = 1;
    EXPECT_TRUE(q.admit(r0));
    EXPECT_TRUE(q.admit(r1));
    EXPECT_FALSE(q.admit(r2)); // capacity 2: class-1 drop
    const auto shed = q.shed_expired(0.3);
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_EQ(shed[0].cls, 1);

    // The per-class split is the run's ledger. Static batch 1 on
    // bulk_heavy, with deadlines long enough that nothing expires
    // first, overflows the queue; each class row, and each
    // serving.queue.<class>.* counter, is that class's outcomes.
    ServingConfig cfg = make_scenario("bulk_heavy", 15.0, 3);
    cfg.planner.mode = PlannerMode::kStatic;
    cfg.planner.static_batch = 1;
    for (RequestClass& c : cfg.mix.classes) c.deadline_s *= 50.0;
    auto& reg = obs::MetricsRegistry::global();
    auto queue_counter = [&reg](const RequestClass& c, const char* n) {
        return reg.counter("serving.queue." + c.name + "." + n).value();
    };
    std::vector<std::array<int64_t, 3>> before;
    for (const RequestClass& c : cfg.mix.classes)
        before.push_back({queue_counter(c, "arrived"),
                          queue_counter(c, "admitted"),
                          queue_counter(c, "dropped_capacity")});
    const ServingReport rep = ServingRuntime(cfg).run();
    ASSERT_GT(rep.total.dropped_capacity, 0);

    ClassReport sum;
    for (size_t i = 0; i < rep.classes.size(); ++i) {
        const ClassReport& c = rep.classes[i];
        const ClassReport want = ledger_row(rep, static_cast<int>(i));
        expect_rows_match(c, want);
        const RequestClass& rc = cfg.mix.classes[i];
        EXPECT_EQ(queue_counter(rc, "arrived") - before[i][0], c.arrived);
        EXPECT_EQ(queue_counter(rc, "admitted") - before[i][1],
                  c.arrived - c.dropped_capacity - c.shed_degraded);
        EXPECT_EQ(queue_counter(rc, "dropped_capacity") - before[i][2],
                  c.dropped_capacity);
        sum.arrived += c.arrived;
        sum.served += c.served;
        sum.dropped_capacity += c.dropped_capacity;
        sum.shed_expired += c.shed_expired;
        sum.shed_degraded += c.shed_degraded;
    }
    sum.name = "total";
    expect_rows_match(rep.total, sum);
}

TEST(AdmissionQueue, DegradedSheddingRefusesMaskedClasses)
{
    AdmissionQueue q(8);
    q.set_degraded_shedding({false, true});
    EXPECT_TRUE(q.sheds_class(1));
    EXPECT_FALSE(q.sheds_class(0));

    Request keep = make_request(0, 0.0, 0.5);
    Request shed = make_request(1, 0.0, 0.5);
    shed.cls = 1;
    EXPECT_TRUE(q.admit(keep));
    EXPECT_FALSE(q.admit(shed));
    EXPECT_EQ(q.depth(), 1u);

    // Clearing the mask restores admission (the ladder's reversal).
    q.set_degraded_shedding({});
    EXPECT_TRUE(q.admit(shed));
    EXPECT_EQ(q.depth(), 2u);

    // In a run, the ledger marks every refusal at its arrival, only
    // ever on a best_effort class, and the class rows count them.
    const ServingConfig cfg = make_device_chaos(12.0, 17);
    const ServingReport rep = ServingRuntime(cfg).run();
    ASSERT_GT(rep.total.shed_degraded, 0);
    for (const Request& r : rep.requests) {
        if (r.outcome != Outcome::kShedDegraded) continue;
        EXPECT_TRUE(cfg.mix.classes[static_cast<size_t>(r.cls)]
                        .best_effort)
            << r.id;
        EXPECT_EQ(r.dequeued_s, r.arrival_s) << r.id;
        EXPECT_EQ(r.done_s, r.arrival_s) << r.id;
    }
    for (size_t i = 0; i < rep.classes.size(); ++i)
        expect_rows_match(rep.classes[i],
                          ledger_row(rep, static_cast<int>(i)));
}

// ---- gray-failure detector -----------------------------------------

TEST(Detector, WalksTheLadderAndRecovers)
{
    DetectorConfig cfg;
    cfg.alpha = 0.5;
    cfg.escalate_after = 3;
    cfg.probation_batches = 2;
    GrayFailureDetector det(cfg);
    EXPECT_EQ(det.state(), DeviceHealth::kHealthy);
    EXPECT_EQ(det.rung(), 0);

    // Small residuals: healthy stays healthy.
    for (int i = 0; i < 10; ++i) {
        const auto v = det.observe(0.03);
        EXPECT_FALSE(v.changed);
        EXPECT_EQ(v.state, DeviceHealth::kHealthy);
    }

    // A sustained 60% divergence climbs suspect -> degraded and then
    // escalates one rung per 3-batch high streak up to the top.
    auto v = det.observe(0.6); // ewma 0.315 > suspect_enter
    EXPECT_TRUE(v.changed);
    EXPECT_EQ(v.state, DeviceHealth::kSuspect);
    EXPECT_EQ(v.rung, 1);
    v = det.observe(0.6); // ewma > degraded_enter
    EXPECT_EQ(v.state, DeviceHealth::kDegraded);
    EXPECT_EQ(v.rung, 2);
    for (int i = 0; i < 3; ++i) v = det.observe(0.6);
    EXPECT_EQ(v.rung, 3);
    for (int i = 0; i < 3; ++i) v = det.observe(0.6);
    EXPECT_EQ(v.rung, 4);
    for (int i = 0; i < 3; ++i) v = det.observe(0.6);
    EXPECT_EQ(v.rung, kMaxRung); // clamped at the top rung

    // Residuals recover: degraded -> probation, and after the clean
    // run the detector demands a recalibration before healthy.
    while (det.state() == DeviceHealth::kDegraded)
        v = det.observe(0.01);
    EXPECT_EQ(v.state, DeviceHealth::kProbation);
    EXPECT_EQ(v.rung, 1);
    v = det.observe(0.01);
    EXPECT_FALSE(v.calibrate);
    v = det.observe(0.01);
    EXPECT_TRUE(v.calibrate);
    EXPECT_EQ(v.state, DeviceHealth::kHealthy);
    EXPECT_EQ(v.rung, 0);
}

TEST(Detector, OneDirtyBatchVoidsProbation)
{
    DetectorConfig cfg;
    cfg.alpha = 0.5;
    cfg.probation_batches = 4;
    GrayFailureDetector det(cfg);
    while (det.state() != DeviceHealth::kDegraded) det.observe(0.8);
    while (det.state() != DeviceHealth::kProbation)
        det.observe(0.01);
    det.observe(0.01);
    // One residual above suspect_enter sends it straight back.
    const auto v = det.observe(0.5);
    EXPECT_EQ(v.state, DeviceHealth::kDegraded);
    EXPECT_EQ(v.rung, 2);
}

// ---- device chaos end to end ---------------------------------------

TEST(Chaos, FaultFreeRunNeverTripsTheDetector)
{
    // A guarded fault-free run must behave byte-identically to the
    // unguarded runtime: zero transitions, zero rungs, identical
    // transcript (the PR 7 baseline).
    auto once = [](bool guarded) {
        ServingConfig cfg = make_scenario("diurnal_corun", 8.0, 13);
        cfg.transcript = TranscriptLevel::kFull;
        cfg.degrade = guarded;
        ServingRuntime runtime(cfg);
        return runtime.run();
    };
    const ServingReport guarded = once(true);
    const ServingReport unguarded = once(false);
    EXPECT_EQ(guarded.degradation.transitions, 0);
    EXPECT_EQ(guarded.degradation.max_rung, 0);
    EXPECT_EQ(guarded.total.shed_degraded, 0);
    EXPECT_EQ(guarded.degradation.final_state, "healthy");
    EXPECT_EQ(guarded.transcript, unguarded.transcript);
    EXPECT_DOUBLE_EQ(guarded.total.miss_rate,
                     unguarded.total.miss_rate);
}

TEST(Chaos, RunsAreByteDeterministic)
{
    auto once = []() {
        ServingConfig cfg = make_device_chaos(12.0, 17);
        cfg.transcript = TranscriptLevel::kFull;
        ServingRuntime runtime(cfg);
        return runtime.run();
    };
    const ServingReport a = once();
    const ServingReport b = once();
    EXPECT_EQ(a.transcript, b.transcript);
    EXPECT_EQ(a.degradation.transitions, b.degradation.transitions);
    EXPECT_EQ(a.degradation.max_rung, b.degradation.max_rung);
    EXPECT_EQ(a.total.shed_degraded,
              b.total.shed_degraded);
    EXPECT_DOUBLE_EQ(a.degradation.final_ewma,
                     b.degradation.final_ewma);
    // The device faults actually fired.
    EXPECT_GT(a.degradation.throttled_batches, 0);
    EXPECT_GT(a.degradation.storm_batches, 0);
}

TEST(Chaos, LadderEngagesShedsAndRecovers)
{
    ServingConfig cfg = make_device_chaos(30.0, 11);
    ServingRuntime runtime(cfg);
    const ServingReport rep = runtime.run();

    // The ladder walked: shedding engaged (rung 2+), co-run windows
    // were skipped, sick-era calibration was suspended, and at least
    // one probation ended in a recalibrate-then-recover.
    EXPECT_GE(rep.degradation.max_rung, 2);
    EXPECT_GT(rep.total.shed_degraded, 0);
    EXPECT_GT(rep.degradation.diag_skipped, 0);
    EXPECT_GT(rep.degradation.calib_skipped, 0);
    EXPECT_GE(rep.degradation.probations, 1);
    EXPECT_GE(rep.degradation.recoveries, 1);
    // Conservation: every arrival is served, dropped or shed.
    EXPECT_EQ(rep.total.arrived,
              rep.total.served + rep.total.dropped_capacity +
                  rep.total.shed_expired +
                  rep.total.shed_degraded);
    // Only best-effort classes were shed at admission.
    EXPECT_EQ(rep.classes[0].shed_degraded, 0); // interactive
    EXPECT_GT(rep.classes[1].shed_degraded +
                  rep.classes[2].shed_degraded,
              0);
}

TEST(Chaos, LadderProtectsTheGuaranteedClass)
{
    // The acceptance bar: under the throttle + storm + stall mix the
    // degradation ladder keeps the guaranteed class's deadline-miss
    // rate strictly below the unguarded online planner's.
    auto miss = [](bool guarded) {
        ServingConfig cfg = make_device_chaos(30.0, 11);
        cfg.degrade = guarded;
        ServingRuntime runtime(cfg);
        return runtime.run().classes[0].miss_rate; // interactive
    };
    EXPECT_LT(miss(true), miss(false));
}

} // namespace
} // namespace insitu::serving
