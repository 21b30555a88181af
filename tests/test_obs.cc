/**
 * @file
 * Tests for the deterministic telemetry layer: metric semantics
 * (sharded counters, inclusive histogram bucket edges, quantized
 * sums), span nesting and parallel-region suppression, exporter
 * goldens, and the hard guarantee the layer is built around —
 * simulated-time telemetry is byte-identical at any thread width.
 * Also exercises the log-level atomic from pool workers (covered by
 * the width-4 and TSan ctest passes).
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/clock.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace insitu {
namespace {

/// Run @p fn at a forced execution width, then restore the default.
template <typename Fn>
auto
with_threads(int threads, Fn&& fn)
{
    set_num_threads(threads);
    auto result = fn();
    set_num_threads(0);
    return result;
}

TEST(Counter, SumsShardsExactly)
{
    obs::Counter c;
    EXPECT_EQ(c.value(), 0);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42);
    c.reset();
    EXPECT_EQ(c.value(), 0);
}

TEST(Counter, ParallelBumpsMatchSerialAtAnyWidth)
{
    auto bump = [](int threads) {
        return with_threads(threads, [] {
            obs::Counter c;
            parallel_for(0, 1000, 7, [&](int64_t b, int64_t e) {
                for (int64_t i = b; i < e; ++i) c.add(2);
            });
            return c.value();
        });
    };
    EXPECT_EQ(bump(1), 2000);
    EXPECT_EQ(bump(4), 2000);
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds)
{
    obs::Histogram h({{1.0, 2.0}, 1e-9});
    h.observe(-1.0); // below-range clamps into the first bucket
    h.observe(1.0);  // exactly on an edge: belongs to that bucket
    h.observe(1.5);
    h.observe(2.0);
    h.observe(2.5); // above the last bound: overflow bucket
    EXPECT_EQ(h.count(), 5);
    const auto buckets = h.bucket_counts();
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_EQ(buckets[0], 2); // -1.0, 1.0
    EXPECT_EQ(buckets[1], 2); // 1.5, 2.0
    EXPECT_EQ(buckets[2], 1); // 2.5
    EXPECT_NEAR(h.sum(), 6.0, 1e-6);
}

TEST(Histogram, QuantizedSumIsExactAcrossParallelObservers)
{
    auto observe = [](int threads) {
        return with_threads(threads, [] {
            obs::Histogram h(obs::default_time_options());
            parallel_for(0, 500, 3, [&](int64_t b, int64_t e) {
                for (int64_t i = b; i < e; ++i)
                    h.observe(0.001 * static_cast<double>(i));
            });
            return h.sum();
        });
    };
    // Integer quanta merge order-independently: not just close, equal.
    EXPECT_EQ(observe(1), observe(4));
}

TEST(Registry, EmptySnapshotHasNoMetrics)
{
    obs::MetricsRegistry registry;
    EXPECT_TRUE(registry.snapshot().metrics.empty());
    EXPECT_EQ(registry.snapshot().find("nope"), nullptr);
}

TEST(Registry, SnapshotIsNameSortedAndHandlesAreStable)
{
    obs::MetricsRegistry registry;
    obs::Counter& b = registry.counter("b.count");
    registry.gauge("a.gauge").set(1.5);
    obs::Counter& b_again = registry.counter("b.count");
    EXPECT_EQ(&b, &b_again);
    b.add(3);
    const auto snap = registry.snapshot();
    ASSERT_EQ(snap.metrics.size(), 2u);
    EXPECT_EQ(snap.metrics[0].name, "a.gauge");
    EXPECT_EQ(snap.metrics[1].name, "b.count");
    EXPECT_EQ(snap.metrics[1].count, 3);
    registry.reset();
    EXPECT_EQ(registry.snapshot().find("b.count")->count, 0);
}

TEST(Registry, GlobalSnapshotMirrorsWidthIndependentPoolTallies)
{
    auto run = [](int threads) {
        return with_threads(threads, [] {
            reset_parallel_stats();
            parallel_for(0, 64, 4, [](int64_t, int64_t) {});
            parallel_for(0, 2, 4, [](int64_t, int64_t) {});
            const auto snap =
                obs::MetricsRegistry::global().snapshot();
            const auto* chunks = snap.find("parallel.chunks");
            const auto* runs = snap.find("parallel.runs");
            EXPECT_NE(chunks, nullptr);
            EXPECT_NE(runs, nullptr);
            return std::pair<int64_t, int64_t>(chunks->count,
                                               runs->count);
        });
    };
    const auto serial = run(1);
    const auto wide = run(4);
    EXPECT_EQ(serial.first, 17); // 16 + 1 chunks, width-independent
    EXPECT_EQ(serial, wide);
}

TEST(ParallelRegion, DetectedOnEveryExecutionPathAtEveryWidth)
{
    for (const int threads : {1, 4}) {
        with_threads(threads, [] {
            EXPECT_FALSE(in_parallel_region());
            parallel_for(0, 8, 1, [](int64_t, int64_t) {
                EXPECT_TRUE(in_parallel_region());
            });
            // Single-chunk shortcut must agree with the pool path.
            parallel_for(0, 3, 8, [](int64_t, int64_t) {
                EXPECT_TRUE(in_parallel_region());
            });
            EXPECT_FALSE(in_parallel_region());
            return 0;
        });
    }
}

TEST(Clock, SimulatedModeIsPinnedToPublishedTime)
{
    auto& clock = obs::TelemetryClock::global();
    clock.enable_simulated(5.0);
    EXPECT_TRUE(clock.simulated());
    EXPECT_DOUBLE_EQ(clock.now_s(), 5.0);
    clock.set_simulated_time_s(9.5);
    EXPECT_DOUBLE_EQ(clock.now_s(), 9.5);
    clock.enable_wall();
    EXPECT_FALSE(clock.simulated());
    clock.set_simulated_time_s(77.0); // no-op in wall mode
    const double a = obs::now_s();
    const double b = obs::now_s();
    EXPECT_LE(a, b); // monotonic hardware seconds, not 77
}

/// One deterministic traced scenario against the global recorder;
/// returns the exported JSONL (spans only — private empty registry).
std::string
traced_scenario()
{
    auto& rec = obs::TraceRecorder::global();
    auto& clock = obs::TelemetryClock::global();
    rec.clear();
    rec.set_enabled(true);
    clock.enable_simulated(100.0);
    {
        obs::ScopedSpan outer("outer", "key", "value");
        clock.set_simulated_time_s(101.0);
        { obs::ScopedSpan inner("inner"); }
        parallel_for(0, 16, 1, [](int64_t, int64_t) {
            // Serial-context-only rule: these must vanish, at every
            // width — a worker-recorded span would interleave
            // nondeterministically.
            obs::ScopedSpan dropped("must-not-appear");
        });
        clock.set_simulated_time_s(102.0);
        rec.instant("tick", {{"n", "1"}});
    }
    std::ostringstream os;
    obs::MetricsRegistry empty;
    obs::export_jsonl(os, empty, rec);
    rec.set_enabled(false);
    rec.clear();
    clock.enable_wall();
    return os.str();
}

TEST(Trace, SimulatedTraceIsByteIdenticalAcrossWidths)
{
    const std::string serial =
        with_threads(1, [] { return traced_scenario(); });
    const std::string wide =
        with_threads(4, [] { return traced_scenario(); });
    EXPECT_EQ(serial, wide);
    EXPECT_NE(serial.find("\"name\":\"outer\""), std::string::npos);
    EXPECT_NE(serial.find("\"name\":\"inner\""), std::string::npos);
    EXPECT_NE(serial.find("\"name\":\"tick\""), std::string::npos);
    EXPECT_EQ(serial.find("must-not-appear"), std::string::npos);
}

TEST(Trace, SpansNestWithParentLinks)
{
    auto& rec = obs::TraceRecorder::global();
    rec.clear();
    rec.set_enabled(true);
    {
        obs::ScopedSpan a("a");
        {
            obs::ScopedSpan b("b");
            rec.instant("leaf");
        }
        obs::ScopedSpan c("c");
    }
    rec.set_enabled(false);
    const auto records = rec.snapshot();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0].name, "a");
    EXPECT_EQ(records[0].parent, -1);
    EXPECT_EQ(records[1].name, "b");
    EXPECT_EQ(records[1].parent, records[0].id);
    EXPECT_EQ(records[2].name, "leaf");
    EXPECT_TRUE(records[2].instant);
    EXPECT_EQ(records[2].parent, records[1].id);
    EXPECT_EQ(records[3].name, "c");
    EXPECT_EQ(records[3].parent, records[0].id);
    rec.clear();
}

TEST(Trace, DisabledRecorderRecordsNothing)
{
    auto& rec = obs::TraceRecorder::global();
    rec.clear();
    {
        obs::ScopedSpan a("invisible");
        rec.instant("also-invisible");
    }
    EXPECT_EQ(rec.size(), 0u);
}

TEST(Export, JsonlGolden)
{
    obs::MetricsRegistry registry;
    registry.counter("a.count").add(3);
    registry.gauge("b.gauge").set(2.5);
    auto& h = registry.histogram("c.hist", {{1.0, 10.0}, 1e-9});
    h.observe(0.5);
    h.observe(5.0);
    h.observe(50.0);

    obs::TraceRecorder recorder;
    recorder.set_enabled(true);
    obs::TelemetryClock::global().enable_simulated(7.25);
    const int64_t root = recorder.begin("root");
    recorder.instant("evt");
    recorder.end(root);

    std::ostringstream os;
    obs::export_jsonl(os, registry, recorder);
    obs::TelemetryClock::global().enable_wall();

    EXPECT_EQ(
        os.str(),
        "{\"type\":\"meta\",\"version\":1,\"clock\":\"simulated\","
        "\"dropped_spans\":0}\n"
        "{\"type\":\"counter\",\"name\":\"a.count\",\"value\":3}\n"
        "{\"type\":\"gauge\",\"name\":\"b.gauge\",\"value\":"
        "2.500000000}\n"
        "{\"type\":\"histogram\",\"name\":\"c.hist\",\"count\":3,"
        "\"sum\":55.500000000,\"buckets\":[[1.000000000,1],"
        "[10.000000000,1],[\"inf\",1]],\"p50\":10.000000000,"
        "\"p90\":10.000000000,\"p99\":10.000000000}\n"
        "{\"type\":\"span\",\"id\":0,\"parent\":-1,\"name\":\"root\","
        "\"start\":7.250000000,\"end\":7.250000000}\n"
        "{\"type\":\"instant\",\"id\":1,\"parent\":0,\"name\":\"evt\","
        "\"start\":7.250000000}\n");
}

TEST(Export, ChromeTraceHasCompleteAndInstantEvents)
{
    obs::TraceRecorder recorder;
    recorder.set_enabled(true);
    obs::TelemetryClock::global().enable_simulated(1.0);
    const int64_t root = recorder.begin("work");
    obs::TelemetryClock::global().set_simulated_time_s(2.0);
    recorder.instant("mark");
    recorder.end(root);
    obs::TelemetryClock::global().enable_wall();

    std::ostringstream os;
    obs::export_chrome_trace(os, recorder);
    const std::string trace = os.str();
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(trace.find("\"dur\":1000000.000000000"),
              std::string::npos);
}

TEST(Export, WallOnlyMetricsSuppressedInSimulatedMode)
{
    obs::MetricsRegistry registry;
    registry.counter("a.count").add(1);
    registry.histogram("cloud.update.wall_s").observe(0.5);
    obs::TraceRecorder recorder;

    obs::TelemetryClock::global().enable_simulated(0.0);
    std::ostringstream sim;
    obs::export_jsonl(sim, registry, recorder);
    EXPECT_EQ(sim.str().find("wall_s"), std::string::npos);
    EXPECT_NE(sim.str().find("a.count"), std::string::npos);

    obs::TelemetryClock::global().enable_wall();
    std::ostringstream wall;
    obs::export_jsonl(wall, registry, recorder);
    EXPECT_NE(wall.str().find("cloud.update.wall_s"),
              std::string::npos);
}

TEST(Export, JsonEscapeHandlesControlAndQuoteCharacters)
{
    EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(obs::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Export, EmptyRegistryExportsJustTheMetaLine)
{
    obs::MetricsRegistry registry;
    obs::TraceRecorder recorder;
    obs::TelemetryClock::global().enable_simulated(0.0);
    std::ostringstream os;
    obs::export_jsonl(os, registry, recorder);
    obs::TelemetryClock::global().enable_wall();
    EXPECT_EQ(os.str(),
              "{\"type\":\"meta\",\"version\":1,"
              "\"clock\":\"simulated\",\"dropped_spans\":0}\n");
}

TEST(Export, SingleBucketHistogramQuantilesClampToTheOnlyBound)
{
    obs::MetricsRegistry registry;
    auto& h = registry.histogram("one.hist", {{1.0}, 1e-9});
    h.observe(0.5); // in the single finite bucket
    h.observe(5.0); // overflow
    const auto snap = registry.snapshot();
    const obs::MetricValue* m = snap.find("one.hist");
    ASSERT_NE(m, nullptr);
    // p50 resolves to the finite bound; p99 lands in the overflow
    // bucket, which cannot resolve beyond the last finite bound.
    EXPECT_DOUBLE_EQ(
        obs::histogram_quantile(m->bounds, m->bucket_counts, 0.50),
        1.0);
    EXPECT_DOUBLE_EQ(
        obs::histogram_quantile(m->bounds, m->bucket_counts, 0.99),
        1.0);
    EXPECT_EQ(obs::histogram_percentile_summary(*m),
              "p50=1.000000000 p90=1.000000000 p99=1.000000000");
    // No finite bounds at all: the quantile has nothing to report.
    EXPECT_DOUBLE_EQ(obs::histogram_quantile({}, {2}, 0.5), 0.0);
    // And an empty histogram reports zero, not a crash.
    EXPECT_DOUBLE_EQ(obs::histogram_quantile({1.0}, {0, 0}, 0.5),
                     0.0);
}

TEST(Export, QuantileUsesNearestRankOverBucketCounts)
{
    const std::vector<double> bounds = {1.0, 2.0, 3.0};
    const std::vector<int64_t> counts = {1, 1, 1, 0};
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 0.0),
                     1.0); // rank clamps to 1
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 0.50),
                     2.0);
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(bounds, counts, 1.0),
                     3.0);
}

TEST(Export, MetricNamesWithSlashesSurviveJsonl)
{
    obs::MetricsRegistry registry;
    registry.counter("bench/gemm.calls").add(2);
    obs::TraceRecorder recorder;
    obs::TelemetryClock::global().enable_simulated(0.0);
    std::ostringstream os;
    obs::export_jsonl(os, registry, recorder);
    obs::TelemetryClock::global().enable_wall();
    EXPECT_NE(os.str().find(
                  "{\"type\":\"counter\",\"name\":\"bench/gemm.calls\""
                  ",\"value\":2}"),
              std::string::npos);
}

TEST(Trace, MintedContextsAreDeterministicAndNeverZero)
{
    const obs::TraceContext a = obs::mint_trace_context(7, 1);
    const obs::TraceContext again = obs::mint_trace_context(7, 1);
    const obs::TraceContext b = obs::mint_trace_context(7, 2);
    EXPECT_EQ(a.trace_id, again.trace_id); // pure function of inputs
    EXPECT_NE(a.trace_id, b.trace_id);
    EXPECT_TRUE(a.valid());
    EXPECT_FALSE(obs::TraceContext{}.valid());
}

TEST(Trace, CapacityDropsAreCountedWidthIndependently)
{
    auto run = [](int threads) {
        return with_threads(threads, [] {
            obs::TraceRecorder rec;
            rec.set_enabled(true);
            rec.set_capacity(2);
            EXPECT_EQ(rec.instant_at(1.0, "a"), 0);
            EXPECT_EQ(rec.instant_at(2.0, "b"), 1);
            parallel_for(0, 16, 1, [&](int64_t, int64_t) {
                // Parallel-region records are suppressed silently —
                // they are not capacity drops, so they must not
                // perturb the drop count at any width.
                rec.instant_at(3.0, "suppressed");
            });
            for (int i = 0; i < 3; ++i)
                EXPECT_EQ(rec.instant_at(4.0, "over"), -1);
            return std::pair<size_t, int64_t>(rec.size(),
                                              rec.dropped());
        });
    };
    const auto serial = run(1);
    EXPECT_EQ(serial.first, 2u);
    EXPECT_EQ(serial.second, 3);
    EXPECT_EQ(run(4), serial);
}

TEST(Trace, ClearRestoresTheDefaultCapacity)
{
    obs::TraceRecorder rec;
    rec.set_enabled(true);
    rec.set_capacity(1);
    EXPECT_EQ(rec.instant_at(1.0, "kept"), 0);
    EXPECT_EQ(rec.instant_at(1.0, "dropped"), -1);
    rec.clear();
    EXPECT_EQ(rec.dropped(), 0);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(rec.instant_at(1.0, "fits"), i);
}

TEST(Trace, FlowEdgesLinkSpansAndExportAsChromeFlowEvents)
{
    obs::TraceRecorder rec;
    rec.set_enabled(true);
    obs::TelemetryClock::global().enable_simulated(1.0);
    const int64_t src = rec.instant("src");
    const int64_t dst = rec.instant("dst");

    obs::TraceContext ctx = obs::mint_trace_context(42, 0);
    ctx.parent_span = src;
    rec.flow(ctx, dst);
    // Unminted / dangling-ended edges are ignored, not recorded.
    rec.flow(obs::TraceContext{}, dst);
    rec.flow(ctx, -1);
    ASSERT_EQ(rec.flows().size(), 1u);
    EXPECT_EQ(rec.flows()[0].trace_id, ctx.trace_id);
    EXPECT_EQ(rec.flows()[0].from, src);
    EXPECT_EQ(rec.flows()[0].to, dst);

    std::ostringstream jsonl;
    obs::MetricsRegistry empty;
    obs::export_jsonl(jsonl, empty, rec);
    EXPECT_NE(jsonl.str().find("{\"type\":\"flow\",\"trace\":\""),
              std::string::npos);
    EXPECT_NE(jsonl.str().find("\"from\":0,\"to\":1}"),
              std::string::npos);

    std::ostringstream chrome;
    obs::export_chrome_trace(chrome, rec);
    obs::TelemetryClock::global().enable_wall();
    const std::string trace = chrome.str();
    EXPECT_NE(trace.find("\"cat\":\"flow\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(trace.find("\"bp\":\"e\""), std::string::npos);
}

TEST(Slo, BurnRateAlertRaisesOnBothWindowsAndClearsWithHysteresis)
{
    obs::SloObjective obj;
    obj.name = "test.link";
    obj.objective = 0.5; // budget 0.5: all-bad traffic burns at 2.0
    obj.fast_window_s = 2.0;
    obj.slow_window_s = 4.0;
    obj.burn_alert = 2.0;
    obj.min_events = 4;

    obs::MetricsRegistry registry;
    obs::SloEngine engine(&registry);
    const size_t h = engine.declare(obj);

    // Three bad outcomes: both windows burn at 2.0 but the event
    // floor is not met yet.
    EXPECT_EQ(engine.record(h, 0.1, false), obs::SloEvent::kNone);
    EXPECT_EQ(engine.record(h, 0.2, false), obs::SloEvent::kNone);
    EXPECT_EQ(engine.record(h, 0.3, false), obs::SloEvent::kNone);
    // The fourth crosses min_events: raise exactly once.
    EXPECT_EQ(engine.record(h, 0.4, false),
              obs::SloEvent::kAlertRaised);
    EXPECT_TRUE(engine.tracker(h).alerting());
    EXPECT_EQ(engine.record(h, 0.5, false), obs::SloEvent::kNone);

    // Jump past the slow window so every bucket of bad history ages
    // out; one good outcome drops both burns to 0 -> cleared.
    EXPECT_EQ(engine.record(h, 10.0, true),
              obs::SloEvent::kAlertCleared);
    EXPECT_FALSE(engine.tracker(h).alerting());

    const auto snap = registry.snapshot();
    const auto* alerts = snap.find("slo.test.link.alerts");
    ASSERT_NE(alerts, nullptr);
    EXPECT_EQ(alerts->count, 1);
    const auto* fast = snap.find("slo.test.link.burn_rate.fast");
    ASSERT_NE(fast, nullptr);
    EXPECT_DOUBLE_EQ(fast->value, 0.0); // last record was all-good
}

TEST(Slo, BurnRateIsBadFractionOverBudget)
{
    obs::SloObjective obj;
    obj.name = "x";
    obj.objective = 0.9; // budget 0.1
    obs::BurnRateTracker tracker(obj);
    tracker.record(0.1, true, 8);
    tracker.record(0.1, false, 2);
    // 20% bad over a 10% budget: burning twice too fast.
    EXPECT_DOUBLE_EQ(tracker.fast_burn(), 2.0);
    EXPECT_DOUBLE_EQ(tracker.slow_burn(), 2.0);
}

TEST(Flight, RingWrapsExactlyAtCapacity)
{
    obs::FlightRecorder fr(4);
    for (int i = 0; i < 4; ++i)
        fr.record(static_cast<double>(i),
                  "e" + std::to_string(i), "d");
    // Exactly at capacity: nothing evicted yet.
    EXPECT_EQ(fr.size(), 4u);
    EXPECT_EQ(fr.total(), 4);
    EXPECT_EQ(fr.snapshot().front().what, "e0");
    // One past capacity: the oldest goes, order stays oldest-first.
    fr.record(4.0, "e4", "d");
    EXPECT_EQ(fr.size(), 4u);
    EXPECT_EQ(fr.total(), 5);
    const auto events = fr.snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().what, "e1");
    EXPECT_EQ(events.back().what, "e4");
}

TEST(Flight, EncodeDecodeRoundTripsAndRejectsGarbage)
{
    obs::FlightRecorder fr(3);
    fr.record(1.5, "alpha", "k=1");
    fr.record(2.5, "beta"); // empty detail must survive the trip
    fr.record(3.5, "gamma", "k=3");
    fr.record(4.5, "delta", "k=4"); // evicts "alpha"

    const std::string blob = fr.encode();
    EXPECT_EQ(blob.rfind("flight\tv1\t", 0), 0u);

    std::vector<obs::FlightEvent> out;
    int64_t total = 0;
    ASSERT_TRUE(obs::FlightRecorder::decode(blob, out, &total));
    EXPECT_EQ(total, 4);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].what, "beta");
    EXPECT_EQ(out[0].detail, "");
    EXPECT_DOUBLE_EQ(out[0].t, 2.5);
    EXPECT_EQ(out[2].what, "delta");
    EXPECT_EQ(out[2].detail, "k=4");

    std::vector<obs::FlightEvent> junk;
    EXPECT_FALSE(obs::FlightRecorder::decode("not a dump", junk));
    EXPECT_FALSE(obs::FlightRecorder::decode("", junk));
}

TEST(Logging, LevelIsSafeToFlipWhilePoolWorkersRead)
{
    const LogLevel before = log_level();
    set_log_level(LogLevel::kSilent);
    with_threads(4, [] {
        // Readers (inform/debug suppressed at kSilent — no output)
        // race the flips below; the atomic level keeps this
        // TSan-clean (test_obs runs in the _tsan ctest pass).
        parallel_for(0, 256, 1, [](int64_t b, int64_t) {
            inform("never printed");
            debug("never printed");
            set_log_level(b % 2 == 0 ? LogLevel::kSilent
                                     : LogLevel::kWarn);
        });
        return 0;
    });
    set_log_level(before);
}

} // namespace
} // namespace insitu
