#include "serving/runtime.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <optional>
#include <utility>

#include "data/synth.h"
#include "iot/node.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serving/calibrate.h"
#include "storage/file.h"
#include "storage/snapshot.h"
#include "util/logging.h"

namespace insitu::serving {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Epsilon for "completed after its deadline": host arithmetic is
/// exact doubles, this only guards against representation noise.
constexpr double kDeadlineEps = 1e-12;

/// Admission queue bound; arrivals beyond it are dropped_capacity.
constexpr size_t kQueueCapacity = 512;

/// Period of the planner's online self-calibration refit.
constexpr double kCalibrationPeriodS = 2.0;

/// Images per co-running diagnosis batch (its outstanding work feeds
/// the Fig. 16 interference model).
constexpr int64_t kDiagnosisBatch = 9;

/// Measured batches required before the first calibration fit is
/// trusted.
constexpr int64_t kCalibrationMinSamples = 8;

/// PlanOverrides::safety_mult applied from ladder rung 1 up.
constexpr double kDegradedSafetyMult = 1.6;

// Per-RequestClass deadline-hit SLOs with multi-window burn-rate
// alerting (obs/slo.h). One objective is declared per mix class;
// completions, drops and sheds feed it on the serial event loop, and
// alert transcript lines are emitted *before* the degradation ladder
// reacts — so transcripts show alert → rung-escalation causality.

/// Deadline-hit objective of guaranteed classes.
constexpr double kSloObjective = 0.90;
/// Deadline-hit objective of best_effort classes: looser than the
/// guaranteed one, because the ladder sheds them first by design and
/// alerting at the guaranteed target would page on intended behavior.
constexpr double kBestEffortObjective = 0.75;
constexpr double kSloFastWindowS = 2.0;
constexpr double kSloSlowWindowS = 8.0;
/// Raise when both windows burn error budget at >= this rate.
constexpr double kSloBurnAlert = 2.0;
/// Fast-window events needed to alert.
constexpr int64_t kSloMinEvents = 8;

/** Nearest-rank quantile of an ascending-sorted vector. */
double
quantile(const std::vector<double>& sorted, double q)
{
    if (sorted.empty()) return 0.0;
    const double n = static_cast<double>(sorted.size());
    size_t idx = static_cast<size_t>(std::ceil(q * n));
    if (idx > 0) --idx;
    if (idx >= sorted.size()) idx = sorted.size() - 1;
    return sorted[idx];
}

/** Histogram options for batch sizes (integer values, exact sums). */
obs::HistogramOptions
batch_size_options()
{
    return {{1, 2, 4, 8, 16, 32, 64, 128}, 1.0};
}

/** Histogram options for relative residuals. */
obs::HistogramOptions
residual_options()
{
    return {{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0}, 1e-9};
}

/** Histogram options for request latencies: bounds bracketing the
 * deadline classes, so bucket-derived percentiles resolve them. */
obs::HistogramOptions
latency_options()
{
    return {{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0},
            1e-9};
}

} // namespace

struct ServingRuntime::Impl {
    ServingConfig cfg;
    InsituNode* node;
    const NetworkDesc net = alexnet_desc();

    obs::MetricsRegistry local; ///< per-run latency histogram

    std::vector<Request> arrivals;
    AdmissionQueue queue;
    DeviceTruth host;
    GpuModel planner_gpu; ///< the planner's (self-calibrating) model
    BatchPlanner planner;
    NetworkDesc diag_net;
    double diag_batch_ops = 0;

    // ---- device faults + gray-failure detection ----
    Rng device_stream; ///< the device-fault stream
    GrayFailureDetector detector;
    DeviceHealth cur_state = DeviceHealth::kHealthy;
    int cur_rung = 0;
    bool shedding = false; ///< ladder's admission mask installed?
    /// One flight dump per forced-drain episode: re-armed at every
    /// health transition, spent by the first drain after it (the
    /// rung-entry dump already captured the escalation itself).
    bool drain_dump_armed = true;

    // ---- event timeline state ----
    size_t next_arrival = 0;
    double next_update_s = kInf;
    double next_diag_s = kInf;
    double next_calib_s = kInf;
    double diag_until_s = -kInf;
    double diag_duration_s = 0;

    /// The batch in flight; its record is rep.batch_records.back().
    struct InFlight {
        std::vector<Request> reqs;
        int64_t span_id = -1;
    };
    std::optional<InFlight> flight;

    // ---- model-version double-buffer (mirrors the node if present,
    // self-tracked otherwise) ----
    uint64_t live_version = 1;
    uint64_t next_version = 1;
    uint64_t staged_version = 0; ///< 0 = nothing staged

    // ---- the ledger: `arrivals`, stamped in place and indexed by
    // id, and rep.batch_records ----
    ServingReport rep;
    int64_t real_predictions = 0;
    bool ran = false;

    // ---- SLO burn-rate engine + flight recorder ----
    obs::SloEngine slo_engine;
    std::vector<size_t> slo_handles; ///< one per mix class
    obs::FlightRecorder black_box{256};
    /// Causal identity of the staged (not yet committed) update.
    obs::TraceContext update_trace;
    uint64_t update_seq = 0;

    // Synthetic payload pool for real inference on the node.
    Dataset pool;

    Impl(ServingConfig config, InsituNode* n)
        : cfg(std::move(config)), node(n),
          queue(kQueueCapacity),
          host(tx1_spec(), serving_host(cfg.mix.seed)),
          planner_gpu(tx1_spec()), planner(cfg.planner),
          device_stream(cfg.device_faults.stream()),
          detector(DetectorConfig{})
    {
        cfg.device_faults.validated();
        diag_net = diagnosis_desc(net);
        diag_batch_ops =
            diag_net.total_ops() * static_cast<double>(kDiagnosisBatch);
        if (node != nullptr && cfg.real_inference_every > 0) {
            Rng pool_rng(cfg.mix.seed ^ 0x5EBF00D);
            pool = make_dataset(SynthConfig{},
                                std::max<int64_t>(kMaxBatch, 9),
                                Condition{}, pool_rng);
        }
        if (node != nullptr) live_version = node->model_version();
        for (const RequestClass& c : cfg.mix.classes) {
            obs::SloObjective obj;
            obj.name = "serving." + c.name + ".deadline";
            obj.objective =
                c.best_effort ? kBestEffortObjective : kSloObjective;
            obj.fast_window_s = kSloFastWindowS;
            obj.slow_window_s = kSloSlowWindowS;
            obj.burn_alert = kSloBurnAlert;
            obj.min_events = kSloMinEvents;
            slo_handles.push_back(slo_engine.declare(std::move(obj)));
        }
    }

    // ---- transcript -------------------------------------------------
    void
    line(TranscriptLevel min_level, const char* fmt, ...)
    {
        if (cfg.transcript < min_level) return;
        char buf[256];
        va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(buf, sizeof buf, fmt, ap);
        va_end(ap);
        rep.transcript += buf;
        rep.transcript += '\n';
    }

    /** Publish @p t to the telemetry clock (no-op in wall mode) so
     * spans and instants carry simulation timestamps. */
    void
    publish(double t)
    {
        obs::TelemetryClock::global().set_simulated_time_s(t);
    }

    double
    current_diag_ops(double t) const
    {
        return t < diag_until_s ? diag_batch_ops : 0.0;
    }

    // ---- SLO feed + flight recorder --------------------------------
    /**
     * Record one request outcome against its class's deadline SLO.
     * Alert lines land in the transcript here — on the event that
     * raised them, hence *before* observe_health() can escalate the
     * ladder — so transcripts show alert → rung causality.
     */
    void
    slo_record(double t, int cls, bool good)
    {
        const size_t h = slo_handles[static_cast<size_t>(cls)];
        publish(t);
        const obs::SloEvent ev = slo_engine.record(h, t, good);
        if (ev == obs::SloEvent::kNone) return;
        const obs::BurnRateTracker& tr = slo_engine.tracker(h);
        const char* name = tr.objective().name.c_str();
        if (ev == obs::SloEvent::kAlertRaised) {
            ++rep.slo_alerts;
            black_box.record(t, "slo.alert", tr.objective().name);
            line(TranscriptLevel::kSummary,
                 "[t=%.6f] slo alert %s fast_burn=%.2f "
                 "slow_burn=%.2f",
                 t, name, tr.fast_burn(), tr.slow_burn());
        } else {
            black_box.record(t, "slo.alert.cleared",
                             tr.objective().name);
            line(TranscriptLevel::kSummary,
                 "[t=%.6f] slo clear %s fast_burn=%.2f", t, name,
                 tr.fast_burn());
        }
    }

    /** Persist the flight-recorder ring (the chaos black box). The
     * dump is a pure function of the event history, so it byte-diffs
     * clean across thread widths; each trigger atomically replaces
     * the previous dump. */
    void
    dump_flight(double t)
    {
        if (cfg.flight_dump_path.empty()) return;
        storage::SnapshotStore store(
            storage::open_storage_file(cfg.flight_dump_path));
        if (store.write(black_box.encode())) {
            ++rep.flight_dumps;
            obs::MetricsRegistry::global()
                .counter("flight.dumps")
                .add(1);
            line(TranscriptLevel::kSummary,
                 "[t=%.6f] flight recorder dumped (%lld events, "
                 "%lld total)",
                 t, static_cast<long long>(black_box.size()),
                 static_cast<long long>(black_box.total()));
        }
    }

    // ---- double-buffer protocol ------------------------------------
    void
    stage_update(double t)
    {
        if (node != nullptr) {
            staged_version = node->stage_deployment(node->checkpoint());
        } else {
            staged_version = ++next_version;
        }
        ++rep.updates_staged;
        if (flight) ++rep.mid_batch_stages;
        publish(t);
        // Update lineage: a fresh trace per staged update, anchored
        // at the staged instant and flowed to its commit.
        update_trace = obs::mint_trace_context(
            cfg.mix.seed ^ 0xD3910Full, ++update_seq);
        update_trace.parent_span =
            obs::TraceRecorder::global().instant(
                "serving.swap.staged",
                {{"version", std::to_string(staged_version)}});
        black_box.record(t, "serving.swap.staged",
                         "v" + std::to_string(staged_version));
        line(TranscriptLevel::kSummary,
             "[t=%.6f] update v%llu staged%s", t,
             static_cast<unsigned long long>(staged_version),
             flight ? " (mid-batch)" : "");
    }

    /** Batch-boundary commit: the only place the live weights move. */
    void
    commit_staged(double t)
    {
        if (staged_version == 0) return;
        const uint64_t v = staged_version;
        staged_version = 0;
        if (node != nullptr) {
            INSITU_CHECK(node->commit_staged_deployment(),
                         "staged self-checkpoint failed to commit");
            live_version = node->model_version();
        } else {
            live_version = v;
        }
        ++rep.swaps_committed;
        const int64_t commit_span =
            obs::TraceRecorder::global().instant(
                "serving.swap.committed",
                {{"version", std::to_string(live_version)}});
        obs::TraceRecorder::global().flow(update_trace, commit_span);
        update_trace = {};
        black_box.record(t, "serving.swap.committed",
                         "v" + std::to_string(live_version));
        line(TranscriptLevel::kSummary,
             "[t=%.6f] swap v%llu committed at batch boundary", t,
             static_cast<unsigned long long>(live_version));
    }

    // ---- dispatch / completion -------------------------------------
    /** Stamp @p r as leaving unserved at @p t, for reason @p why:
     * a ledger entry, a transcript line and a missed SLO event. */
    void
    lose(double t, Request& r, Outcome why)
    {
        r.dequeued_s = r.done_s = t;
        r.outcome = why;
        line(TranscriptLevel::kFull, "[t=%.6f] %s id=%lld class=%s %s", t,
             why == Outcome::kDroppedCapacity ? "drop" : "shed",
             static_cast<long long>(r.id),
             cfg.mix.classes[static_cast<size_t>(r.cls)].name.c_str(),
             why == Outcome::kShedExpired    ? "expired"
             : why == Outcome::kShedDegraded ? "degraded"
                                             : "queue-full");
        slo_record(t, r.cls, /*good=*/false);
    }

    void
    try_dispatch(double t)
    {
        if (flight) return;
        // Already-expired requests are dropped at batch formation
        // instead of spending device time on guaranteed misses.
        for (const auto& r : queue.shed_expired(t))
            lose(t, arrivals[static_cast<size_t>(r.id)],
                 Outcome::kShedExpired);
        if (queue.empty()) return;

        const auto deadlines =
            queue.edf_deadlines(static_cast<size_t>(kMaxBatch));
        const double dops = current_diag_ops(t);
        // The degradation ladder's per-dispatch adjustments (identity
        // at rung 0, so healthy runs plan exactly as before).
        PlanOverrides ov;
        if (cur_rung >= 1) {
            ov.safety_mult = kDegradedSafetyMult;
            ++rep.degradation.safety_batches;
        }
        if (cur_rung >= kMaxRung) {
            ov.force_drain = true;
            ++rep.degradation.forced_drain;
            black_box.record(t, "serving.degrade.forced_drain",
                             "rung=" + std::to_string(cur_rung));
            if (drain_dump_armed) {
                drain_dump_armed = false;
                dump_flight(t);
            }
        }
        const BatchDecision d = planner.plan(planner_gpu, net, t,
                                             deadlines, dops, ov);
        INSITU_CHECK(d.batch > 0, "planner returned an empty batch");

        InFlight f;
        f.reqs = queue.pop_edf(static_cast<size_t>(d.batch));
        for (const Request& r : f.reqs)
            arrivals[static_cast<size_t>(r.id)].dequeued_s = t;
        BatchRecord b;
        b.seq = static_cast<int64_t>(rep.batch_records.size());
        b.start_s = t;
        b.size = d.batch;
        b.version =
            node != nullptr ? node->model_version() : live_version;
        b.deadline_feasible = d.deadline_feasible;
        // Ground truth: the host executes under the same Fig. 16
        // interference the planner predicted with.
        const double corun =
            dops > 0 ? host.model().corun_slowdown(
                           net.total_ops() *
                               static_cast<double>(d.batch),
                           dops)
                     : 1.0;
        b.exec_s = apply_device_faults(
            cfg.device_faults, device_stream, rep.degradation,
            host.run_batch(net, d.batch, corun), t);
        b.completion_s = t + b.exec_s;
        // Measured operating point for the calibration loop: the
        // pure inference time (interference divided back out — the
        // runtime knows the factor it applied). While the device is
        // unhealthy the sample is withheld — a fit must not learn
        // from a gray-failing device (probation refits once the
        // residuals are clean again).
        b.pure_exec_s = b.exec_s / corun;
        b.healthy = cur_state == DeviceHealth::kHealthy;
        rep.batch_records.push_back(b);

        if (node != nullptr && cfg.real_inference_every > 0 &&
            b.seq % cfg.real_inference_every == 0) {
            const int64_t n =
                std::min<int64_t>(d.batch, pool.size());
            const auto preds =
                node->inference().predict(pool.images.slice0(0, n));
            real_predictions += static_cast<int64_t>(preds.size());
        }

        publish(t);
        f.span_id = obs::TraceRecorder::global().begin_with_attrs(
            "serving.batch",
            {{"size", std::to_string(d.batch)},
             {"version", std::to_string(b.version)}});
        // Causal links: every admitted request's arrival instant
        // flows into the batch span that serves it.
        for (const Request& r : f.reqs)
            obs::TraceRecorder::global().flow(r.trace, f.span_id);
        black_box.record(t, "serving.batch.start",
                         "#" + std::to_string(b.seq) + " size=" +
                             std::to_string(d.batch) + " v" +
                             std::to_string(b.version));
        line(TranscriptLevel::kSummary,
             "[t=%.6f] batch #%lld start size=%lld version=%llu "
             "pred=%.6f corun=%.3f feasible=%d depth=%lld",
             t, static_cast<long long>(b.seq),
             static_cast<long long>(d.batch),
             static_cast<unsigned long long>(b.version),
             d.predicted_s, corun, d.deadline_feasible ? 1 : 0,
             static_cast<long long>(deadlines.size()));
        flight = std::move(f);
    }

    void
    complete(double t)
    {
        const InFlight f = std::move(*flight);
        flight.reset();
        const BatchRecord b = rep.batch_records.back();

        // No-tear proof: the live version must not have moved while
        // the batch was in flight (commits happen only right here,
        // after this check).
        const uint64_t now_version =
            node != nullptr ? node->model_version() : live_version;
        if (now_version != b.version) rep.swap_torn = true;

        int64_t late = 0;
        for (const auto& r : f.reqs) {
            Request& q = arrivals[static_cast<size_t>(r.id)];
            q.done_s = t;
            q.outcome = Outcome::kServed;
            const bool on_time = !(t > r.deadline_s + kDeadlineEps);
            if (!on_time) ++late;
            // SLO outcomes feed here, before observe_health() below
            // can escalate the ladder: alert lines precede the rung
            // transitions they explain.
            slo_record(t, r.cls, on_time);
        }
        publish(t);
        obs::TraceRecorder::global().end(f.span_id);
        black_box.record(t, "serving.batch.done",
                         "#" + std::to_string(b.seq) + " late=" +
                             std::to_string(late));
        line(TranscriptLevel::kSummary,
             "[t=%.6f] batch #%lld done size=%lld late=%lld", t,
             static_cast<long long>(b.seq),
             static_cast<long long>(f.reqs.size()),
             static_cast<long long>(late));

        // The batch boundary: the only legal swap point, and where
        // the gray-failure detector sees the batch's residual before
        // the next dispatch is planned.
        observe_health(t, b.size, b.pure_exec_s);
        commit_staged(t);
        try_dispatch(t);
    }

    /**
     * Feed one completed batch's calibration residual to the
     * gray-failure detector and apply whatever rung of the ladder it
     * decides. Armed only once a fit exists — residuals against the
     * raw analytical model measure the un-calibrated gap, not device
     * health — and only for guarded runs.
     */
    void
    observe_health(double t, int64_t batch, double pure_exec_s)
    {
        if (!cfg.degrade || rep.calibration_fits == 0)
            return;
        const double r = std::abs(
            planner_gpu.residual(net, batch, pure_exec_s));
        const auto v = detector.observe(r);
        if (v.changed) {
            if (v.state != cur_state) {
                ++rep.degradation.transitions;
                if (v.state == DeviceHealth::kProbation)
                    ++rep.degradation.probations;
                if (cur_state == DeviceHealth::kProbation &&
                    v.state == DeviceHealth::kHealthy)
                    ++rep.degradation.recoveries;
            }
            if (v.rung != cur_rung) ++rep.degradation.rung_changes;
            rep.degradation.max_rung =
                std::max(rep.degradation.max_rung, v.rung);
            cur_state = v.state;
            cur_rung = v.rung;

            // Rung 2 boundary: (un)install the best-effort shedding
            // mask at the admission queue.
            const bool shed_now = cur_rung >= 2;
            if (shed_now != shedding) {
                shedding = shed_now;
                std::vector<bool> mask;
                if (shed_now) {
                    mask.resize(cfg.mix.classes.size(), false);
                    for (size_t i = 0; i < cfg.mix.classes.size();
                         ++i)
                        mask[i] = cfg.mix.classes[i].best_effort;
                }
                queue.set_degraded_shedding(std::move(mask));
            }

            publish(t);
            obs::TraceRecorder::global().instant(
                "serving.health.transition",
                {{"state", device_health_name(cur_state)},
                 {"rung", std::to_string(cur_rung)}});
            black_box.record(
                t, "serving.health",
                std::string(device_health_name(cur_state)) +
                    " rung=" + std::to_string(cur_rung));
            line(TranscriptLevel::kSummary,
                 "[t=%.6f] health %s rung=%d ewma=%.4f shed=%d", t,
                 device_health_name(cur_state), cur_rung,
                 detector.ewma(), shedding ? 1 : 0);
            // Deep degradation is a black-box trigger: persist the
            // ring the moment rung 3 is reached.
            drain_dump_armed = true;
            if (cur_rung >= 3) dump_flight(t);
        }
        // Probation passed: re-fit before trusting the device again.
        if (v.calibrate) calib_tick(t);
    }

    void
    arrive(double t)
    {
        Request& r = arrivals[next_arrival++];
        const std::string& cls =
            cfg.mix.classes[static_cast<size_t>(r.cls)].name;
        // Entry point of the request's causal trace: the arrival
        // instant becomes the parent the batch span links back to.
        publish(t);
        r.trace.parent_span = obs::TraceRecorder::global().instant(
            "serving.request.arrive",
            {{"id", std::to_string(r.id)}, {"class", cls}});
        if (queue.admit(r))
            line(TranscriptLevel::kFull,
                 "[t=%.6f] arrive id=%lld class=%s deadline=%.6f", t,
                 static_cast<long long>(r.id), cls.c_str(),
                 r.deadline_s);
        else
            lose(t, r,
                 queue.sheds_class(r.cls) ? Outcome::kShedDegraded
                                          : Outcome::kDroppedCapacity);
        try_dispatch(t);
    }

    void
    diag_tick(double t)
    {
        diag_until_s = t + diag_duration_s;
        publish(t);
        obs::TraceRecorder::global().instant("serving.diag.tick");
        line(TranscriptLevel::kSummary,
             "[t=%.6f] diagnosis co-runs for %.6f s", t,
             diag_duration_s);
        if (node != nullptr && cfg.real_inference_every > 0 &&
            pool.size() >= 9) {
            const auto flags =
                node->diagnosis().diagnose(pool.images.slice0(0, 9));
            (void)flags;
        }
    }

    void
    calib_tick(double t)
    {
        const auto obs_points = calibration_points(rep.batch_records);
        int64_t samples = 0;
        for (const auto& o : obs_points) samples += o.count;
        if (samples < kCalibrationMinSamples) return;

        const GpuCalibration calib =
            fit_calibration(planner_gpu, net, obs_points);
        planner_gpu.set_calibration(calib);
        ++rep.calibration_fits;

        obs::Histogram& residual_hist =
            obs::MetricsRegistry::global().histogram(
                "serving.calib.residual_abs", residual_options());
        std::vector<double> residuals;
        residuals.reserve(obs_points.size());
        for (const auto& o : obs_points) {
            const double r = std::abs(planner_gpu.residual(
                net, o.batch, o.mean_seconds));
            residuals.push_back(r);
            residual_hist.observe(r);
        }
        std::sort(residuals.begin(), residuals.end());
        publish(t);
        obs::TraceRecorder::global().instant(
            "serving.calib.fit",
            {{"scale", obs::format_double(calib.time_scale)}});
        line(TranscriptLevel::kSummary,
             "[t=%.6f] calib fit #%lld scale=%.4f overhead=%.6f "
             "samples=%lld residual_p50=%.4f",
             t, static_cast<long long>(rep.calibration_fits),
             calib.time_scale, calib.overhead_s,
             static_cast<long long>(samples),
             quantile(residuals, 0.50));
    }

    // ---- the event loop --------------------------------------------
    ServingReport
    run()
    {
        INSITU_CHECK(!ran, "ServingRuntime::run() is single-shot");
        ran = true;

        arrivals = generate_arrivals(cfg.mix);
        if (cfg.corun.update_period_s > 0)
            next_update_s = cfg.corun.update_period_s;
        if (cfg.corun.diagnosis_period_s > 0) {
            next_diag_s = cfg.corun.diagnosis_period_s;
            diag_duration_s =
                host.mean_batch_seconds(diag_net, kDiagnosisBatch);
        }
        next_calib_s = kCalibrationPeriodS;

        line(TranscriptLevel::kSummary,
             "[serving] mix=%s policy=%s%s requests=%lld "
             "duration=%.1fs",
             cfg.mix.name.c_str(),
             planner_mode_name(cfg.planner.mode),
             cfg.planner.mode == PlannerMode::kStatic
                 ? ("(" + std::to_string(cfg.planner.static_batch) +
                    ")")
                       .c_str()
                 : "",
             static_cast<long long>(arrivals.size()),
             cfg.mix.duration_s);

        while (flight || next_arrival < arrivals.size()) {
            // Candidate event times; ties resolve by this fixed
            // order: completion < arrival < update < diag < calib.
            const double tc =
                flight ? rep.batch_records.back().completion_s : kInf;
            const double ta = next_arrival < arrivals.size()
                                  ? arrivals[next_arrival].arrival_s
                                  : kInf;
            const double t_work = std::min(tc, ta);
            const double t_tick = std::min(
                {next_update_s, next_diag_s, next_calib_s});

            if (t_tick < t_work) {
                // Ticks fire only while work remains, which bounds
                // them: after the last completion the loop exits.
                if (next_update_s == t_tick) {
                    next_update_s += cfg.corun.update_period_s;
                    stage_update(t_tick);
                } else if (next_diag_s == t_tick) {
                    next_diag_s += cfg.corun.diagnosis_period_s;
                    // Rung 3+: stretch the diagnosis period by
                    // skipping windows — the co-run slowdown is pure
                    // loss on a device already missing predictions.
                    if (cur_rung >= 3) {
                        ++rep.degradation.diag_skipped;
                        line(TranscriptLevel::kSummary,
                             "[t=%.6f] diagnosis skipped (rung %d)",
                             t_tick, cur_rung);
                    } else {
                        diag_tick(t_tick);
                    }
                } else {
                    next_calib_s += kCalibrationPeriodS;
                    // Periodic fits are suspended while unhealthy: a
                    // fit would absorb the gray failure into the
                    // model and blind the detector. Probation runs
                    // the recovery fit explicitly.
                    if (cfg.degrade &&
                        cur_state != DeviceHealth::kHealthy) {
                        ++rep.degradation.calib_skipped;
                    } else {
                        calib_tick(t_tick);
                    }
                }
                continue;
            }
            if (tc <= ta)
                complete(tc);
            else
                arrive(ta);
        }

        finish();
        return std::move(rep);
    }

    void
    finish()
    {
        rep.duration_s = cfg.mix.duration_s;
        rep.requests = std::move(arrivals);
        const auto& batches = rep.batch_records;
        rep.batches = static_cast<int64_t>(batches.size());
        int64_t images = 0;
        for (const BatchRecord& b : batches) {
            images += b.size;
            if (!b.deadline_feasible) ++rep.drain_batches;
        }
        rep.mean_batch_size =
            batches.empty() ? 0.0
                            : static_cast<double>(images) /
                                  static_cast<double>(batches.size());
        if (!batches.empty()) rep.makespan_s = batches.back().completion_s;
        rep.final_calibration = planner_gpu.calibration();

        if (rep.calibration_fits > 0) {
            const auto obs_points = calibration_points(batches);
            double sum = 0;
            for (const auto& o : obs_points)
                sum += std::abs(planner_gpu.residual(
                    net, o.batch, o.mean_seconds));
            rep.mean_abs_residual =
                obs_points.empty()
                    ? 0.0
                    : sum / static_cast<double>(obs_points.size());
        }

        // Per-class rows and the total, folded over the ledger.
        const size_t nc = cfg.mix.classes.size();
        std::vector<ClassReport> rows(nc + 1);
        std::vector<std::vector<double>> latencies(nc + 1);
        for (const Request& r : rep.requests) {
            INSITU_CHECK(r.outcome != Outcome::kPending,
                         "serving run ended with an undecided request");
            for (const size_t i : {static_cast<size_t>(r.cls), nc}) {
                ClassReport& c = rows[i];
                ++c.arrived;
                switch (r.outcome) {
                case Outcome::kServed:
                    ++c.served;
                    if (r.done_s > r.deadline_s + kDeadlineEps)
                        ++c.served_late;
                    latencies[i].push_back(r.done_s - r.arrival_s);
                    break;
                case Outcome::kDroppedCapacity: ++c.dropped_capacity; break;
                case Outcome::kShedExpired: ++c.shed_expired; break;
                case Outcome::kShedDegraded: ++c.shed_degraded; break;
                case Outcome::kPending: break;
                }
            }
        }
        for (size_t i = 0; i <= nc; ++i) {
            ClassReport& c = rows[i];
            c.name = i < nc ? cfg.mix.classes[i].name : "total";
            std::sort(latencies[i].begin(), latencies[i].end());
            c.p50_latency_s = quantile(latencies[i], 0.50);
            c.p99_latency_s = quantile(latencies[i], 0.99);
            c.miss_rate = c.arrived > 0
                              ? static_cast<double>(c.missed()) /
                                    static_cast<double>(c.arrived)
                              : 0.0;
        }
        rep.total = rows.back();
        rows.pop_back();
        rep.classes = std::move(rows);

        rep.degradation.final_state =
            device_health_name(detector.state());
        rep.degradation.final_ewma = detector.ewma();

        line(TranscriptLevel::kSummary,
             "[serving] done: batches=%lld mean_batch=%.2f "
             "served=%lld missed=%lld (%.2f%%) p50=%.4fs p99=%.4fs "
             "swaps=%lld/%lld fits=%lld torn=%d",
             static_cast<long long>(rep.batches),
             rep.mean_batch_size,
             static_cast<long long>(rep.total.served),
             static_cast<long long>(rep.total.missed()),
             100.0 * rep.total.miss_rate, rep.total.p50_latency_s,
             rep.total.p99_latency_s,
             static_cast<long long>(rep.swaps_committed),
             static_cast<long long>(rep.updates_staged),
             static_cast<long long>(rep.calibration_fits),
             rep.swap_torn ? 1 : 0);
        // Emitted only when the ladder actually moved, so fault-free
        // transcripts stay byte-identical to the pre-ladder runtime.
        if (rep.degradation.transitions > 0 ||
            rep.total.shed_degraded > 0)
            line(TranscriptLevel::kSummary,
                 "[serving] degradation: state=%s max_rung=%d "
                 "transitions=%lld shed=%lld diag_skipped=%lld "
                 "calib_skipped=%lld forced_drain=%lld "
                 "recoveries=%lld",
                 rep.degradation.final_state.c_str(),
                 rep.degradation.max_rung,
                 static_cast<long long>(rep.degradation.transitions),
                 static_cast<long long>(rep.total.shed_degraded),
                 static_cast<long long>(rep.degradation.diag_skipped),
                 static_cast<long long>(
                     rep.degradation.calib_skipped),
                 static_cast<long long>(rep.degradation.forced_drain),
                 static_cast<long long>(rep.degradation.recoveries));
        // Same gate: only runs where the SLO engine actually fired
        // gain a summary line.
        if (rep.slo_alerts > 0)
            line(TranscriptLevel::kSummary,
                 "[serving] slo: alerts=%lld flight_dumps=%lld",
                 static_cast<long long>(rep.slo_alerts),
                 static_cast<long long>(rep.flight_dumps));
        publish_metrics();
    }

    /**
     * Publish the run's `serving.*` metrics (all but the fit-time
     * `serving.calib.residual_abs`) as folds over the ledger and the
     * report. Counter sums and histogram quanta are integers, so one
     * publication at run end exports exactly what per-event updates
     * would; every metric registers even when its value is zero.
     */
    void
    publish_metrics()
    {
        auto& reg = obs::MetricsRegistry::global();
        const ClassReport& all = rep.total;
        const DegradationReport& dg = rep.degradation;
        const std::pair<const char*, int64_t> counters[] = {
            {"serving.requests.arrived", all.arrived},
            {"serving.requests.admitted",
             all.arrived - all.dropped_capacity - all.shed_degraded},
            {"serving.requests.dropped", all.dropped_capacity},
            {"serving.requests.shed", all.shed_expired},
            {"serving.requests.shed_degraded", all.shed_degraded},
            {"serving.requests.served", all.served},
            {"serving.requests.missed_deadline", all.served_late},
            {"serving.batches", rep.batches},
            {"serving.weights.staged", rep.updates_staged},
            {"serving.weights.swapped", rep.swaps_committed},
            {"serving.calib.fits", rep.calibration_fits},
            {"serving.real.predictions", real_predictions},
            {"serving.health.transitions", dg.transitions},
            {"serving.degrade.diag_skipped", dg.diag_skipped},
            {"serving.degrade.calib_skipped", dg.calib_skipped},
            {"serving.degrade.forced_drain", dg.forced_drain}};
        for (const auto& [name, value] : counters)
            reg.counter(name).add(value);
        for (const ClassReport& c : rep.classes) {
            const std::string pfx = "serving.queue." + c.name + ".";
            reg.counter(pfx + "arrived").add(c.arrived);
            reg.counter(pfx + "admitted")
                .add(c.arrived - c.dropped_capacity - c.shed_degraded);
            reg.counter(pfx + "dropped_capacity").add(c.dropped_capacity);
            reg.counter(pfx + "shed_expired").add(c.shed_expired);
            reg.counter(pfx + "shed_degraded").add(c.shed_degraded);
        }

        obs::Histogram& size =
            reg.histogram("serving.batch.size", batch_size_options());
        obs::Histogram& exec = reg.histogram("serving.exec.time_s");
        for (const BatchRecord& b : rep.batch_records) {
            size.observe(static_cast<double>(b.size));
            exec.observe(b.exec_s);
        }
        obs::Histogram& latency =
            reg.histogram("serving.request.latency_s");
        obs::Histogram& local_latency = local.histogram(
            "serving.request.latency_s", latency_options());
        for (const Request& r : rep.requests) {
            if (r.outcome != Outcome::kServed) continue;
            latency.observe(r.done_s - r.arrival_s);
            local_latency.observe(r.done_s - r.arrival_s);
        }
        reg.histogram("serving.calib.residual_abs", residual_options());

        // Gauges hold the last value set; a run that never fits or
        // never moves the ladder leaves them as they were.
        obs::Gauge& scale = reg.gauge("serving.calib.time_scale");
        obs::Gauge& overhead = reg.gauge("serving.calib.overhead_s");
        if (rep.calibration_fits > 0) {
            scale.set(rep.final_calibration.time_scale);
            overhead.set(rep.final_calibration.overhead_s);
        }
        obs::Gauge& health = reg.gauge("serving.health.state");
        obs::Gauge& rung = reg.gauge("serving.health.rung");
        if (dg.transitions > 0 || dg.rung_changes > 0) {
            health.set(static_cast<double>(cur_state));
            rung.set(cur_rung);
        }
    }
};

double
DeviceFaultPlan::throttle_factor(double t) const
{
    double factor = 1.0;
    for (const ThrottleWindow& w : throttles) {
        if (t < w.from_s || t >= w.to_s) continue;
        const double ramp =
            w.ramp_s > 0.0
                ? std::min(1.0, (t - w.from_s) / w.ramp_s)
                : 1.0;
        factor =
            std::max(factor, 1.0 + (w.peak_slowdown - 1.0) * ramp);
    }
    return factor;
}

double
DeviceFaultPlan::storm_jitter_frac(double t) const
{
    double frac = 0.0;
    for (const JitterStormWindow& w : jitter_storms)
        if (t >= w.from_s && t < w.to_s)
            frac = std::max(frac, w.jitter_frac);
    return frac;
}

const DeviceFaultPlan&
DeviceFaultPlan::validated() const
{
    INSITU_CHECK(
        transient_stall_prob >= 0.0 && transient_stall_prob <= 1.0,
        "transient_stall_prob must be a probability");
    INSITU_CHECK(transient_stall_mult >= 1.0,
                 "transient_stall_mult must be >= 1");
    for (const ThrottleWindow& w : throttles) {
        INSITU_CHECK(w.to_s >= w.from_s,
                     "throttle window must be ordered");
        INSITU_CHECK(w.peak_slowdown >= 1.0,
                     "throttle peak_slowdown must be >= 1");
        INSITU_CHECK(w.ramp_s >= 0.0,
                     "throttle ramp_s must be non-negative");
    }
    for (const JitterStormWindow& w : jitter_storms) {
        INSITU_CHECK(w.to_s >= w.from_s,
                     "jitter storm window must be ordered");
        INSITU_CHECK(w.jitter_frac >= 0.0 && w.jitter_frac < 1.0,
                     "jitter storm frac must be in [0, 1)");
    }
    return *this;
}

double
apply_device_faults(const DeviceFaultPlan& plan, Rng& stream,
                    DegradationReport& tally, double seconds,
                    double now_s)
{
    // Each counter registers when its fault first fires, so fault-free
    // runs export no faults.injected.* line.
    auto& reg = obs::MetricsRegistry::global();
    const double factor = plan.throttle_factor(now_s);
    if (factor > 1.0) {
        ++tally.throttled_batches;
        static auto& c = reg.counter("faults.injected.thermal_throttle");
        c.add(1);
        seconds *= factor;
    }
    const double frac = plan.storm_jitter_frac(now_s);
    if (frac > 0.0) {
        ++tally.storm_batches;
        static auto& c = reg.counter("faults.injected.jitter_storm");
        c.add(1);
        seconds *= 1.0 + frac * (2.0 * stream.uniform() - 1.0);
    }
    if (plan.transient_stall_prob > 0.0 &&
        stream.bernoulli(plan.transient_stall_prob)) {
        ++tally.stalled_batches;
        static auto& c = reg.counter("faults.injected.transient_stall");
        c.add(1);
        seconds *= plan.transient_stall_mult;
    }
    return seconds;
}

ServingRuntime::ServingRuntime(ServingConfig config, InsituNode* node)
    : impl_(std::make_unique<Impl>(std::move(config), node))
{}

ServingRuntime::~ServingRuntime() = default;

ServingReport
ServingRuntime::run()
{
    return impl_->run();
}

DeviceTruthConfig
serving_host(uint64_t seed)
{
    DeviceTruthConfig host;
    host.seed = seed ^ 0x105E41;
    return host;
}

const obs::MetricsRegistry&
ServingRuntime::local_metrics() const
{
    return impl_->local;
}

} // namespace insitu::serving
