#include "iot/fleet.h"

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "nn/trainer.h"
#include "tensor/workspace.h"
#include "storage/codec.h"
#include "storage/file.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace insitu {

namespace {

/// Per-link delivery SLO: the fraction of a link's flagged images
/// that should reach the cloud.
constexpr double kDeliveryObjective = 0.90;
/// Unsupervised epochs over each stage's pooled upload.
constexpr int kFleetIncrementalPretrainEpochs = 1;

} // namespace

FleetSim::FleetSim(FleetConfig config)
    : config_(config),
      cloud_(config.tiny, titan_x_spec(), config.seed),
      injector_(config.faults),
      rng_(config.seed ^ 0xF1EE7ULL)
{
    INSITU_CHECK(!config_.node_severity_offset.empty(),
                 "fleet needs at least one node");
    INSITU_CHECK(config_.stage_window_s > 0,
                 "stage window must be positive");
    const size_t n = config_.node_severity_offset.size();
    nodes_.reserve(n);
    uplinks_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        nodes_.emplace_back(config_.tiny, cloud_.permutations(),
                            kSharedConvs, DiagnosisConfig{},
                            config_.seed + 101 * (i + 1));
        uplinks_.emplace_back(iot_uplink_spec(), bytes_per_image(),
                              config_.uplink);
        uplinks_.back().set_fault_injector(&injector_);
    }
    pending_uploads_.resize(n);
    checkpoints_.resize(n);
    upload_trace_.resize(n);
    // Burn-rate windows in stage time: the fast window sees the last
    // couple of stages, the slow window a run's worth.
    for (size_t i = 0; i < n; ++i) {
        obs::SloObjective obj;
        obj.name = "fleet.link" + std::to_string(i) + ".delivery";
        obj.objective = kDeliveryObjective;
        obj.fast_window_s = 2.0 * config_.stage_window_s;
        obj.slow_window_s = 6.0 * config_.stage_window_s;
        obj.min_events = 4;
        slo_links_.push_back(slo_engine_.declare(obj));
    }
    if (config_.supervised) {
        supervisor_.emplace(n);
        // The breakers_ vector never resizes after construction, so
        // these pointers stay valid for the fleet's lifetime.
        for (size_t i = 0; i < n; ++i)
            uplinks_[i].set_breaker(&supervisor_->breaker(i));
    }
    if (config_.durable_dir) {
        const std::string& dir = *config_.durable_dir;
        std::filesystem::create_directories(dir);
        node_stores_.reserve(n);
        for (size_t i = 0; i < n; ++i)
            node_stores_.push_back(
                std::make_unique<storage::SnapshotStore>(
                    storage::open_storage_file(
                        dir + "/node" + std::to_string(i) + ".ckpt",
                        &injector_)));
        registry_wal_ = std::make_unique<storage::Wal>(
            storage::open_storage_file(dir + "/registry.wal",
                                       &injector_));
        // Trim any torn tail now and keep the committed records for
        // an explicit recover_from_storage() call; appends from this
        // fleet's commits continue the same log.
        recovered_records_ = registry_wal_->recover().records;
        cloud_.attach_wal(registry_wal_.get());
        supervisor_store_ = std::make_unique<storage::SnapshotStore>(
            storage::open_storage_file(dir + "/supervisor.state",
                                       &injector_));
        meta_store_ = std::make_unique<storage::SnapshotStore>(
            storage::open_storage_file(dir + "/fleet.meta",
                                       &injector_));
        // No injector: the black box must not consume storage fault
        // draws (see the member comment in fleet.h).
        flight_store_ = std::make_unique<storage::SnapshotStore>(
            storage::open_storage_file(dir + "/flight.dump"));
    }
}

bool
FleetSim::recover_from_storage()
{
    if (!durable()) return false;
    bool any = false;
    if (!recovered_records_.empty()) {
        any = cloud_.recover(recovered_records_) > 0 || any;
    }
    if (supervisor_) {
        if (const auto blob = supervisor_store_->read())
            any = supervisor_->restore_state(*blob) || any;
    }
    // Serial on purpose: recovery happens once at boot, and keeping
    // it ordered means its storage.* counters and any future spans
    // stay replay-stable.
    for (size_t i = 0; i < nodes_.size(); ++i) {
        if (!nodes_[i].restore_from(*node_stores_[i])) continue;
        checkpoints_[i] = nodes_[i].checkpoint();
        any = true;
    }
    if (const auto blob = meta_store_->read()) {
        storage::Reader r(*blob);
        const int64_t stage = r.i64();
        const double clock = r.f64();
        if (r.ok && r.remaining() == 0 && stage >= 0) {
            stage_index_ = static_cast<int>(stage);
            clock_s_ = clock;
            any = true;
        }
    }
    static auto& recoveries = obs::MetricsRegistry::global().counter(
        "iot.fleet.recoveries");
    recoveries.add(1);
    return any;
}

void
FleetSim::persist_durable_state()
{
    if (!durable()) return;
    if (supervisor_)
        supervisor_store_->write(supervisor_->encode_state());
    std::string meta;
    storage::put_i64(meta, stage_index_);
    storage::put_f64(meta, clock_s_);
    meta_store_->write(meta);
    // Persist the black box last: after a kill-anywhere run the dump
    // on disk is the flight record of the last completed stage.
    if (flight_store_ && flight_store_->write(black_box_.encode())) {
        static auto& dumps = obs::MetricsRegistry::global().counter(
            "flight.dumps");
        dumps.add(1);
    }
}

InsituNode&
FleetSim::node(size_t i)
{
    INSITU_CHECK(i < nodes_.size(), "node index out of range");
    return nodes_[i];
}

UplinkQueue&
FleetSim::uplink(size_t i)
{
    INSITU_CHECK(i < uplinks_.size(), "node index out of range");
    return uplinks_[i];
}

Condition
FleetSim::node_condition(size_t node, double base_severity) const
{
    return Condition::in_situ(
        base_severity + config_.node_severity_offset[node]);
}

void
FleetSim::deploy_all()
{
    for (size_t i = 0; i < nodes_.size(); ++i) {
        // A quarantined node's redeploys are suspended; it rejoins
        // the deployment set when the supervisor re-admits it.
        if (supervisor_ && supervisor_->quarantined(i)) continue;
        deploy_node(i);
    }
}

void
FleetSim::deploy_node(size_t i)
{
    nodes_[i].deploy_diagnosis(cloud_.jigsaw());
    nodes_[i].deploy_inference(cloud_.inference());
    // The checkpoint is the reboot target: a crash between
    // deployments loses in-flight data, never the deployed model.
    checkpoints_[i] = nodes_[i].checkpoint();
    // Durable fleets also stage the checkpoint to flash (atomic
    // replace; deployments happen on serial paths only, so the
    // storage fault draws stay replay-ordered). The in-memory copy
    // above stays the fallback — it models the previous firmware
    // slot a bootloader keeps when the fresh write is damaged.
    if (durable()) nodes_[i].save_checkpoint(*node_stores_[i]);
}

double
FleetSim::bootstrap(int64_t images_per_node, double base_severity)
{
    // No-op for wall-clock runs; in simulated mode this pins every
    // span/instant recorded below to the fleet's own clock.
    obs::TelemetryClock::global().set_simulated_time_s(clock_s_);
    obs::ScopedSpan span("fleet.bootstrap");
    // Acquisition draws from the shared replay-ordered rng_, so it
    // stays serial (node-ascending) — the draw sequence is part of
    // the replay contract and must not depend on scheduling.
    const int64_t n = static_cast<int64_t>(nodes_.size());
    std::vector<Dataset> parts(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i)
        parts[i] = make_dataset(SynthConfig{}, images_per_node,
                                node_condition(i, base_severity),
                                rng_);
    std::vector<const Dataset*> part_ptrs;
    for (const auto& p : parts) part_ptrs.push_back(&p);
    const Dataset pooled = concat_datasets(part_ptrs);

    cloud_.pretrain(pooled.images, config_.pretrain_epochs);
    cloud_.transfer_from_pretext(kSharedConvs);
    cloud_.inference().share_convs_from(cloud_.jigsaw().trunk(),
                                        kSharedConvs);
    cloud_.update(pooled, UpdatePolicy{kSharedConvs, config_.update_epochs});
    deploy_all();

    std::vector<double> node_acc(nodes_.size(), 0.0);
    parallel_shards(n, [&](int64_t i) {
        node_acc[static_cast<size_t>(i)] =
            nodes_[static_cast<size_t>(i)].inference().accuracy(
                pooled);
    });
    double acc = 0.0;
    for (double a : node_acc) acc += a; // ordered reduction
    acc /= static_cast<double>(nodes_.size());
    // Seed the registry so the first validated update has a
    // last-good version to fall back to.
    cloud_.registry().commit(cloud_.inference(), "bootstrap", acc,
                             pooled.size());
    persist_durable_state();
    return acc;
}

FleetStageReport
FleetSim::run_stage(int64_t images_per_node, double base_severity)
{
    FleetStageReport report;
    report.stage = stage_index_;
    const double window_from = clock_s_;
    const double window_to = clock_s_ + config_.stage_window_s;
    obs::TelemetryClock::global().set_simulated_time_s(window_from);
    obs::ScopedSpan span("fleet.stage", "stage",
                         std::to_string(stage_index_));
    static auto& stages =
        obs::MetricsRegistry::global().counter("iot.fleet.stages");
    stages.add(1);
    black_box_.record(window_from, "fleet.stage",
                      "#" + std::to_string(stage_index_));

    // Phase 1: nodes acquire, flag and hand flagged images to their
    // radios. Crashed nodes reboot instead: the uplink backlog and
    // the node-side pending buffer are lost, the model comes back
    // from the checkpoint.
    //
    // The replay-ordered shared state is touched first, serially in
    // node order: crash decisions (the injector's fault log) and
    // acquisition (renders draw from the shared rng_, so the draw
    // sequence must not depend on scheduling). Everything after that
    // is node-local — diagnosis draws from the node's own RNG, and
    // each node touches only its own uplink/buffers/report slot — so
    // the per-node stepping runs in parallel and stays bit-identical
    // at any thread count.
    const size_t nnodes = nodes_.size();
    std::vector<Dataset> stage_data(nnodes);
    std::vector<char> crashed(nnodes, 0);
    std::vector<char> restore_failed(nnodes, 0);
    for (size_t i = 0; i < nnodes; ++i) {
        crashed[i] = injector_.node_crashes(stage_index_,
                                            static_cast<int>(i))
                         ? 1
                         : 0;
        if (!crashed[i])
            stage_data[i] =
                make_dataset(SynthConfig{}, images_per_node,
                             node_condition(i, base_severity), rng_);
    }
    report.nodes.assign(nnodes, FleetNodeReport{});
    // Flagged-image counts per node, filled inside the parallel
    // region (node-local slots) and consumed by the serial capture
    // pass below — instants cannot be recorded inside parallel_for.
    std::vector<int64_t> flagged_count(nnodes, 0);
    // One node-id shard per node: the decomposition is fixed by the
    // fleet size alone (rule 1), every write below is shard-disjoint
    // (rule 2), and the folds that follow run serially in ascending
    // node order (rule 3).
    parallel_shards(static_cast<int64_t>(nnodes), [&](int64_t ni) {
        const size_t i = static_cast<size_t>(ni);
        FleetNodeReport& nr = report.nodes[i];
        nr.node = static_cast<int>(i);
        if (crashed[i]) {
            nr.crashed = true;
            nr.lost_in_crash = uplinks_[i].clear();
            pending_uploads_[i] = Dataset{};
            // Reboot from flash first (reads are draw-free, so this
            // is safe inside the parallel region); a missing, torn,
            // stale or bit-rotted checkpoint falls back to the
            // in-memory copy — the previous-firmware-slot model — and
            // counts as a restore failure against the node's health.
            // restore()/restore_from() are all-or-nothing: a failed
            // reboot leaves the node on its previous weights.
            bool restored =
                durable() && nodes_[i].restore_from(*node_stores_[i]);
            if (!restored) {
                if (durable()) restore_failed[i] = 1;
                if (!nodes_[i].restore(checkpoints_[i]))
                    restore_failed[i] = 1;
            }
        } else {
            const Dataset& data = stage_data[i];
            const NodeStageReport node_report =
                nodes_[i].process_stage(data);
            nr.acquired = node_report.acquired;
            nr.flag_rate = node_report.flag_rate;
            nr.accuracy_before = node_report.accuracy.value_or(0.0);

            // Per-node scratch rides the thread-local arena: the
            // flagged-index list lives for this scope only, so the
            // steady-state step allocates nothing for it.
            Workspace::Scope scope;
            const auto& flags = node_report.flags;
            int64_t* idx = Workspace::local().alloc_as<int64_t>(
                static_cast<int64_t>(flags.size()));
            int64_t flagged = 0;
            for (size_t j = 0; j < flags.size(); ++j)
                if (flags[j]) idx[flagged++] = static_cast<int64_t>(j);
            Dataset valuable = gather_dataset(data, idx, flagged);

            if (pending_uploads_[i].size() == 0) {
                pending_uploads_[i] = std::move(valuable);
            } else if (valuable.size() > 0) {
                pending_uploads_[i] = concat_datasets(
                    {&pending_uploads_[i], &valuable});
            }
            flagged_count[i] = flagged;
            nr.dropped = uplinks_[i].enqueue(flagged, window_from);
            if (nr.dropped > 0) {
                // Keep the image buffer row-aligned with the queue:
                // the radio evicted its oldest payloads.
                pending_uploads_[i] = dataset_slice(
                    pending_uploads_[i], nr.dropped,
                    pending_uploads_[i].size());
            }
        }
    });
    for (const auto& nr : report.nodes)
        if (nr.crashed) ++report.crashed_nodes;

    // Serial capture pass: the trace entry point of the fleet loop.
    // Each node that flagged images this stage mints a lineage id —
    // a pure function of (seed, stage, node), no RNG draw — and
    // anchors it on a `fleet.capture` instant; the drain/update/
    // deploy hops below extend it with flow edges. A crash destroys
    // the link backlog, and the lineage with it.
    for (size_t i = 0; i < nnodes; ++i) {
        if (crashed[i]) {
            black_box_.record(
                window_from, "fleet.node.crash",
                "node " + std::to_string(i) + " lost " +
                    std::to_string(report.nodes[i].lost_in_crash) +
                    " in-flight images");
            upload_trace_[i] = obs::TraceContext{};
            continue;
        }
        if (flagged_count[i] <= 0) continue;
        obs::TraceContext ctx = obs::mint_trace_context(
            config_.seed ^ 0xCAB00D1EULL,
            static_cast<uint64_t>(stage_index_) * nnodes + i);
        ctx.parent_span = obs::TraceRecorder::global().instant(
            "fleet.capture",
            {{"node", std::to_string(i)},
             {"images", std::to_string(flagged_count[i])}});
        // The link carries one lineage at a time; a fresh capture
        // takes it over (stragglers ride along).
        upload_trace_[i] = ctx;
    }

    // Phase 1.5 (supervised fleets only): feed the stage's
    // observations to the supervisor — serial and node-ascending, so
    // the decisions are a pure function of replay-ordered state — and
    // act on its verdicts. A judged canary resolves here, *before*
    // this stage's cloud update, using accuracies measured on the
    // models deployed last stage (canaries on the candidate, controls
    // on the baseline).
    if (supervisor_) {
        for (size_t i = 0; i < nnodes; ++i) {
            NodeStageObservation obs;
            obs.crashed = crashed[i] != 0;
            obs.restore_failed = restore_failed[i] != 0;
            obs.flag_rate = report.nodes[i].flag_rate;
            obs.accuracy = report.nodes[i].accuracy_before;
            obs.has_accuracy = !crashed[i];
            supervisor_->observe(i, obs);
        }
        const SupervisorStageDecisions decisions =
            supervisor_->end_stage(stage_index_);
        report.newly_quarantined = decisions.newly_quarantined;
        report.readmitted = decisions.readmitted;
        for (int q : decisions.newly_quarantined)
            black_box_.record(window_from, "fleet.quarantine",
                              "node " + std::to_string(q));
        for (int q : decisions.readmitted)
            black_box_.record(window_from, "fleet.readmit",
                              "node " + std::to_string(q));
        if (decisions.canary_judged) {
            if (decisions.canary_promoted) {
                report.canary_promoted = true;
                black_box_.record(window_from,
                                  "fleet.canary.promoted", "");
                // The cloud already runs the accepted version (updates
                // were deferred while the canary was pending); ship it
                // fleet-wide.
                deploy_all();
            } else if (decisions.canary_rolled_back) {
                report.canary_rolled_back = true;
                black_box_.record(
                    window_from, "fleet.canary.rollback",
                    "to version " +
                        std::to_string(decisions.rollback_version));
                INSITU_CHECK(
                    cloud_.rollback_to(decisions.rollback_version,
                                       "canary-rollback"),
                    "canary rollback target missing from registry");
                deploy_all();
            }
        }
        // Re-admitted nodes missed redeploys while quarantined; bring
        // them back onto the current cloud model.
        for (int i : decisions.readmitted)
            deploy_node(static_cast<size_t>(i));
    }

    // Phase 2: radios drain inside the stage window. What does not
    // make it (flaps, backoff, window end) stays queued — those
    // stragglers deliver in a later stage, stale but not lost.
    // Deliberately serial: every drain consumes loss/corruption draws
    // from the injector's single replay-ordered RNG stream.
    std::vector<Dataset> delivered_parts(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
        FleetNodeReport& nr = report.nodes[i];
        const int64_t delivered =
            uplinks_[i].drain_window(window_from, window_to);
        INSITU_CHECK(delivered <= pending_uploads_[i].size(),
                     "uplink delivered more than was pending");
        if (delivered > 0) {
            delivered_parts[i] =
                dataset_slice(pending_uploads_[i], 0, delivered);
            pending_uploads_[i] = dataset_slice(
                pending_uploads_[i], delivered,
                pending_uploads_[i].size());
            // Extend the capture lineage onto the cloud side.
            const int64_t hop = obs::TraceRecorder::global().instant(
                "fleet.upload.delivered",
                {{"node", std::to_string(i)},
                 {"images", std::to_string(delivered)}});
            obs::TraceRecorder::global().flow(upload_trace_[i], hop);
            if (hop >= 0) upload_trace_[i].parent_span = hop;
        }
        // Per-link delivery SLO: deliveries are good events; terminal
        // losses (backlog evictions, crash-destroyed payloads) burn
        // the error budget. Stragglers are neither — they age.
        const int64_t bad = nr.dropped + nr.lost_in_crash;
        obs::SloEvent ev = obs::SloEvent::kNone;
        if (delivered > 0)
            ev = slo_engine_.record(slo_links_[i], window_to, true,
                                    delivered);
        if (bad > 0) {
            const obs::SloEvent ev2 =
                slo_engine_.record(slo_links_[i], window_to, false, bad);
            if (ev2 != obs::SloEvent::kNone) ev = ev2;
        }
        if (ev == obs::SloEvent::kAlertRaised) {
            ++report.slo_alerts;
            black_box_.record(
                window_to, "slo.alert",
                "fleet.link" + std::to_string(i) + ".delivery");
        }
        nr.uploaded = delivered;
        nr.backlogged = uplinks_[i].backlog();
        report.pooled_uploads += delivered;
        report.straggler_backlog += nr.backlogged;
        report.retransmits += uplinks_[i].stats().retransmits;
        report.corrupted += uplinks_[i].stats().corrupted;
        report.breaker_opens += uplinks_[i].stats().breaker_opens;
        report.breaker_open_wait_s +=
            uplinks_[i].stats().breaker_open_wait_s;
    }

    // Phase 3: one validation-gated cloud update on whatever the
    // surviving nodes delivered (a stage with zero deliveries still
    // completes — the fleet just redeploys the current model).
    // Supervision refinements: quarantined nodes' deliveries never
    // reach the pool, and while a canary verdict is pending the pool
    // is held back (trained after the verdict) so the canary/control
    // split stays clean.
    // The pool concatenates the batches in contributor order.
    std::vector<const Dataset*> pool_parts;
    if (deferred_pool_.size() > 0) pool_parts.push_back(&deferred_pool_);
    // Lineages feeding this stage's pool: deferred contributors from
    // held-back stages, plus whoever delivered now.
    std::vector<size_t> contributors = deferred_contributors_;
    for (size_t i = 0; i < delivered_parts.size(); ++i) {
        if (delivered_parts[i].size() == 0) continue;
        if (supervisor_ && supervisor_->quarantined(i)) {
            report.excluded_uploads += delivered_parts[i].size();
            continue;
        }
        pool_parts.push_back(&delivered_parts[i]);
        if (std::find(contributors.begin(), contributors.end(), i) ==
            contributors.end())
            contributors.push_back(i);
    }
    int64_t deployed_version = 0;
    const bool canary_pending =
        supervisor_ && supervisor_->canary_pending();
    if (!pool_parts.empty() && canary_pending) {
        // All canaries sat this stage out (crashed); the verdict is
        // deferred, and so is training on this stage's pool.
        deferred_pool_ = concat_datasets(pool_parts);
        deferred_contributors_ = std::move(contributors);
    } else if (!pool_parts.empty()) {
        Dataset pooled = concat_datasets(pool_parts);
        deferred_pool_ = Dataset{};
        report.update_ran = true;
        if (injector_.update_poisoned(stage_index_)) {
            // A bad labeling batch: every label shifts by half the
            // class count — maximally wrong, and exactly what the
            // holdout gate exists to catch.
            report.poisoned = true;
            const int64_t nc = SynthConfig{}.num_classes;
            for (auto& label : pooled.labels)
                label = (label + nc / 2) % nc;
        }
        const double mean_offset =
            std::accumulate(config_.node_severity_offset.begin(),
                            config_.node_severity_offset.end(), 0.0) /
            static_cast<double>(config_.node_severity_offset.size());
        const Dataset holdout = make_dataset(
            SynthConfig{}, config_.holdout_images,
            Condition::in_situ(base_severity + mean_offset), rng_);

        cloud_.pretrain(pooled.images, kFleetIncrementalPretrainEpochs);
        const ValidatedUpdateReport vr = cloud_.validated_update(
            pooled, UpdatePolicy{kSharedConvs, config_.update_epochs},
            holdout, config_.rollback_tolerance);
        report.rolled_back = vr.rolled_back;
        report.holdout_before = vr.holdout_before;
        report.holdout_after = vr.holdout_after;
        report.holdout_trained = vr.holdout_trained;
        deployed_version = vr.rolled_back ? vr.baseline_version
                                          : vr.accepted_version;
        // Link every contributing capture lineage into the update
        // span: the trace now reads captured -> delivered -> retrained.
        for (size_t i : contributors) {
            obs::TraceRecorder::global().flow(upload_trace_[i],
                                              vr.span_id);
            if (vr.span_id >= 0)
                upload_trace_[i].parent_span = vr.span_id;
        }
        deferred_contributors_.clear();
        black_box_.record(
            window_from, "cloud.update",
            std::to_string(pooled.size()) + " images" +
                (report.poisoned ? ", poisoned" : "") +
                (vr.rolled_back ? ", rolled back" : ", accepted"));

        // Stage the accepted update through a canary subset instead
        // of deploying it fleet-wide. The judgment baseline is this
        // stage's healthy-fleet mean (all healthy nodes still run the
        // pre-update model here).
        if (supervisor_ && !vr.rolled_back && vr.accepted_version != 0) {
            std::vector<int> canaries = supervisor_->pick_canaries();
            if (!canaries.empty()) {
                double base_acc = 0, base_flag = 0;
                int64_t healthy = 0;
                for (size_t i = 0; i < nnodes; ++i) {
                    if (crashed[i] || supervisor_->quarantined(i))
                        continue;
                    base_acc += report.nodes[i].accuracy_before;
                    base_flag += report.nodes[i].flag_rate;
                    ++healthy;
                }
                if (healthy > 0) {
                    base_acc /= static_cast<double>(healthy);
                    base_flag /= static_cast<double>(healthy);
                }
                supervisor_->start_canary(
                    stage_index_, canaries, vr.accepted_version,
                    vr.baseline_version, base_acc, base_flag);
                report.canary_started = true;
                report.canary_nodes = canaries;
            }
        }
    }
    if (report.canary_started) {
        // Only the canary subset receives the candidate model; the
        // control group stays on the baseline until the verdict.
        for (int c : report.canary_nodes)
            deploy_node(static_cast<size_t>(c));
    } else if (!canary_pending) {
        deploy_all();
    }
    // (canary_pending: no deployment at all — the split must hold.)
    if (report.update_ran) {
        // The lineage's last hop: whatever this stage's update
        // produced is now on the fleet (or its canary subset).
        const int64_t commit = obs::TraceRecorder::global().instant(
            "fleet.deploy.commit",
            {{"version", std::to_string(deployed_version)},
             {"canary", report.canary_started ? "1" : "0"}});
        for (size_t i : contributors) {
            obs::TraceRecorder::global().flow(upload_trace_[i],
                                              commit);
            upload_trace_[i] = obs::TraceContext{};
        }
        black_box_.record(window_from, "fleet.deploy",
                          "version " +
                              std::to_string(deployed_version) +
                              (report.canary_started ? " (canary)"
                                                     : ""));
    }

    // Phase 4: post-deployment accuracy. Crashed nodes acquired
    // nothing this stage; the mean covers the nodes that did.
    // Node-parallel evaluation, ordered (node-ascending) mean.
    parallel_shards(static_cast<int64_t>(nnodes), [&](int64_t ni) {
        const size_t i = static_cast<size_t>(ni);
        if (report.nodes[i].crashed) return;
        report.nodes[i].accuracy_after =
            nodes_[i].inference().accuracy(stage_data[i]);
    });
    int64_t measured = 0;
    for (size_t i = 0; i < nnodes; ++i) {
        if (report.nodes[i].crashed) continue;
        report.mean_accuracy_after += report.nodes[i].accuracy_after;
        ++measured;
    }
    if (measured > 0)
        report.mean_accuracy_after /= static_cast<double>(measured);

    if (supervisor_) {
        for (size_t i = 0; i < nnodes; ++i) {
            report.nodes[i].quarantined = supervisor_->quarantined(i);
            report.nodes[i].canary = supervisor_->is_canary(i);
            if (report.nodes[i].quarantined)
                ++report.quarantined_nodes;
        }
    }

    black_box_.record(window_to, "fleet.stage.end",
                      "pooled=" + std::to_string(report.pooled_uploads) +
                          " backlog=" +
                          std::to_string(report.straggler_backlog));
    ++stage_index_;
    clock_s_ = window_to;
    persist_durable_state();
    // Advance the telemetry clock before the stage span closes so its
    // end stamp is the window end, not the window start.
    obs::TelemetryClock::global().set_simulated_time_s(window_to);
    return report;
}

FleetConfig
chaos_fleet_config(bool supervised)
{
    FleetConfig c;
    c.tiny.num_permutations = 8;
    c.update_epochs = 2;
    c.pretrain_epochs = 3;
    c.node_severity_offset = {0.0, 0.1, 0.2};
    c.stage_window_s = 60.0;
    c.holdout_images = 64;
    // The holdout gate waves everything through: this scenario
    // demonstrates the *canary* as the second line of defense.
    c.rollback_tolerance = 1.0;
    c.seed = 42;
    // A persistent sender: short backoff ceiling, so a flapping link
    // gets hammered unless a breaker intervenes.
    c.uplink.backoff_max_s = 1.0;

    // The failure scenario. Stage s occupies simulated time
    // [60 s, 60 (s+1)).
    c.faults.payload_loss_prob = 0.20;
    c.faults.payload_corrupt_prob = 0.05;
    // Stages 0-1: the link flaps, down 8 s of every 10 s. A flap is
    // discovered only by a failed (energy-burning) transmission
    // attempt.
    c.faults.flapping = {{0.0, 120.0, 10.0, 8.0}};
    c.faults.crashes = {{0, 1}, {1, 1}}; // node 1 crash-loops
    c.faults.poisoned_stages = {3};      // bad labels in stage 3
    c.faults.seed = 0xC0FFEE;
    c.supervised = supervised;
    return c;
}

} // namespace insitu
