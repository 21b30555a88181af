/**
 * @file
 * The three workloads, each a closed loop with one caller:
 *
 *  - insitu_loop: the paper's capture -> diagnose -> upload ->
 *    retrain -> redeploy loop on one node and its cloud (Fig. 25).
 *    The only workload that trains: train-mode forward, backward, the
 *    optimizer, pretext training, and the checkpoint store.
 *  - node_stream: the two on-node tasks in eval mode with fixed
 *    weights; batch-1 inference requests (latency-bound) and batch-32
 *    diagnosis of each capture (throughput-bound).
 *  - fleet_scale: the sharded event engine at one million nodes under
 *    crash/drop/poison chaos. Almost no conv work, so it isolates the
 *    thread pool, the event heaps and the merge fold.
 *
 * Inputs are rendered from the seed during set-up; the timed calls
 * receive only those tensors. End-to-end metrics share one meaning per
 * name across workloads (see README.md for each workload's operation).
 */
#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "cloud/update_service.h"
#include "data/schedule.h"
#include "data/synth.h"
#include "hw/spec.h"
#include "iot/fleet_engine.h"
#include "iot/node.h"
#include "nn/trainer.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

using namespace insitu;

namespace {

constexpr int kSetups = 5;          ///< set-ups per run
constexpr int kStagesPerDay = 8;    ///< capture pool: one day, 3 h apart
constexpr int64_t kLoopImages = 160;
constexpr int64_t kNodeImages = 64;
constexpr int64_t kBootstrapImages = 300;
constexpr int64_t kHoldoutImages = 160;
constexpr int64_t kProbeImages = 8;
constexpr int kRebootEvery = 4;     ///< loop steps between reboots
constexpr int64_t kFleetNodes = 1000000;

// Peak RSS is read at a fixed operation count: the loop's model
// registry grows every step, and a faster build (more steps per run)
// must not read as a bigger one.
constexpr int kFixedOps = 16;

double
ms(double s)
{
    return s * 1e3;
}

double
sum(const std::vector<double>& v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

double
mean(const std::vector<double>& v)
{
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

/** Mean of the values between the first and third quartile. */
double
interquartile_mean(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
    if (lo >= hi) return quantile(v, 0.5);
    return std::accumulate(v.begin() + lo, v.begin() + hi, 0.0) /
           static_cast<double>(hi - lo);
}

std::string
timing_detail(const Timing& t)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"p50\":%.9g,\"tail\":%.9g,\"tail_quantile\":%.4g,"
                  "\"samples\":%lld",
                  t.p50, t.tail, t.tail_q, static_cast<long long>(t.n));
    return buf;
}

std::unique_ptr<storage::StorageFile>
fresh_file(const std::string& path)
{
    auto file = std::make_unique<storage::PosixFile>(path);
    file->remove();
    return file;
}

/** Size of @p path, 0 while it does not exist (the WAL appears on
 * its first append). */
int64_t
file_bytes(const std::string& path)
{
    std::error_code ec;
    const auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<int64_t>(n);
}

/** One simulated day of captures following the day/night schedule,
 * so upload volume swings between light and heavy stages. */
std::vector<Dataset>
render_day(uint64_t seed, int64_t images)
{
    const SynthConfig synth;
    const EnvironmentSchedule schedule;
    Rng rng(derive_stream(seed, 1));
    std::vector<Dataset> day;
    for (int s = 0; s < kStagesPerDay; ++s)
        day.push_back(make_dataset(synth, images,
                                   schedule.at_hours(3.0 * s), rng));
    return day;
}

/** A cloud and a node with the weight-shared task pair, bootstrapped
 * as in Fig. 4: pretrain -> transfer -> update -> deploy. */
struct Deployment {
    static constexpr size_t kShared = 3;
    static constexpr uint64_t kModelSeed = 7; ///< FrameworkConfig's default

    ModelUpdateService cloud;
    InsituNode node;
    UpdatePolicy policy;
    Dataset holdout;
    Tensor probe;
    double bootstrap_s = 0;

    // The deployment is part of the system under test, not an input:
    // model initialisation, the bootstrap set and the holdout come
    // from the library's default seed. The run's seed makes only the
    // captures the deployed node then sees.
    Deployment()
        : cloud(TinyConfig{}, titan_x_spec(), kModelSeed),
          node(TinyConfig{}, cloud.permutations(), kShared,
               DiagnosisConfig{}, kModelSeed ^ 0x90DEULL)
    {
        policy.frozen_convs = kShared;
        const SynthConfig synth;
        Rng rng(derive_stream(kModelSeed, 2));
        const Dataset initial = make_dataset(
            synth, kBootstrapImages, Condition::in_situ(0.2), rng);
        holdout = make_dataset(synth, kHoldoutImages,
                               Condition::in_situ(0.4), rng);
        probe = holdout.images.slice0(0, kProbeImages);

        const double t0 = now_s();
        cloud.pretrain(initial.images, 3);
        cloud.transfer_from_pretext(kShared);
        cloud.inference().share_convs_from(cloud.jigsaw().trunk(),
                                           kShared);
        cloud.update(initial, policy);
        node.deploy_diagnosis(cloud.jigsaw());
        node.deploy_inference(cloud.inference());
        bootstrap_s = now_s() - t0;
    }

    Tensor
    probe_logits()
    {
        return node.inference().network().forward(probe, false);
    }

    void
    check_against_naive(Tally& tally, const char* when)
    {
        Network& net = node.inference().network();
        tally.check(logits_match(probe_logits(), naive_logits(net, probe)),
                    std::string("node logits vs naive GEMM ") + when);
    }
};

// ---- insitu_loop -----------------------------------------------------------

struct LoopStep {
    double wall_s = 0;
    int64_t captured = 0;
    int64_t flagged = 0;
    int64_t useful = 0;    ///< flagged and misclassified before the update
    double update_s = 0;   ///< validated_update wall time
    bool accepted = false;
    double accuracy = 0;   ///< post-update accuracy on the capture
    int64_t flops = 0;     ///< tensor.matmul*.flops during the step
};

class Loop {
  public:
    Loop(uint64_t seed, const std::string& dir)
        : day_(render_day(seed, kLoopImages)),
          store_(fresh_file(dir + "/node.ckpt")),
          wal_(fresh_file(dir + "/cloud.wal")),
          ckpt_path_(dir + "/node.ckpt"), wal_path_(dir + "/cloud.wal")
    {
        dep_.cloud.attach_wal(&wal_);
    }

    Deployment& deployment() { return dep_; }
    const Dataset& capture(int64_t i) const
    {
        return day_[static_cast<size_t>(i % kStagesPerDay)];
    }

    /** One closed-loop step on @p cap; @p reboot adds a restore_from
     * reboot whose predictions must match the pre-reboot ones. */
    LoopStep
    step(const Dataset& cap, bool reboot, Tracer& tr, Tally& tally)
    {
        LoopStep s;
        const int64_t flops0 = matmul_flops();
        const double t0 = now_s();
        double oracle_s = 0;
        {
            Scope step_span(tr, "loop.step");
            std::vector<int64_t> preds;
            std::vector<bool> flags;
            {
                Scope sp(tr, "iot.predict");
                preds = dep_.node.inference().predict(cap.images);
            }
            {
                Scope sp(tr, "iot.diagnose");
                flags = dep_.node.diagnosis().diagnose(cap.images);
            }
            Dataset upload;
            {
                Scope sp(tr, "iot.gather");
                const auto idx = DiagnosisTask::flagged_indices(flags);
                upload.condition = cap.condition;
                if (!idx.empty()) upload.images = gather_rows(cap.images, idx);
                for (int64_t i : idx) {
                    const size_t k = static_cast<size_t>(i);
                    upload.labels.push_back(cap.labels[k]);
                    if (preds[k] != cap.labels[k]) ++s.useful;
                }
            }
            s.captured = cap.size();
            s.flagged = upload.size();
            tally.check(static_cast<int64_t>(upload.labels.size()) ==
                            s.flagged,
                        "loop upload rows == flagged images");
            if (s.flagged > 0) {
                {
                    Scope sp(tr, "cloud.pretrain");
                    dep_.cloud.pretrain(upload.images, 1);
                }
                {
                    Scope sp(tr, "cloud.validated_update");
                    const double u0 = now_s();
                    const auto rep = dep_.cloud.validated_update(
                        upload, dep_.policy, dep_.holdout);
                    s.update_s = now_s() - u0;
                    s.accepted = !rep.rolled_back;
                }
                {
                    Scope sp(tr, "iot.deploy");
                    dep_.node.deploy_diagnosis(dep_.cloud.jigsaw());
                    dep_.node.deploy_inference(dep_.cloud.inference());
                }
            }
            {
                Scope sp(tr, "storage.checkpoint_write");
                tally.check(dep_.node.save_checkpoint(store_),
                            "save_checkpoint");
            }
            if (reboot) {
                Tensor before;
                {
                    Scope sp(tr, "bench.oracle");
                    const double o0 = now_s();
                    before = dep_.probe_logits();
                    oracle_s += now_s() - o0;
                }
                {
                    Scope sp(tr, "storage.checkpoint_read");
                    tally.check(dep_.node.restore_from(store_),
                                "restore_from");
                }
                {
                    Scope sp(tr, "bench.oracle");
                    const double o0 = now_s();
                    tally.check(identical(before, dep_.probe_logits()),
                                "predictions identical after reboot");
                    oracle_s += now_s() - o0;
                }
            }
            {
                Scope sp(tr, "iot.accuracy");
                s.accuracy = dep_.node.inference().accuracy(cap);
            }
        }
        s.wall_s = now_s() - t0 - oracle_s;
        s.flops = matmul_flops() - flops0;
        return s;
    }

    int64_t checkpoint_bytes() const { return file_bytes(ckpt_path_); }
    int64_t wal_bytes() const { return file_bytes(wal_path_); }

  private:
    Deployment dep_;
    std::vector<Dataset> day_;
    storage::SnapshotStore store_;
    storage::Wal wal_;
    std::string ckpt_path_;
    std::string wal_path_;
};

// ---- node_stream -----------------------------------------------------------

struct NodeCapture {
    std::vector<double> request_s; ///< one batch-1 predict each
    double diagnose_s = 0;
    double wall_s = 0;
    int64_t images = 0;
    int64_t flops = 0;
};

class NodeStream {
  public:
    explicit NodeStream(uint64_t seed)
        : day_(render_day(seed, kNodeImages))
    {
        // Requests arrive one image at a time: pre-split so a request
        // times only the predict call.
        for (const Dataset& d : day_) {
            std::vector<Tensor> rows;
            for (int64_t j = 0; j < d.size(); ++j)
                rows.push_back(d.images.slice0(j, j + 1));
            singles_.push_back(std::move(rows));
        }
    }

    Deployment& deployment() { return dep_; }

    NodeCapture
    capture(int64_t i, Tracer& tr)
    {
        const size_t c = static_cast<size_t>(i % kStagesPerDay);
        const Dataset& cap = day_[c];
        NodeCapture out;
        out.images = cap.size();
        const int64_t flops0 = matmul_flops();
        const double t0 = now_s();
        {
            Scope span(tr, "node.capture");
            for (int64_t j = 0; j < cap.size(); ++j) {
                Scope sp(tr, "iot.predict_b1");
                const double r0 = now_s();
                dep_.node.inference().predict(
                    singles_[c][static_cast<size_t>(j)], 1);
                out.request_s.push_back(now_s() - r0);
            }
            Scope sp(tr, "iot.diagnose_b32");
            const double d0 = now_s();
            const auto flags = dep_.node.diagnosis().diagnose(cap.images, 32);
            out.diagnose_s = now_s() - d0;
            (void)flags;
        }
        out.wall_s = now_s() - t0;
        out.flops = matmul_flops() - flops0;
        return out;
    }

  private:
    Deployment dep_;
    std::vector<Dataset> day_;
    std::vector<std::vector<Tensor>> singles_;
};

// ---- fleet_scale -----------------------------------------------------------

struct FleetStage {
    double wall_s = 0;
    int64_t events = 0;
};

class Fleet {
  public:
    /** Construction plus one warm-up stage (the first stage pays the
     * one-time heap growth). */
    Fleet(uint64_t seed, Tally& tally) : engine_(config(seed))
    {
        const ScaleStageReport r = engine_.run_stage();
        tally.check(fleet_conserved(r, 0), "fleet conservation, warm-up");
        backlog_ = r.backlog;
        warm_allocs_ = engine_.hot_allocs();
    }

    FleetStage
    stage(Tracer& tr, Tally& tally)
    {
        FleetStage s;
        const double t0 = now_s();
        ScaleStageReport r;
        {
            Scope sp(tr, "fleet.stage");
            r = engine_.run_stage();
        }
        s.wall_s = now_s() - t0;
        tally.check(fleet_conserved(r, backlog_),
                    "fleet conservation, stage " + std::to_string(r.stage));
        tally.check(no_hot_allocs(warm_allocs_, engine_.hot_allocs()),
                    "fleet hot_allocs after warm-up");
        backlog_ = r.backlog;
        s.events = r.events;
        return s;
    }

    /** Operator rollback to version 1; returns its wall time. */
    double
    rollback(Tally& tally)
    {
        const double t0 = now_s();
        const bool ok = engine_.rollback_and_redeploy(1);
        const double dt = now_s() - t0;
        tally.check(ok && engine_.version() > 1,
                    "fleet rollback_and_redeploy");
        return dt;
    }

    int64_t hot_allocs_since_warmup() const
    {
        return engine_.hot_allocs() - warm_allocs_;
    }
    double approx_mb() const
    {
        return static_cast<double>(engine_.approx_bytes()) / 1e6;
    }

  private:
    static ScaleFleetConfig
    config(uint64_t seed)
    {
        // The fleet_scale example's chaos configuration.
        ScaleFleetConfig c;
        c.nodes = kFleetNodes;
        c.seed = seed;
        c.crash_permille = 30;
        c.drop_permille = 50;
        c.poison_permille = 150;
        c.quality_tolerance_ppm = 20000;
        return c;
    }

    ScaleFleetEngine engine_;
    int64_t backlog_ = 0;
    int64_t warm_allocs_ = 0;
};

// ---- End-to-end report ---------------------------------------------------

/** What one untraced run measured, in the shared metric vocabulary.
 * A unit is one loop step, node capture or fleet stage. */
struct Measured {
    std::vector<double> setup_s;
    std::vector<double> setup_steal; ///< steal share during each set-up
    double peak_rss_mb = 0;
    std::vector<std::vector<double>> op_s; ///< operation times per unit
    std::vector<double> items;             ///< throughput numerator ...
    std::vector<double> items_s;           ///< ... and its wall time
    std::vector<Mark> marks; ///< before the first unit, then after each
    int64_t flops = 0; ///< tensor.matmul*.flops over the timed units

    void
    add(std::vector<double> ops, double n, double n_s)
    {
        op_s.push_back(std::move(ops));
        items.push_back(n);
        items_s.push_back(n_s);
        marks.push_back(mark());
    }
};

/**
 * On a shared virtual machine the hypervisor takes CPU time away in
 * bursts ("steal"); a unit that lost more of it than the median unit
 * measures the neighbours, not the program. Those units are set aside
 * (see least_stolen) before any statistic is taken; the same rule
 * picks the set-ups that setup_s is the median of.
 *
 * The centre is the interquartile mean, not the median: batch-1
 * request times are bimodal (workers woken or not), and a median
 * jumps between the modes when their shares shift slightly, while the
 * interquartile mean moves in proportion.
 */
std::vector<Metric>
end_to_end(const Measured& m)
{
    const size_t units = m.op_s.size();
    std::vector<double> steal(units);
    for (size_t u = 0; u < units; ++u)
        steal[u] = steal_share(m.marks[u], m.marks[u + 1]);
    const auto kept = least_stolen(steal);
    std::vector<double> lat;
    double n = 0, n_s = 0;
    for (size_t u : kept) {
        lat.insert(lat.end(), m.op_s[u].begin(), m.op_s[u].end());
        n += m.items[u];
        n_s += m.items_s[u];
    }
    const auto setups = least_stolen(m.setup_steal);
    std::vector<double> setup;
    for (size_t i : setups) setup.push_back(m.setup_s[i]);

    // The op_iqm_ms detail adds the median and the highest percentile
    // with at least ten samples beyond it.
    const Timing t = summarize(lat);
    char kept_detail[160];
    std::snprintf(kept_detail, sizeof kept_detail,
                  "\"units\":%zu,\"kept\":%zu,\"steal_share_median\":%.4g",
                  units, kept.size(), quantile(steal, 0.5));
    const std::string base = kept_detail;
    const std::string flops_per_unit = std::to_string(
        m.flops / static_cast<int64_t>(std::max<size_t>(units, 1)));
    return {
        {"setup_s", quantile(setup, 0.5), "s",
         "\"setups\":" + std::to_string(m.setup_s.size()) +
             ",\"kept\":" + std::to_string(setups.size())},
        {"peak_rss_mb", m.peak_rss_mb, "MB",
         "\"read_after_units\":" + std::to_string(kFixedOps)},
        {"op_iqm_ms", ms(interquartile_mean(lat)), "ms",
         base + "," + timing_detail(t)},
        {"op_p90_ms", ms(quantile(lat, 0.9)), "ms", base},
        {"throughput_per_s", n / std::max(n_s, 1e-12), "1/s",
         base + ",\"matmul_flops_per_unit\":" + flops_per_unit},
    };
}

/** Build @p make() kSetups times, timing each; keep the last. */
template <typename T, typename Make>
std::unique_ptr<T>
set_up(Measured& m, Make make)
{
    std::unique_ptr<T> obj;
    for (int r = 0; r < kSetups; ++r) {
        obj.reset();
        const Mark t0 = mark();
        obj = make();
        const Mark t1 = mark();
        m.setup_s.push_back(t1.wall_s - t0.wall_s);
        m.setup_steal.push_back(steal_share(t0, t1));
    }
    m.marks.push_back(mark());
    return obj;
}

std::vector<Metric>
run_loop(const Options& opt, Tally& tally)
{
    Measured m;
    auto loop = set_up<Loop>(
        m, [&] { return std::make_unique<Loop>(opt.seed, opt.out_dir); });
    loop->deployment().check_against_naive(tally, "after bootstrap");
    Tracer off;
    const int64_t flops0 = matmul_flops();
    const double deadline = now_s() + opt.seconds;
    for (int64_t i = 0; i < kFixedOps || now_s() < deadline; ++i) {
        const LoopStep s = loop->step(loop->capture(i),
                                      i % kRebootEvery == kRebootEvery - 1,
                                      off, tally);
        m.add({s.wall_s}, static_cast<double>(s.captured), s.wall_s);
        if (i + 1 == kFixedOps) m.peak_rss_mb = peak_rss_mb();
    }
    m.flops = matmul_flops() - flops0;
    loop->deployment().check_against_naive(tally, "after the loop");
    return end_to_end(m);
}

std::vector<Metric>
run_node(const Options& opt, Tally& tally)
{
    Measured m;
    auto node = set_up<NodeStream>(
        m, [&] { return std::make_unique<NodeStream>(opt.seed); });
    node->deployment().check_against_naive(tally, "after deploy");
    Tracer off;
    const int64_t flops0 = matmul_flops();
    const double deadline = now_s() + opt.seconds;
    for (int64_t i = 0; i < kFixedOps || now_s() < deadline; ++i) {
        const NodeCapture c = node->capture(i, off);
        m.add(c.request_s, static_cast<double>(c.images), c.diagnose_s);
        if (i + 1 == kFixedOps) m.peak_rss_mb = peak_rss_mb();
        tally.check(true, "node capture");
    }
    m.flops = matmul_flops() - flops0;
    node->deployment().check_against_naive(tally, "after the stream");
    return end_to_end(m);
}

std::vector<Metric>
run_fleet(const Options& opt, Tally& tally)
{
    Measured m;
    auto fleet = set_up<Fleet>(
        m, [&] { return std::make_unique<Fleet>(opt.seed, tally); });
    Tracer off;
    const int64_t flops0 = matmul_flops();
    const double deadline = now_s() + opt.seconds;
    for (int64_t i = 0; i < kFixedOps || now_s() < deadline; ++i) {
        const FleetStage s = fleet->stage(off, tally);
        m.add({s.wall_s}, static_cast<double>(s.events), s.wall_s);
        if (i + 1 == kFixedOps) m.peak_rss_mb = peak_rss_mb();
    }
    m.flops = matmul_flops() - flops0;
    fleet->rollback(tally);
    return end_to_end(m);
}

// ---- Traced run ----------------------------------------------------------

/** Op @p i of an alternating pass: pairs share an input, and which
 * half is traced alternates between pairs so drift cancels. */
bool
traced_half(int64_t i)
{
    return (i % 2 == 0) == ((i / 2) % 2 == 1);
}

/** Wall time and work of the traced and untraced halves. Work (the
 * matmul FLOPs, or fleet events) normalises the two halves, since the
 * second visit of a loop capture trains on an already-updated model. */
struct Halves {
    double s[2] = {0, 0};
    double work[2] = {0, 0};

    void
    add(bool traced, double wall_s, double w)
    {
        s[traced] += wall_s;
        work[traced] += w;
    }

    /** Traced over untraced time per unit of work, minus one. */
    double
    overhead() const
    {
        return (s[1] / std::max(work[1], 1.0)) /
                   std::max(s[0] / std::max(work[0], 1.0), 1e-30) -
               1.0;
    }
};

double
median_ms(const std::vector<double>& v)
{
    return ms(quantile(v, 0.5));
}

void
trace_loop(const Options& opt, double budget, Tracer& tr,
           std::vector<Metric>& out, Tally& tally)
{
    Loop loop(opt.seed, opt.out_dir);
    out.push_back({"loop.bootstrap_s", loop.deployment().bootstrap_s, "s", ""});
    Halves halves;
    std::vector<double> acc;
    double captured = 0, flagged = 0, useful = 0, upd = 0, upd_ok = 0,
           flops = 0;
    const int64_t wal0 = loop.wal_bytes();
    const double deadline = now_s() + budget;
    int64_t steps = 0;
    for (int64_t i = 0; i < 8 || i % 2 == 1 || now_s() < deadline; ++i) {
        tr.enabled = traced_half(i);
        tr.op = i;
        const LoopStep s = loop.step(loop.capture(i / 2),
                                     (i / 2) % kRebootEvery ==
                                         kRebootEvery - 1,
                                     tr, tally);
        tr.enabled = false;
        halves.add(traced_half(i), s.wall_s, static_cast<double>(s.flops));
        captured += static_cast<double>(s.captured);
        flagged += static_cast<double>(s.flagged);
        useful += static_cast<double>(s.useful);
        upd += s.update_s;
        if (s.accepted) upd_ok += s.update_s;
        flops += static_cast<double>(s.flops);
        acc.push_back(s.accuracy);
        ++steps;
    }
    // Coverage: the direct children of each step span account for it.
    const double step_total = sum(tr.durations("loop.step"));
    const double coverage = 1.0 - tr.self_time("loop.step") / step_total;
    const double n = static_cast<double>(steps);
    out.insert(out.end(), {
        {"loop.accuracy", mean(acc), "fraction", ""},
        {"iot.predict_ms", median_ms(tr.durations("iot.predict")), "ms", ""},
        {"iot.diagnose_ms", median_ms(tr.durations("iot.diagnose")), "ms",
         ""},
        {"iot.deploy_ms", median_ms(tr.durations("iot.deploy")), "ms", ""},
        {"iot.flag_rate", flagged / std::max(captured, 1.0), "fraction", ""},
        {"iot.upload_useful_ratio", useful / std::max(flagged, 1.0),
         "fraction", ""},
        {"cloud.pretrain_s", quantile(tr.durations("cloud.pretrain"), 0.5),
         "s", ""},
        {"cloud.validated_update_s",
         quantile(tr.durations("cloud.validated_update"), 0.5), "s", ""},
        {"cloud.update_accept_ratio", upd_ok / std::max(upd, 1e-12),
         "fraction", ""},
        {"storage.checkpoint_write_ms",
         median_ms(tr.durations("storage.checkpoint_write")), "ms", ""},
        {"storage.checkpoint_read_ms",
         median_ms(tr.durations("storage.checkpoint_read")), "ms", ""},
        {"storage.checkpoint_bytes",
         static_cast<double>(loop.checkpoint_bytes()), "B", ""},
        {"storage.wal_bytes",
         static_cast<double>(loop.wal_bytes() - wal0) / n, "B/step", ""},
        {"tensor.matmul.flops_per_step", flops / n, "flop/step", ""},
        {"trace.loop.span_coverage", coverage, "fraction", ""},
        {"trace.overhead_frac.insitu_loop", halves.overhead(),
         "fraction", ""},
    });
}

void
trace_node(const Options& opt, double budget, Tracer& tr,
           std::vector<Metric>& out, Tally& tally)
{
    NodeStream node(opt.seed);
    Halves halves;
    double flops = 0;
    int64_t captures = 0;
    const double deadline = now_s() + budget;
    for (int64_t i = 0; i < 8 || i % 2 == 1 || now_s() < deadline; ++i) {
        tr.enabled = traced_half(i);
        tr.op = i;
        const NodeCapture c = node.capture(i / 2, tr);
        tr.enabled = false;
        halves.add(traced_half(i), c.wall_s, static_cast<double>(c.flops));
        flops += static_cast<double>(c.flops);
        ++captures;
        tally.check(true, "node capture");
    }
    // Width-1 reference: alternate the pool width capture by capture.
    std::vector<double> b1_w1, b1_wn, diag_w1, diag_wn;
    for (int64_t i = 0; i < 8; ++i) {
        const bool narrow = traced_half(i);
        set_num_threads(narrow ? 1 : opt.width);
        const NodeCapture c = node.capture(i / 2, tr);
        auto& b1 = narrow ? b1_w1 : b1_wn;
        b1.insert(b1.end(), c.request_s.begin(), c.request_s.end());
        (narrow ? diag_w1 : diag_wn).push_back(c.diagnose_s);
    }
    set_num_threads(opt.width);
    out.insert(out.end(), {
        {"tensor.matmul.flops_per_capture",
         flops / static_cast<double>(captures), "flop/capture", ""},
        {"parallel.speedup.infer_b1",
         quantile(b1_w1, 0.5) / quantile(b1_wn, 0.5), "ratio", ""},
        {"parallel.speedup.diag",
         quantile(diag_w1, 0.5) / quantile(diag_wn, 0.5), "ratio", ""},
        {"trace.overhead_frac.node_stream", halves.overhead(),
         "fraction", ""},
    });
}

void
trace_fleet(const Options& opt, double budget, Tracer& tr,
            std::vector<Metric>& out, Tally& tally)
{
    Fleet fleet(opt.seed, tally);
    Halves halves;
    std::vector<double> wide;
    double events = 0;
    const double deadline = now_s() + budget;
    int64_t stages = 0;
    for (int64_t i = 0; i < 8 || i % 2 == 1 || now_s() < deadline; ++i) {
        tr.enabled = traced_half(i);
        tr.op = i;
        const FleetStage s = fleet.stage(tr, tally);
        tr.enabled = false;
        halves.add(traced_half(i), s.wall_s, static_cast<double>(s.events));
        wide.push_back(s.wall_s);
        events += static_cast<double>(s.events);
        ++stages;
    }
    std::vector<double> w1, wn;
    for (int64_t i = 0; i < 12; ++i) {
        const bool narrow = traced_half(i);
        set_num_threads(narrow ? 1 : opt.width);
        (narrow ? w1 : wn).push_back(fleet.stage(tr, tally).wall_s);
    }
    set_num_threads(opt.width);
    const double rollback_s = fleet.rollback(tally);
    out.insert(out.end(), {
        {"fleet.stage_ms", median_ms(wide), "ms", ""},
        {"fleet.events_per_stage", events / static_cast<double>(stages),
         "events", ""},
        {"fleet.rollback_ms", ms(rollback_s), "ms", ""},
        {"fleet.hot_allocs",
         static_cast<double>(fleet.hot_allocs_since_warmup()), "count", ""},
        {"fleet.approx_mb", fleet.approx_mb(), "MB", ""},
        {"parallel.speedup.fleet", quantile(w1, 0.5) / quantile(wn, 0.5),
         "ratio", ""},
        {"trace.overhead_frac.fleet_scale", halves.overhead(),
         "fraction", ""},
    });
}

} // namespace

std::vector<Metric>
run_workload(const Options& opt, Tally& tally)
{
    if (opt.workload == "insitu_loop") return run_loop(opt, tally);
    if (opt.workload == "node_stream") return run_node(opt, tally);
    return run_fleet(opt, tally);
}

std::vector<Metric>
run_traced(const Options& opt, Tally& tally)
{
    // Every traced run covers all three workloads, so it reports every
    // per-layer metric whichever --workload it was given.
    Tracer tr;
    std::vector<Metric> out;
    const double budget = opt.seconds / 3.0;
    trace_loop(opt, budget, tr, out, tally);
    trace_node(opt, budget, tr, out, tally);
    trace_fleet(opt, budget, tr, out, tally);
    const auto layers = replay_layers(opt.seed, tally);
    out.insert(out.end(), layers.begin(), layers.end());
    if (!opt.out_dir.empty()) {
        const std::string path = opt.out_dir + "/trace-" + opt.workload +
                                 "-seed" + std::to_string(opt.seed) +
                                 ".jsonl";
        tally.check(tr.write_jsonl(path), "write " + path);
    }
    return out;
}

} // namespace perfbench
