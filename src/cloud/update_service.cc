#include "cloud/update_service.h"

#include <algorithm>
#include <chrono>

#include "nn/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/codec.h"
#include "storage/wal.h"
#include "util/logging.h"

namespace insitu {

namespace {

obs::Counter&
cloud_counter(const char* name)
{
    return obs::MetricsRegistry::global().counter(name);
}

/// Minibatch size of every supervised update job.
constexpr int64_t kUpdateBatch = 32;
/// SGD momentum of every supervised update job.
constexpr double kUpdateMomentum = 0.9;

} // namespace

ModelUpdateService::ModelUpdateService(TinyConfig config,
                                       GpuSpec cloud_gpu, uint64_t seed)
    : config_(config), cost_(std::move(cloud_gpu)), rng_(seed),
      perms_(config.num_permutations, rng_),
      jigsaw_(make_tiny_jigsaw(config, rng_)),
      inference_(make_tiny_inference(config, rng_)), trace_seed_(seed)
{}

void
ModelUpdateService::pretrain(const Tensor& images, int epochs,
                             int64_t batch_size)
{
    INSITU_CHECK(images.rank() == 4, "pretrain expects NCHW images");
    obs::ScopedSpan span("cloud.pretrain");
    static auto& pretrains = cloud_counter("cloud.pretrains");
    pretrains.add(1);
    Sgd opt({.lr = 0.015, .momentum = 0.9});
    const int64_t n = images.dim(0);
    for (int e = 0; e < epochs; ++e) {
        for (int64_t begin = 0; begin < n; begin += batch_size) {
            const int64_t end = std::min(n, begin + batch_size);
            const Tensor chunk = images.slice0(begin, end);
            const JigsawBatch batch =
                make_jigsaw_batch(chunk, perms_, rng_);
            jigsaw_.train_batch(opt, batch);
        }
    }
}

void
ModelUpdateService::transfer_from_pretext(size_t convs)
{
    inference_.copy_convs_from(jigsaw_.trunk(), convs);
}

UpdateReport
ModelUpdateService::update(const Dataset& data,
                           const UpdatePolicy& policy)
{
    obs::ScopedSpan span("cloud.update");
    static auto& updates = cloud_counter("cloud.updates");
    static auto& images_in = cloud_counter("cloud.update.images");
    updates.add(1);
    images_in.add(data.size());
    UpdateReport report;
    report.images = data.size();
    images_received_ += data.size();

    const size_t first = freeze_prefix(policy);

    const auto t0 = std::chrono::steady_clock::now();
    Sgd opt({.lr = policy.lr, .momentum = kUpdateMomentum});
    Rng epoch_rng = rng_.split();
    // The frozen prefix runs once, in eval mode, over the whole
    // upload; every epoch trains the layers above it on its output.
    const Tensor prefix = first > 0 ? prefix_activations(
                                          inference_, data.images, first)
                                    : Tensor();
    const Tensor& feats = first > 0 ? prefix : data.images;
    const auto stats =
        train_epochs(inference_, opt, feats, data.labels, kUpdateBatch,
                     policy.epochs, epoch_rng, first);
    const auto t1 = std::chrono::steady_clock::now();
    inference_.unfreeze_all();

    report.mean_loss = stats.empty() ? 0.0 : stats.back().mean_loss;
    report.wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    // Deliberately the wall duration (not the telemetry clock): this
    // histogram prices real training work even inside simulated runs,
    // and is therefore excluded from byte-identity checks.
    static auto& update_time = obs::MetricsRegistry::global()
                                   .histogram("cloud.update.wall_s");
    update_time.observe(report.wall_seconds);
    return report;
}

ValidatedUpdateReport
ModelUpdateService::validated_update(const Dataset& data,
                                     const UpdatePolicy& policy,
                                     const Dataset& holdout,
                                     double tolerance)
{
    INSITU_CHECK(holdout.size() > 0,
                 "validation gate needs a holdout set");
    INSITU_CHECK(tolerance >= 0, "tolerance must be non-negative");
    obs::ScopedSpan span("cloud.validated_update");
    static auto& validations = cloud_counter("cloud.validations");
    validations.add(1);
    ValidatedUpdateReport report;
    report.span_id = span.id();
    // The cloud update is a trace entry point of its own: mint a
    // lineage id from (construction seed, update ordinal) — pure
    // function of the scenario, no RNG draw — so a standalone update
    // still gets a causal identity linking it to its rollback.
    const obs::TraceContext update_ctx = obs::mint_trace_context(
        trace_seed_ ^ 0xC10DULL, ++update_seq_);
    // The update leaves its frozen prefix untouched, so the holdout's
    // prefix activations are computed once and score both holdout
    // evaluations.
    const size_t first = freeze_prefix(policy);
    const Tensor prefix = first > 0 ? prefix_activations(
                                          inference_, holdout.images, first)
                                    : Tensor();
    const Tensor& held = first > 0 ? prefix : holdout.images;
    report.holdout_before =
        evaluate_accuracy(inference_, held, holdout.labels, first);
    report.baseline_version =
        registry_.commit(inference_, "pre-update",
                         report.holdout_before, images_received_);
    report.update = update(data, policy);
    const double after =
        evaluate_accuracy(inference_, held, holdout.labels, first);
    report.holdout_trained = after;
    if (after + tolerance < report.holdout_before) {
        // The update regressed: restore the snapshot so the bad
        // weights never deploy.
        INSITU_CHECK(
            registry_.restore(report.baseline_version, inference_),
            "rollback to the pre-update snapshot failed");
        report.rolled_back = true;
        report.holdout_after = report.holdout_before;
        static auto& rollbacks = cloud_counter("cloud.rollbacks");
        rollbacks.add(1);
        const int64_t rb = obs::TraceRecorder::global().instant(
            "cloud.rollback",
            {{"version", std::to_string(report.baseline_version)}});
        obs::TraceRecorder::global().flow(
            {update_ctx.trace_id, report.span_id}, rb);
    } else {
        report.holdout_after = after;
        report.accepted_version = registry_.commit(
            inference_, "accepted", after, images_received_);
    }
    return report;
}

size_t
ModelUpdateService::freeze_prefix(const UpdatePolicy& policy)
{
    inference_.unfreeze_all();
    inference_.freeze_first_convs(policy.frozen_convs);
    return inference_.first_trainable();
}

bool
ModelUpdateService::rollback_to(int64_t version,
                                const std::string& tag)
{
    const auto meta = registry_.find(version);
    if (!meta || !registry_.restore(version, inference_)) {
        warn("rollback to unknown model version " +
             std::to_string(version));
        return false;
    }
    if (wal_ != nullptr) {
        // Log the *decision* ahead of the registry commit it causes,
        // so a recovered history shows why the next version exists.
        std::string payload;
        storage::put_i64(payload, version);
        storage::put_bytes(payload, tag);
        wal_->append(kWalCloudRollback, payload);
    }
    static auto& rollbacks = cloud_counter("cloud.rollbacks");
    rollbacks.add(1);
    obs::TraceRecorder::global().instant(
        "cloud.rollback", {{"version", std::to_string(version)},
                           {"tag", tag}});
    registry_.commit(inference_, tag, meta->validation_accuracy,
                     images_received_);
    return true;
}

void
ModelUpdateService::attach_wal(storage::Wal* wal)
{
    wal_ = wal;
    registry_.attach_wal(wal);
}

size_t
ModelUpdateService::recover(
    const std::vector<storage::WalRecord>& records)
{
    const size_t applied = registry_.replay(records);
    const auto latest = registry_.latest();
    if (latest) {
        INSITU_CHECK(registry_.restore(latest->id, inference_),
                     "recovered registry blob failed to restore");
        images_received_ = latest->trained_images;
    }
    static auto& recoveries = cloud_counter("cloud.recoveries");
    recoveries.add(1);
    return applied;
}

double
ModelUpdateService::evaluate(const Dataset& data)
{
    return evaluate_accuracy(inference_, data.images, data.labels);
}

} // namespace insitu
