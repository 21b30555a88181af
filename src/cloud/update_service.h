/**
 * @file
 * The cloud side of the In-situ AI loop (Fig. 4, right).
 *
 * Owns the master copies of the unsupervised (jigsaw) network and the
 * inference network, performs unsupervised pre-training on raw
 * uploads, the transfer-learning surgery, and incremental supervised
 * updates. Paper-scale pricing of these jobs (Fig. 25's energy and
 * model-update time) is price_stage() in iot/system.h.
 */
#pragma once

#include "cloud/cost_model.h"
#include "cloud/registry.h"
#include "data/synth.h"
#include "models/tiny.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace insitu {

/** Knobs of one incremental update job. */
struct UpdatePolicy {
    /// Conv layers kept frozen during the update (the weight-shared
    /// prefix). 0 = full retrain.
    size_t frozen_convs = 0;
    int epochs = 2;
    double lr = 0.01;
};

/** Outcome of one update job. */
struct UpdateReport {
    int64_t images = 0;
    double mean_loss = 0;
    double wall_seconds = 0;   ///< actual CPU time spent here
};

/** Outcome of one validation-gated update job. */
struct ValidatedUpdateReport {
    UpdateReport update;
    double holdout_before = 0; ///< holdout accuracy pre-update
    double holdout_after = 0;  ///< holdout accuracy of what deploys
    /// Raw post-training holdout accuracy, kept even when the gate
    /// rejects the update (then holdout_after == holdout_before but
    /// holdout_trained shows how bad the refused weights were).
    double holdout_trained = 0;
    bool rolled_back = false;  ///< update regressed and was rejected
    int64_t baseline_version = 0; ///< registry id of the pre-update
                                  ///< snapshot (the rollback target)
    int64_t accepted_version = 0; ///< registry id of the accepted
                                  ///< update (0 when rolled back);
                                  ///< what a canary rollout evaluates
    /// Span id of the `cloud.validated_update` trace span (-1 when
    /// tracing is off). Upstream producers (fleet uplinks) link their
    /// capture traces into it with flow edges, so one trace shows
    /// captured -> delivered -> retrained -> redeployed.
    int64_t span_id = -1;
};

/** Cloud training/update service over the TinyNet family. */
class ModelUpdateService {
  public:
    /**
     * @param config TinyNet dimensions.
     * @param cloud_gpu the training device (for cost accounting).
     * @param seed reproducibility seed.
     */
    ModelUpdateService(TinyConfig config, GpuSpec cloud_gpu,
                       uint64_t seed);

    /** Unsupervised pre-training on unlabeled images (jigsaw
     *  pretext). */
    void pretrain(const Tensor& images, int epochs,
                  int64_t batch_size = 16);

    /**
     * Transfer learning (Fig. 4): copy the first @p convs conv layers
     * of the pretext trunk into the inference network.
     */
    void transfer_from_pretext(size_t convs);

    /** Supervised (incremental) update of the inference network. */
    UpdateReport update(const Dataset& data, const UpdatePolicy& policy);

    /**
     * Supervised update behind a validation gate: snapshot the
     * current weights into the registry, train on @p data, then
     * re-evaluate on @p holdout. If accuracy regressed by more than
     * @p tolerance the update is rejected — the snapshot is restored
     * and never deploys. Incremental training on autonomous uploads
     * can regress (bad labels, adversarial drift); this is the
     * cloud-side guard that keeps a bad stage from poisoning the
     * whole fleet.
     */
    ValidatedUpdateReport validated_update(const Dataset& data,
                                           const UpdatePolicy& policy,
                                           const Dataset& holdout,
                                           double tolerance = 0.02);

    /**
     * Restore registry version @p version into the inference network
     * and record the event as a new @p tag-tagged registry version
     * (carrying the restored version's validation accuracy), so the
     * registry history shows *that* a rollback happened, not just the
     * version it landed on. Used by the fleet supervisor when a
     * canary rollout fails. @return false if @p version is unknown.
     */
    bool rollback_to(int64_t version,
                     const std::string& tag = "rollback");

    /**
     * Attach the cloud's durability log: registry commits and
     * explicit rollbacks are recorded from here on. The service does
     * not own the log; pass nullptr to detach.
     */
    void attach_wal(storage::Wal* wal);

    /**
     * Crash-recovery path: replay recovered WAL records into the
     * registry, restore the inference network to the latest recovered
     * version, and resume the images-received tally from its
     * metadata. The jigsaw/pretext state is not durably logged — the
     * inference lineage (what canaries and rollbacks act on) is.
     * @return the number of registry versions restored.
     */
    size_t recover(const std::vector<storage::WalRecord>& records);

    /** Inference accuracy on a labeled dataset. */
    double evaluate(const Dataset& data);

    Network& inference() { return inference_; }
    const Network& inference() const { return inference_; }
    JigsawNetwork& jigsaw() { return jigsaw_; }
    const JigsawNetwork& jigsaw() const { return jigsaw_; }
    const PermutationSet& permutations() const { return perms_; }
    const TinyConfig& config() const { return config_; }
    const TrainingCostModel& cost_model() const { return cost_; }
    ModelRegistry& registry() { return registry_; }
    const ModelRegistry& registry() const { return registry_; }

    /** Total labeled images consumed by update() so far. */
    int64_t images_received() const { return images_received_; }

  private:
    /** Freeze @p policy's conv prefix of the inference network (and
     *  nothing else); returns the first layer an update trains. */
    size_t freeze_prefix(const UpdatePolicy& policy);

    TinyConfig config_;
    TrainingCostModel cost_;
    Rng rng_;
    PermutationSet perms_;
    JigsawNetwork jigsaw_;
    Network inference_;
    ModelRegistry registry_;
    storage::Wal* wal_ = nullptr; ///< optional durability log
    int64_t images_received_ = 0;
    uint64_t trace_seed_ = 0;  ///< construction seed, kept for minting
    uint64_t update_seq_ = 0;  ///< validated updates run (trace seq)
};

} // namespace insitu
