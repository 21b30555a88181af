/**
 * @file
 * The In-situ AI edge node (Fig. 4, left).
 *
 * Hosts the inference task and the diagnosis task with the first
 * conv layers weight-shared between them (one storage, two networks),
 * accepts model deployments from the cloud, and processes incoming
 * stage data: predict everything, flag the valuable subset.
 */
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "iot/tasks.h"
#include "models/tiny.h"

namespace insitu {

namespace storage {
class SnapshotStore;
}

/// Conv layers the inference and diagnosis networks share (Fig. 6's
/// weight-shared prefix): the fleet and the Fig. 24 systems build
/// their nodes with it.
inline constexpr size_t kSharedConvs = 3;

/**
 * Serialized snapshot of everything a node must survive a reboot
 * with: the deployed inference weights and the diagnosis trunk+head.
 * In-flight state (flagged images awaiting upload) is deliberately
 * NOT part of the checkpoint — a crash loses it, the model survives.
 */
struct NodeCheckpoint {
    std::string inference_blob;
    std::string trunk_blob;
    std::string head_blob;

    bool empty() const { return inference_blob.empty(); }
};

/**
 * Frame a checkpoint as one durable payload: magic, checkpoint format
 * version, then the three blobs length-prefixed, with a CRC-32 over
 * all of it. Suitable for SnapshotStore::write.
 */
std::string encode_checkpoint(const NodeCheckpoint& ckpt);

/**
 * Decode a payload written by encode_checkpoint. False (leaving
 * @p out untouched) on bad magic/version/CRC or truncation.
 */
bool decode_checkpoint(std::string_view payload, NodeCheckpoint& out);

/** What the node did with one stage of acquired data. */
struct NodeStageReport {
    int64_t acquired = 0;
    std::vector<int64_t> predictions;
    std::vector<bool> flags;          ///< valuable (unrecognized)
    int64_t flagged = 0;
    double flag_rate = 0;
    std::optional<double> accuracy;   ///< only when labels are known
};

/** An edge-computing node running both In-situ tasks. */
class InsituNode {
  public:
    /**
     * Build a node whose diagnosis network shares its first
     * @p shared_convs conv layers with the inference network, using
     * the same permutation set as the cloud service.
     */
    InsituNode(const TinyConfig& config, const PermutationSet& perms,
               size_t shared_convs, DiagnosisConfig diag_config,
               uint64_t seed);

    /** Copy cloud inference weights onto the node. */
    void deploy_inference(const Network& cloud_inference);

    /** Copy cloud jigsaw (trunk + head) weights onto the node. */
    void deploy_diagnosis(const JigsawNetwork& cloud_jigsaw);

    /** Predict + diagnose one stage of data. */
    NodeStageReport process_stage(const Dataset& stage);

    /**
     * Snapshot the deployed models to persistent storage (nn/serialize
     * format), so a crashed node can reboot into its last deployment.
     */
    NodeCheckpoint checkpoint() const;

    /**
     * Reboot path: load the models back from @p ckpt. All-or-nothing:
     * every blob is applied, or — on a malformed or incompatible
     * checkpoint — none is.
     * @return false (leaving the node unchanged) on failure.
     */
    bool restore(const NodeCheckpoint& ckpt);

    /**
     * Durably persist the current deployment into @p store (atomic
     * replace: the previous on-disk checkpoint survives any failure).
     */
    bool save_checkpoint(storage::SnapshotStore& store) const;

    /**
     * Reboot-from-disk path: read, decode and restore the checkpoint
     * in @p store. All-or-nothing like restore(); a missing, torn,
     * stale or bit-rotted file leaves the node bit-identical.
     */
    bool restore_from(storage::SnapshotStore& store);

    // ---- Co-running deployment: double-buffered weights ----------
    //
    // The serving runtime (src/serving) streams inference batches
    // continuously, so a cloud update can arrive while a batch is in
    // flight. Applying it immediately would tear the batch (some
    // images scored by the old weights, some by the new). Instead the
    // update is *staged* into a back buffer — a pure data copy that
    // never touches the live networks — and *committed* by the
    // runtime at the next batch boundary. A batch therefore always
    // runs start-to-finish on one model version, and a swap costs the
    // stream zero stall time (docs/serving.md, "The swap protocol").

    /**
     * Park @p ckpt in the back buffer without touching the live
     * weights. A later stage overwrites an uncommitted one (last
     * update wins). @return the version number the checkpoint will
     * carry once committed.
     */
    uint64_t stage_deployment(NodeCheckpoint ckpt);

    /** Is an update parked and waiting for a batch boundary? */
    bool has_staged_deployment() const { return staged_.has_value(); }

    /** Version a commit_staged_deployment() would publish (0 when
     * nothing is staged). */
    uint64_t staged_version() const;

    /**
     * Apply the staged checkpoint (all-or-nothing, like restore()).
     * Call only between batches. @return false — clearing the stage
     * and leaving the live weights and version untouched — on a
     * malformed or incompatible checkpoint.
     */
    bool commit_staged_deployment();

    /**
     * Version of the live weights: bumped by deploy_inference() and
     * every successful commit_staged_deployment(); 0 until the first
     * deployment. Lets the serving runtime prove no batch spans a
     * swap.
     */
    uint64_t model_version() const { return model_version_; }

    /** Conv layers shared between the two on-node networks. */
    size_t shared_convs() const { return shared_convs_; }

    InferenceTask& inference() { return inference_; }
    DiagnosisTask& diagnosis() { return diagnosis_; }

  private:
    size_t shared_convs_;
    InferenceTask inference_;
    DiagnosisTask diagnosis_;
    /// Double-buffer back buffer: the staged-but-uncommitted update
    /// and the version it will publish.
    std::optional<NodeCheckpoint> staged_;
    uint64_t staged_version_ = 0;
    uint64_t model_version_ = 0;
    uint64_t deploy_seq_ = 0; ///< monotonic version allocator
};

} // namespace insitu
