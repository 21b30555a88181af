/**
 * @file
 * End-to-end simulation of the four deep-learning IoT systems of
 * Fig. 24 over an incremental data stream (§V-B):
 *
 *  (a) CloudAll       — every image uploads; full retrain in cloud.
 *  (b) CloudDiagnosis — every image uploads; the cloud diagnoses and
 *                       retrains on the valuable subset only.
 *  (c) NodeDiagnosis  — the node diagnoses; only valuable images
 *                       upload; full retrain in cloud.
 *  (d) InsituAi       — the node diagnoses; only valuable images
 *                       upload; the weight-shared prefix stays frozen
 *                       so the update touches only the last conv
 *                       layers and the FCN head.
 *
 * Training is real (TinyNet gradients on synthetic data); time,
 * energy and data movement are additionally priced at paper scale
 * through the link and cloud-GPU cost models.
 */
#pragma once

#include "cloud/update_service.h"
#include "data/stream.h"
#include "hw/spec.h"
#include "iot/node.h"

namespace insitu {

/** The four system topologies of Fig. 24. */
enum class IotSystemKind {
    kCloudAll,       ///< (a)
    kCloudDiagnosis, ///< (b)
    kNodeDiagnosis,  ///< (c)
    kInsituAi,       ///< (d)
};

/** Printable system name ("a", "b", "c", "d" plus description). */
const char* iot_system_name(IotSystemKind kind);

/** Per-stage outcome of one system. */
struct StageMetrics {
    int stage = 0;
    int64_t acquired = 0;       ///< images acquired this stage
    int64_t uploaded = 0;       ///< images sent to the cloud
    double upload_bytes = 0;    ///< at paper scale
    double upload_energy_j = 0; ///< node radio energy, paper scale
    double upload_seconds = 0;  ///< link time, paper scale
    double cloud_energy_j = 0;  ///< diagnosis + training, paper scale
    double train_seconds = 0;   ///< cloud GPU time, paper scale
    double update_seconds = 0;  ///< upload + training (model update)
    double flag_rate = 0;       ///< diagnosis positive rate
    /// Images a human must label for the supervised update — the
    /// other cost the diagnosis filtering cuts (§II: "it is difficult
    /// for us to label these big IoT data").
    int64_t labeled_images = 0;
    /// Bytes of the refreshed model shipped back to the node
    /// (int8-quantized when the config enables it).
    double deploy_bytes = 0;
    double accuracy_before = 0; ///< node accuracy on this stage's data
    double accuracy_after = 0;  ///< after the stage's model update
};

/** Simulator configuration shared across the four systems. */
struct IotSystemConfig {
    TinyConfig tiny;
    LinkSpec link;
    GpuSpec cloud_gpu;
    UpdatePolicy update;        ///< base policy (epochs, lr)
    int pretrain_epochs = 3;    ///< initial unsupervised pre-training
    /// Unsupervised epochs over each stage's upload (continual
    /// pretext learning that keeps the diagnosis model current).
    int incremental_pretrain_epochs = 1;
    /// Paper-scale multiplier: each rendered image represents this
    /// many real images in the data-movement/energy accounting.
    double image_scale = 1000.0;
    /// Ship int8-quantized weights on the downlink (~4x smaller).
    bool quantized_deployment = true;
    uint64_t seed = 1;
};

/** One Fig. 24 system, runnable stage by stage. */
class IotSystemSim {
  public:
    IotSystemSim(IotSystemKind kind, IotSystemConfig config);

    /**
     * Consume every stage of @p stream: stage 0 bootstraps the models
     * (full upload + pre-training in all variants, as in the paper),
     * later stages follow the variant's topology.
     */
    std::vector<StageMetrics> run(IotStream& stream);

    IotSystemKind kind() const { return kind_; }
    const ModelUpdateService& cloud() const { return cloud_; }
    InsituNode& node() { return node_; }

  private:
    StageMetrics bootstrap_stage(const Dataset& data);
    StageMetrics incremental_stage(int stage, const Dataset& data);

    /** Paper-scale upload accounting for @p images images. */
    void account_upload(StageMetrics& m, int64_t images) const;

    /** Re-deploy the current cloud models onto the node.
     * @return downlink payload bytes of the shipped models. */
    double deploy();

    IotSystemKind kind_;
    IotSystemConfig config_;
    ModelUpdateService cloud_;
    InsituNode node_;
};

} // namespace insitu
