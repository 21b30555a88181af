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
 * Each system is two parts. The *trajectory* is what gets trained,
 * and it depends on two facts about the kind: are uploads filtered by
 * the node's flags (b, c and d), and is the first kSharedConvs convs'
 * storage shared and frozen (d only)? So (b) and (c) train the same
 * bits. The *pricing* (price_stage) is a pure function of the kind
 * and one stage's record: upload bytes, radio energy and link time,
 * (b)'s cloud diagnosis, and pretrain and train cost, at paper scale
 * through the IoT uplink (iot_uplink_spec) and the Titan X cloud GPU
 * (titan_x_spec) cost models. Training is real (TinyNet gradients on
 * synthetic data).
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

/** Per-stage outcome of one system. price_stage() fills uploaded,
 *  upload_*, cloud_energy_j, train_seconds and update_seconds. */
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
    /// Bytes of the int8-quantized refreshed model shipped back to
    /// the node.
    double deploy_bytes = 0;
    double accuracy_before = 0; ///< node accuracy on this stage's data
    double accuracy_after = 0;  ///< after the stage's model update
};

/// Paper-scale multiplier: each rendered image represents this many
/// real images in the data-movement/energy accounting.
inline constexpr double kImageScale = 1000.0;

/** Simulator configuration shared across the four systems. */
struct IotSystemConfig {
    TinyConfig tiny;
    int update_epochs = 2;      ///< supervised update epochs
    double update_lr = 0.01;    ///< supervised update learning rate
    int pretrain_epochs = 3;    ///< initial unsupervised pre-training
    /// Unsupervised epochs over each stage's upload (continual
    /// pretext learning that keeps the diagnosis model current).
    int incremental_pretrain_epochs = 1;
    uint64_t seed = 1;
};

/**
 * Price one stage of system @p kind from its @p record: every priced
 * field is recomputed from the record's stage, acquired and
 * labeled_images and @p config's epochs, so a (c) record re-priced as
 * (b) equals a (b) run.
 */
StageMetrics price_stage(IotSystemKind kind,
                         const IotSystemConfig& config,
                         StageMetrics record);

/**
 * One Fig. 24 system, runnable stage by stage. With kInsituAi it is
 * the paper's whole Fig. 4 loop on one node and its cloud.
 */
class IotSystemSim {
  public:
    IotSystemSim(IotSystemKind kind, IotSystemConfig config);

    /**
     * Consume one stage of data. The first call bootstraps the models
     * (full upload, pre-training, transfer and supervised training in
     * all variants, as in the paper); later calls follow the variant's
     * topology. Every call redeploys the cloud models to the node.
     */
    StageMetrics step(const Dataset& data);

    /** step() through every remaining stage of @p stream. */
    std::vector<StageMetrics> run(IotStream& stream);

    ModelUpdateService& cloud() { return cloud_; }
    InsituNode& node() { return node_; }

  private:
    /** Re-deploy the current cloud models onto the node.
     * @return downlink payload bytes of the shipped models. */
    double deploy();

    IotSystemKind kind_;
    IotSystemConfig config_;
    ModelUpdateService cloud_;
    InsituNode node_;
    int stages_done_ = 0;
};

} // namespace insitu
