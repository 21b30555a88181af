#include "iot/system.h"

#include <algorithm>

#include "nn/quantize.h"
#include "nn/trainer.h"
#include "util/logging.h"

namespace insitu {

const char*
iot_system_name(IotSystemKind kind)
{
    switch (kind) {
      case IotSystemKind::kCloudAll: return "a:cloud-all";
      case IotSystemKind::kCloudDiagnosis: return "b:cloud-diagnosis";
      case IotSystemKind::kNodeDiagnosis: return "c:node-diagnosis";
      case IotSystemKind::kInsituAi: return "d:in-situ-ai";
    }
    return "?";
}

IotSystemSim::IotSystemSim(IotSystemKind kind, IotSystemConfig config)
    : kind_(kind), config_(config),
      cloud_(config.tiny, config.cloud_gpu, config.seed),
      node_(config.tiny, cloud_.permutations(), kSharedConvs,
            DiagnosisConfig{}, config.seed ^ 0x0DEULL)
{}

void
IotSystemSim::account_upload(StageMetrics& m, int64_t images) const
{
    m.uploaded = images;
    m.upload_bytes = static_cast<double>(images) *
                     config_.image_scale * bytes_per_image();
    m.upload_energy_j = config_.link.transfer_energy(m.upload_bytes);
    m.upload_seconds = config_.link.transfer_seconds(m.upload_bytes);
}

double
IotSystemSim::deploy()
{
    node_.deploy_diagnosis(cloud_.jigsaw());
    node_.deploy_inference(cloud_.inference());
    // Downlink payload: inference net + jigsaw trunk/head, quantized
    // to int8 when enabled. (Weight sharing means the shared prefix
    // ships once as part of the inference network; subtract the
    // jigsaw trunk's shared prefix accordingly.)
    auto payload = [&](const Network& net) {
        if (config_.quantized_deployment)
            return quantize_weights(net).payload_bytes();
        return float_payload_bytes(net);
    };
    double bytes = payload(cloud_.inference()) +
                   payload(cloud_.jigsaw().head());
    const size_t shared =
        cloud_.jigsaw().trunk().shared_conv_prefix(cloud_.inference());
    // Unshared trunk suffix still has to ship.
    double trunk_bytes = payload(cloud_.jigsaw().trunk());
    const auto convs = cloud_.jigsaw().trunk().conv_layer_indices();
    for (size_t i = 0; i < shared && i < convs.size(); ++i) {
        for (auto& p :
             cloud_.jigsaw().trunk().layer(convs[i]).params()) {
            const double w = static_cast<double>(p->numel());
            trunk_bytes -= config_.quantized_deployment ? w : 4.0 * w;
        }
    }
    bytes += std::max(0.0, trunk_bytes);
    return bytes;
}

StageMetrics
IotSystemSim::bootstrap_stage(const Dataset& data)
{
    StageMetrics m;
    m.stage = 0;
    m.acquired = data.size();
    // All variants ship the whole first stage to the cloud to build
    // the initial models (§V-B).
    account_upload(m, data.size());

    // Unsupervised pre-training on the raw upload, then transfer.
    cloud_.pretrain(data.images, config_.pretrain_epochs);
    cloud_.transfer_from_pretext(kSharedConvs);
    // Variant (d) keeps the shared prefix literally shared in the
    // cloud too, so inference and diagnosis weights cannot diverge.
    if (kind_ == IotSystemKind::kInsituAi) {
        cloud_.inference().share_convs_from(cloud_.jigsaw().trunk(),
                                            kSharedConvs);
    }

    UpdatePolicy policy = config_.update;
    policy.frozen_convs = kind_ == IotSystemKind::kInsituAi
                              ? kSharedConvs
                              : 0;
    m.labeled_images = data.size();
    const UpdateReport report = cloud_.update(data, policy);

    // Cost accounting at paper scale: pre-training (all variants pay
    // it once) plus the supervised pass.
    const double paper_images =
        static_cast<double>(data.size()) * config_.image_scale;
    const TrainingCost pretrain_cost = cloud_.cost_model().train_cost(
        tinynet_desc(), paper_images, config_.pretrain_epochs);
    const TrainingCost train_cost = cloud_.cost_model().train_cost(
        tinynet_desc(), paper_images, policy.epochs,
        policy.frozen_convs);
    m.cloud_energy_j = pretrain_cost.energy_j + train_cost.energy_j;
    m.train_seconds = pretrain_cost.seconds + train_cost.seconds;
    m.update_seconds = m.upload_seconds + m.train_seconds;
    m.flag_rate = 1.0;

    m.deploy_bytes = deploy();
    m.accuracy_before = 0.1; // untrained prior: chance
    m.accuracy_after = node_.inference().accuracy(data);
    (void)report;
    return m;
}

StageMetrics
IotSystemSim::incremental_stage(int stage, const Dataset& data)
{
    StageMetrics m;
    m.stage = stage;
    m.acquired = data.size();

    // The node always serves inference on everything it acquires.
    const NodeStageReport node_report = node_.process_stage(data);
    m.accuracy_before = node_report.accuracy.value_or(0.0);
    m.flag_rate = node_report.flag_rate;

    // Who uploads what, and who filters.
    Dataset valuable;
    const double paper_scale = config_.image_scale;
    switch (kind_) {
      case IotSystemKind::kCloudAll: {
        account_upload(m, data.size());
        valuable = data; // no filtering: retrain on everything
        break;
      }
      case IotSystemKind::kCloudDiagnosis: {
        account_upload(m, data.size());
        // The cloud replays the diagnosis to filter; pay its compute.
        const TrainingCost diag = cloud_.cost_model().diagnosis_cost(
            diagnosis_desc(tinynet_desc()),
            static_cast<double>(data.size()) * paper_scale);
        m.cloud_energy_j += diag.energy_j;
        valuable = gather_dataset(
            data, DiagnosisTask::flagged_indices(node_report.flags));
        break;
      }
      case IotSystemKind::kNodeDiagnosis:
      case IotSystemKind::kInsituAi: {
        valuable = gather_dataset(
            data, DiagnosisTask::flagged_indices(node_report.flags));
        account_upload(m, valuable.size());
        break;
      }
    }

    // Continued unsupervised pre-training on the raw upload (every
    // Fig. 24 variant pre-trains in the cloud; (a) over everything,
    // (b)-(d) over the valuable subset). In variant (d) the shared
    // conv prefix is literally the same storage as the inference
    // network, so the unsupervised pass keeps improving both tasks.
    const Dataset& pretrain_data =
        kind_ == IotSystemKind::kCloudAll ? data : valuable;
    if (pretrain_data.size() > 0) {
        cloud_.pretrain(pretrain_data.images,
                        config_.incremental_pretrain_epochs);
        const TrainingCost pre = cloud_.cost_model().train_cost(
            tinynet_desc(),
            static_cast<double>(pretrain_data.size()) * paper_scale,
            config_.incremental_pretrain_epochs);
        m.cloud_energy_j += pre.energy_j;
        m.train_seconds += pre.seconds;
    }

    // Incremental supervised update on the (possibly filtered)
    // upload.
    UpdatePolicy policy = config_.update;
    policy.frozen_convs = kind_ == IotSystemKind::kInsituAi
                              ? kSharedConvs
                              : 0;
    m.labeled_images = valuable.size();
    if (valuable.size() > 0) cloud_.update(valuable, policy);

    const TrainingCost train_cost = cloud_.cost_model().train_cost(
        tinynet_desc(),
        static_cast<double>(valuable.size()) * paper_scale,
        policy.epochs, policy.frozen_convs);
    m.cloud_energy_j += train_cost.energy_j;
    m.train_seconds += train_cost.seconds;
    m.update_seconds = m.upload_seconds + m.train_seconds;

    m.deploy_bytes = deploy();
    m.accuracy_after = node_.inference().accuracy(data);
    return m;
}

std::vector<StageMetrics>
IotSystemSim::run(IotStream& stream)
{
    std::vector<StageMetrics> out;
    int stage = 0;
    while (!stream.exhausted()) {
        const Dataset data = stream.next_stage();
        if (stage == 0)
            out.push_back(bootstrap_stage(data));
        else
            out.push_back(incremental_stage(stage, data));
        ++stage;
    }
    return out;
}

} // namespace insitu
