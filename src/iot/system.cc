#include "iot/system.h"

#include <algorithm>

#include "nn/quantize.h"
#include "nn/trainer.h"

namespace insitu {

namespace {

/** Paper-scale upload accounting for @p images images. */
void
account_upload(StageMetrics& m, int64_t images)
{
    const LinkSpec link = iot_uplink_spec();
    m.uploaded = images;
    m.upload_bytes =
        static_cast<double>(images) * kImageScale * bytes_per_image();
    m.upload_energy_j = link.transfer_energy(m.upload_bytes);
    m.upload_seconds = link.transfer_seconds(m.upload_bytes);
}

} // namespace

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
      cloud_(config.tiny, titan_x_spec(), config.seed),
      node_(config.tiny, cloud_.permutations(), kSharedConvs,
            DiagnosisConfig{}, config.seed ^ 0x0DEULL)
{}

double
IotSystemSim::deploy()
{
    node_.deploy_diagnosis(cloud_.jigsaw());
    node_.deploy_inference(cloud_.inference());
    // Downlink payload: inference net + jigsaw trunk/head, quantized
    // to int8. (Weight sharing means the shared prefix ships once as
    // part of the inference network; subtract the jigsaw trunk's
    // shared prefix, one byte per weight, accordingly.)
    auto payload = [](const Network& net) {
        return quantize_weights(net).payload_bytes();
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
             cloud_.jigsaw().trunk().layer(convs[i]).params())
            trunk_bytes -= static_cast<double>(p->numel());
    }
    bytes += std::max(0.0, trunk_bytes);
    return bytes;
}

StageMetrics
IotSystemSim::step(const Dataset& data)
{
    const bool bootstrap = stages_done_ == 0;
    StageMetrics m;
    m.stage = stages_done_++;
    m.acquired = data.size();

    // Who uploads what, and who filters. All variants ship the whole
    // first stage to the cloud to build the initial models (§V-B);
    // afterwards the node serves inference on everything it acquires
    // and diagnoses it.
    Dataset flagged;
    const Dataset* valuable = &data;
    if (bootstrap) {
        m.flag_rate = 1.0;
        m.accuracy_before = 0.1; // untrained prior: chance
    } else {
        const NodeStageReport report = node_.process_stage(data);
        m.accuracy_before = report.accuracy.value_or(0.0);
        m.flag_rate = report.flag_rate;
        if (kind_ != IotSystemKind::kCloudAll) {
            flagged = gather_dataset(
                data, DiagnosisTask::flagged_indices(report.flags));
            valuable = &flagged;
        }
        if (kind_ == IotSystemKind::kCloudDiagnosis) {
            // The cloud replays the diagnosis to filter; pay its
            // compute.
            const TrainingCost diag = cloud_.cost_model().diagnosis_cost(
                diagnosis_desc(tinynet_desc()),
                static_cast<double>(data.size()) * kImageScale);
            m.cloud_energy_j += diag.energy_j;
        }
    }
    // (b) uploads everything and filters in the cloud; the others
    // upload exactly what the cloud trains on.
    account_upload(m, kind_ == IotSystemKind::kCloudDiagnosis
                          ? data.size()
                          : valuable->size());

    // Unsupervised pre-training on the raw upload ((a) over
    // everything, (b)-(d) over the valuable subset); the bootstrap
    // then transfers the pretext trunk's conv prefix. In variant (d)
    // the shared prefix is literally the same storage in the cloud
    // too, so inference and diagnosis weights cannot diverge and the
    // unsupervised pass keeps improving both tasks.
    const int pretrain_epochs = bootstrap
                                    ? config_.pretrain_epochs
                                    : config_.incremental_pretrain_epochs;
    if (valuable->size() > 0) {
        cloud_.pretrain(valuable->images, pretrain_epochs);
        const TrainingCost pre = cloud_.cost_model().train_cost(
            tinynet_desc(),
            static_cast<double>(valuable->size()) * kImageScale,
            pretrain_epochs);
        m.cloud_energy_j += pre.energy_j;
        m.train_seconds += pre.seconds;
    }
    if (bootstrap) {
        cloud_.transfer_from_pretext(kSharedConvs);
        if (kind_ == IotSystemKind::kInsituAi) {
            cloud_.inference().share_convs_from(cloud_.jigsaw().trunk(),
                                                kSharedConvs);
        }
    }

    // Supervised update on the (possibly filtered) upload.
    UpdatePolicy policy = config_.update;
    policy.frozen_convs = kind_ == IotSystemKind::kInsituAi
                              ? kSharedConvs
                              : 0;
    m.labeled_images = valuable->size();
    if (valuable->size() > 0) cloud_.update(*valuable, policy);

    const TrainingCost train_cost = cloud_.cost_model().train_cost(
        tinynet_desc(),
        static_cast<double>(valuable->size()) * kImageScale,
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
    while (!stream.exhausted()) out.push_back(step(stream.next_stage()));
    return out;
}

} // namespace insitu
