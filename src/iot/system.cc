#include "iot/system.h"

#include <algorithm>

#include "nn/quantize.h"
#include "nn/trainer.h"

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
price_stage(IotSystemKind kind, const IotSystemConfig& config,
            StageMetrics m)
{
    const bool bootstrap = m.stage == 0;
    const TrainingCostModel cost(titan_x_spec());
    const double trained =
        static_cast<double>(m.labeled_images) * kImageScale;
    Rng rng(0); // the nets are built only to be described
    const int64_t side = config.tiny.image_size, tile = side / 3;
    const NetworkDesc net =
        describe(make_tiny_inference(config.tiny, rng), {3, side, side});
    m.cloud_energy_j = 0;
    m.train_seconds = 0;
    // (b) uploads everything and filters in the cloud, so it pays for
    // the node's diagnosis forward there: per probe, the trunk on each
    // tile and the head once. The others upload exactly what the cloud
    // trains on.
    m.uploaded = m.labeled_images;
    if (kind == IotSystemKind::kCloudDiagnosis) {
        m.uploaded = m.acquired;
        const JigsawNetwork jig = make_tiny_jigsaw(config.tiny, rng);
        const int64_t tiles = PermutationSet::kTiles;
        const int64_t head_in = tiles * tiny_trunk_features(config.tiny);
        const double probes = bootstrap ? 0.0 : DiagnosisConfig{}.probes *
                                                    kImageScale * m.acquired;
        m.cloud_energy_j +=
            cost.diagnosis_cost(describe(jig.trunk(), {3, tile, tile}),
                                probes * tiles)
                .energy_j +
            cost.diagnosis_cost(describe(jig.head(), {head_in}), probes)
                .energy_j;
    }
    const LinkSpec link = iot_uplink_spec();
    m.upload_bytes =
        static_cast<double>(m.uploaded) * kImageScale * bytes_per_image();
    m.upload_energy_j = link.transfer_energy(m.upload_bytes);
    m.upload_seconds = link.transfer_seconds(m.upload_bytes);

    if (m.labeled_images > 0) {
        const TrainingCost pre = cost.train_cost(
            net, trained,
            bootstrap ? config.pretrain_epochs
                      : config.incremental_pretrain_epochs);
        m.cloud_energy_j += pre.energy_j;
        m.train_seconds += pre.seconds;
    }
    const TrainingCost train = cost.train_cost(
        net, trained, config.update_epochs,
        kind == IotSystemKind::kInsituAi ? kSharedConvs : 0);
    m.cloud_energy_j += train.energy_j;
    m.train_seconds += train.seconds;
    m.update_seconds = m.upload_seconds + m.train_seconds;
    return m;
}

StageMetrics
IotSystemSim::step(const Dataset& data)
{
    // The trajectory depends on two facts about the kind only.
    const bool filtered = kind_ != IotSystemKind::kCloudAll;
    const bool shared = kind_ == IotSystemKind::kInsituAi;
    const bool bootstrap = stages_done_ == 0;
    StageMetrics m;
    m.stage = stages_done_++;
    m.acquired = data.size();

    // All variants ship the whole first stage to the cloud to build
    // the initial models (§V-B); afterwards the node serves inference
    // on everything it acquires and diagnoses it.
    Dataset flagged;
    const Dataset* valuable = &data;
    if (bootstrap) {
        m.flag_rate = 1.0;
        m.accuracy_before = 0.1; // untrained prior: chance
    } else {
        const NodeStageReport report = node_.process_stage(data);
        m.accuracy_before = report.accuracy.value_or(0.0);
        m.flag_rate = report.flag_rate;
        if (filtered) {
            flagged = gather_dataset(
                data, DiagnosisTask::flagged_indices(report.flags));
            valuable = &flagged;
        }
    }
    m.labeled_images = valuable->size();

    // Unsupervised pre-training on the raw upload ((a) over
    // everything, (b)-(d) over the valuable subset); the bootstrap
    // then transfers the pretext trunk's conv prefix. In variant (d)
    // the shared prefix is literally the same storage in the cloud
    // too, so inference and diagnosis weights cannot diverge and the
    // unsupervised pass keeps improving both tasks.
    if (valuable->size() > 0)
        cloud_.pretrain(valuable->images,
                        bootstrap ? config_.pretrain_epochs
                                  : config_.incremental_pretrain_epochs);
    if (bootstrap) {
        cloud_.transfer_from_pretext(kSharedConvs);
        if (shared)
            cloud_.inference().share_convs_from(cloud_.jigsaw().trunk(),
                                                kSharedConvs);
    }

    // Supervised update on the (possibly filtered) upload.
    if (valuable->size() > 0)
        cloud_.update(*valuable,
                      UpdatePolicy{shared ? kSharedConvs : 0,
                                   config_.update_epochs,
                                   config_.update_lr});

    m.deploy_bytes = deploy();
    m.accuracy_after = node_.inference().accuracy(data);
    return price_stage(kind_, config_, m);
}

std::vector<StageMetrics>
IotSystemSim::run(IotStream& stream)
{
    std::vector<StageMetrics> out;
    while (!stream.exhausted()) out.push_back(step(stream.next_stage()));
    return out;
}

} // namespace insitu
