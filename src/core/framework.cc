#include "core/framework.h"

#include "nn/trainer.h"
#include "util/logging.h"

namespace insitu {

Framework::Framework(FrameworkConfig config)
    : config_(config),
      cloud_(config.tiny, titan_x_spec(), config.seed),
      node_(config.tiny, cloud_.permutations(), kSharedConvs,
            DiagnosisConfig{}, config.seed ^ 0x90DEULL)
{}

double
Framework::bootstrap(const Dataset& initial)
{
    INSITU_CHECK(initial.size() > 0, "bootstrap needs data");
    cloud_.pretrain(initial.images, config_.pretrain_epochs);
    cloud_.transfer_from_pretext(kSharedConvs);
    cloud_.inference().share_convs_from(cloud_.jigsaw().trunk(),
                                        kSharedConvs);
    UpdatePolicy policy = config_.update;
    policy.frozen_convs = kSharedConvs;
    cloud_.update(initial, policy);
    node_.deploy_diagnosis(cloud_.jigsaw());
    node_.deploy_inference(cloud_.inference());
    bootstrapped_ = true;
    return node_.inference().accuracy(initial);
}

LoopReport
Framework::autonomous_step(const Dataset& stage)
{
    INSITU_CHECK(bootstrapped_, "call bootstrap() first");
    LoopReport report;
    report.node = node_.process_stage(stage);

    const auto idx =
        DiagnosisTask::flagged_indices(report.node.flags);
    report.uploaded = static_cast<int64_t>(idx.size());
    if (!idx.empty()) {
        const Dataset valuable = gather_dataset(stage, idx);
        // Continued unsupervised pre-training on the raw upload keeps
        // the diagnosis model current with the drift; because the
        // conv prefix is shared, the inference features improve too.
        cloud_.pretrain(valuable.images,
                        std::max(1, config_.pretrain_epochs / 2));
        UpdatePolicy policy = config_.update;
        policy.frozen_convs = kSharedConvs;
        cloud_.update(valuable, policy);
        node_.deploy_diagnosis(cloud_.jigsaw());
        node_.deploy_inference(cloud_.inference());
    }
    report.accuracy_after = node_.inference().accuracy(stage);
    return report;
}

WorkingMode
Framework::working_mode() const
{
    return choose_working_mode(config_.inference_always_on);
}

SingleRunningPlan
Framework::plan_single_running(const GpuSpec& gpu) const
{
    SingleRunningPlanner planner{GpuModel(gpu)};
    return planner.plan(tinynet_desc(),
                        diagnosis_desc(tinynet_desc()),
                        config_.latency_requirement_s);
}

CoRunningPlan
Framework::plan_co_running(const FpgaSpec& fpga) const
{
    CoRunningPlanner planner{FpgaModel(fpga)};
    return planner.plan(tinynet_desc(),
                        config_.latency_requirement_s);
}

} // namespace insitu
