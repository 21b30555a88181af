/**
 * @file
 * Unit tests for the edge node: tasks, weight sharing on the node,
 * deployment, stage processing, and the four-system simulator's
 * structural invariants (who uploads what).
 */
#include <gtest/gtest.h>

#include "iot/system.h"

namespace insitu {
namespace {

TinyConfig
small_tiny()
{
    TinyConfig c;
    c.num_permutations = 8;
    return c;
}

TEST(InferenceTask, PredictsEveryImage)
{
    Rng rng(1);
    InferenceTask task(make_tiny_inference(small_tiny(), rng));
    Tensor images({7, 3, 24, 24});
    images.fill_uniform(rng, 0.0f, 1.0f);
    const auto preds = task.predict(images, 3);
    EXPECT_EQ(preds.size(), 7u);
    for (int64_t p : preds) {
        EXPECT_GE(p, 0);
        EXPECT_LT(p, 10);
    }
}

TEST(DiagnosisTask, FlagsAreDeterministicPerSeed)
{
    Rng rng(2);
    const TinyConfig config = small_tiny();
    PermutationSet perms(config.num_permutations, rng);
    Tensor images({6, 3, 24, 24});
    images.fill_uniform(rng, 0.0f, 1.0f);
    auto make_task = [&]() {
        Rng r(3);
        return DiagnosisTask(make_tiny_jigsaw(config, r), perms,
                             DiagnosisConfig{}, 99);
    };
    DiagnosisTask a = make_task();
    DiagnosisTask b = make_task();
    EXPECT_EQ(a.diagnose(images), b.diagnose(images));
}

TEST(DiagnosisTask, UntrainedNetworkFlagsAlmostEverything)
{
    // An untrained jigsaw head is at chance on the pretext, so nearly
    // all images look "unrecognized" — matching the paper's initial
    // stage where everything uploads.
    Rng rng(4);
    const TinyConfig config = small_tiny();
    PermutationSet perms(config.num_permutations, rng);
    DiagnosisTask task(make_tiny_jigsaw(config, rng), perms,
                       DiagnosisConfig{}, 5);
    SynthConfig synth;
    const Dataset d = make_dataset(synth, 40, Condition::ideal(), rng);
    EXPECT_GT(task.flag_rate(d.images), 0.7);
}

TEST(DiagnosisTask, FlaggedIndicesMatchFlags)
{
    const std::vector<bool> flags = {true, false, true, true, false};
    const auto idx = DiagnosisTask::flagged_indices(flags);
    EXPECT_EQ(idx, (std::vector<int64_t>{0, 2, 3}));
}

TEST(DiagnosisTask, ThresholdValidation)
{
    Rng rng(6);
    const TinyConfig config = small_tiny();
    PermutationSet perms(config.num_permutations, rng);
    DiagnosisConfig bad;
    bad.probes = 2;
    bad.fail_threshold = 3;
    EXPECT_DEATH(DiagnosisTask(make_tiny_jigsaw(config, rng), perms,
                               bad, 7),
                 "threshold");
}

TEST(Node, WeightSharingEstablished)
{
    Rng rng(8);
    const TinyConfig config = small_tiny();
    PermutationSet perms(config.num_permutations, rng);
    InsituNode node(config, perms, 3, DiagnosisConfig{}, 9);
    EXPECT_EQ(node.shared_convs(), 3u);
    EXPECT_GE(node.diagnosis().network().trunk().shared_conv_prefix(
                  node.inference().network()),
              3u);
}

TEST(Node, DeploymentCopiesCloudWeights)
{
    const TinyConfig config = small_tiny();
    ModelUpdateService cloud(config, titan_x_spec(), 10);
    InsituNode node(config, cloud.permutations(), 3,
                    DiagnosisConfig{}, 11);
    // Make the cloud weights distinctive.
    for (auto& p : cloud.inference().params()) p->value().fill(0.5f);
    for (auto& p : cloud.jigsaw().params()) p->value().fill(0.25f);
    node.deploy_diagnosis(cloud.jigsaw());
    node.deploy_inference(cloud.inference());
    // Non-shared inference weights must be 0.5.
    const auto ii = node.inference().network().conv_layer_indices();
    EXPECT_EQ(node.inference()
                  .network()
                  .layer(ii[4])
                  .params()[0]
                  ->value()
                  .at(0),
              0.5f);
    // The shared prefix took the inference values (deployed last).
    EXPECT_EQ(node.diagnosis()
                  .network()
                  .trunk()
                  .layer(0)
                  .params()[0]
                  ->value()
                  .at(0),
              0.5f);
    // The head is diagnosis-only: 0.25.
    EXPECT_EQ(node.diagnosis()
                  .network()
                  .head()
                  .layer(0)
                  .params()[0]
                  ->value()
                  .at(0),
              0.25f);
}

TEST(Node, ProcessStageReportsCoherently)
{
    Rng rng(12);
    const TinyConfig config = small_tiny();
    PermutationSet perms(config.num_permutations, rng);
    InsituNode node(config, perms, 3, DiagnosisConfig{}, 13);
    SynthConfig synth;
    const Dataset d =
        make_dataset(synth, 30, Condition::ideal(), rng);
    const NodeStageReport report = node.process_stage(d);
    EXPECT_EQ(report.acquired, 30);
    EXPECT_EQ(report.predictions.size(), 30u);
    EXPECT_EQ(report.flags.size(), 30u);
    int64_t flagged = 0;
    for (bool f : report.flags)
        if (f) ++flagged;
    EXPECT_EQ(report.flagged, flagged);
    ASSERT_TRUE(report.accuracy.has_value());
    EXPECT_GE(*report.accuracy, 0.0);
    EXPECT_LE(*report.accuracy, 1.0);
}

IotSystemConfig
small_system_config()
{
    IotSystemConfig c;
    c.tiny = small_tiny();
    c.link = iot_uplink_spec();
    c.cloud_gpu = titan_x_spec();
    c.update.epochs = 1;
    c.pretrain_epochs = 1;
    c.image_scale = 1000.0;
    c.seed = 21;
    return c;
}

std::vector<StreamStage>
small_schedule()
{
    return {
        {60, Condition::in_situ(0.2)},
        {40, Condition::in_situ(0.3)},
        {40, Condition::in_situ(0.4)},
    };
}

TEST(SystemSim, CloudAllUploadsEverything)
{
    auto config = small_system_config();
    IotSystemSim sim(IotSystemKind::kCloudAll, config);
    IotStream stream(SynthConfig{}, small_schedule(), 31);
    const auto stages = sim.run(stream);
    ASSERT_EQ(stages.size(), 3u);
    for (const auto& s : stages) EXPECT_EQ(s.uploaded, s.acquired);
}

TEST(SystemSim, NodeDiagnosisUploadsOnlyFlagged)
{
    auto config = small_system_config();
    IotSystemSim sim(IotSystemKind::kInsituAi, config);
    IotStream stream(SynthConfig{}, small_schedule(), 31);
    const auto stages = sim.run(stream);
    ASSERT_EQ(stages.size(), 3u);
    // Stage 0 bootstraps with a full upload.
    EXPECT_EQ(stages[0].uploaded, stages[0].acquired);
    for (size_t i = 1; i < stages.size(); ++i) {
        EXPECT_LE(stages[i].uploaded, stages[i].acquired);
        EXPECT_NEAR(static_cast<double>(stages[i].uploaded) /
                        static_cast<double>(stages[i].acquired),
                    stages[i].flag_rate, 1e-9);
    }
}

TEST(SystemSim, UploadBytesUsePaperScale)
{
    auto config = small_system_config();
    IotSystemSim sim(IotSystemKind::kCloudAll, config);
    IotStream stream(SynthConfig{}, {{10, Condition::ideal()}}, 31);
    const auto stages = sim.run(stream);
    EXPECT_DOUBLE_EQ(stages[0].upload_bytes,
                     10.0 * 1000.0 * bytes_per_image());
}

TEST(SystemSim, CloudDiagnosisPaysCloudComputeForFiltering)
{
    auto config = small_system_config();
    IotSystemSim b(IotSystemKind::kCloudDiagnosis, config);
    IotSystemSim c(IotSystemKind::kNodeDiagnosis, config);
    IotStream sb(SynthConfig{}, small_schedule(), 31);
    IotStream sc(SynthConfig{}, small_schedule(), 31);
    const auto rb = b.run(sb);
    const auto rc = c.run(sc);
    // (b) uploads everything, (c) only the flagged subset.
    EXPECT_GE(rb[1].upload_bytes, rc[1].upload_bytes);
    // Both train on the same flagged subset, but (b) additionally
    // pays for running the diagnosis network in the cloud.
    EXPECT_GT(rb[1].cloud_energy_j, rc[1].cloud_energy_j);
}

TEST(SystemSim, AccuracyImprovesOverBootstrapChance)
{
    auto config = small_system_config();
    config.update.epochs = 4;
    config.update.lr = 0.02;
    config.pretrain_epochs = 2;
    IotSystemSim sim(IotSystemKind::kInsituAi, config);
    IotStream stream(SynthConfig{},
                     {{150, Condition::in_situ(0.2)},
                      {40, Condition::in_situ(0.3)}},
                     31);
    const auto stages = sim.run(stream);
    EXPECT_GT(stages[0].accuracy_after, 0.2); // well above 10% chance
}

TEST(SystemSim, NamesAreStable)
{
    EXPECT_STREQ(iot_system_name(IotSystemKind::kCloudAll),
                 "a:cloud-all");
    EXPECT_STREQ(iot_system_name(IotSystemKind::kInsituAi),
                 "d:in-situ-ai");
}

} // namespace
} // namespace insitu
