/**
 * @file
 * Unit tests for the edge node: tasks, weight sharing on the node,
 * deployment, stage processing, the four-system simulator's
 * structural invariants (who uploads what), and system (d) as the
 * whole single-node loop: weight sharing, quantized deployment and
 * registry rollback through it.
 */
#include <gtest/gtest.h>

#include "cloud/registry.h"
#include "iot/system.h"
#include "nn/quantize.h"
#include "obs/metrics.h"

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
    // Four jigsaw classes: a pretext this small learns enough that the
    // node lets some images stay local after the bootstrap.
    c.tiny.num_permutations = 4;
    c.update_epochs = 1;
    c.pretrain_epochs = 1;
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

/** Field-for-field equality of two stages' metrics. */
void
expect_same_stage(const StageMetrics& g, const StageMetrics& w)
{
    EXPECT_EQ(g.stage, w.stage);
    EXPECT_EQ(g.acquired, w.acquired);
    EXPECT_EQ(g.uploaded, w.uploaded);
    EXPECT_EQ(g.upload_bytes, w.upload_bytes);
    EXPECT_EQ(g.upload_energy_j, w.upload_energy_j);
    EXPECT_EQ(g.upload_seconds, w.upload_seconds);
    EXPECT_EQ(g.cloud_energy_j, w.cloud_energy_j);
    EXPECT_EQ(g.train_seconds, w.train_seconds);
    EXPECT_EQ(g.update_seconds, w.update_seconds);
    EXPECT_EQ(g.flag_rate, w.flag_rate);
    EXPECT_EQ(g.labeled_images, w.labeled_images);
    EXPECT_EQ(g.deploy_bytes, w.deploy_bytes);
    EXPECT_EQ(g.accuracy_before, w.accuracy_before);
    EXPECT_EQ(g.accuracy_after, w.accuracy_after);
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
        // Filtering, not uploading everything or nothing.
        EXPECT_GT(stages[i].uploaded, 0);
        EXPECT_LT(stages[i].uploaded, stages[i].acquired);
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
    // What (b) pays per image it diagnoses in the cloud: the GEMM
    // flops a live diagnosis pass counts, at the cloud GPU's sustained
    // rate and power.
    Rng rng(5);
    const int64_t n = 4, side = config.tiny.image_size;
    Tensor images({n, 3, side, side});
    images.fill_uniform(rng, 0.0f, 1.0f);
    DiagnosisTask task(make_tiny_jigsaw(config.tiny, rng),
                       PermutationSet(config.tiny.num_permutations, rng),
                       DiagnosisConfig{}, 6);
    auto& reg = obs::MetricsRegistry::global();
    auto flops = [&] {
        return reg.counter("tensor.matmul.flops").value() +
               reg.counter("tensor.matmul_ta.flops").value() +
               reg.counter("tensor.matmul_tb.flops").value();
    };
    const int64_t f0 = flops();
    (void)task.diagnose(images);
    const GpuSpec gpu = titan_x_spec();
    const double joules_per_image =
        static_cast<double>(flops() - f0) / n /
        (gpu.peak_ops() * TrainingCostModel::kTrainingEfficiency) *
        gpu.power_watts;

    // (b) and (c) train on the same flagged subset. (b) uploads every
    // image, (c) only that subset, and after the bootstrap (b) also
    // pays for running the diagnosis network over every image in the
    // cloud.
    auto expect_b_pays_more = [&](const StageMetrics& b,
                                  const StageMetrics& c) {
        EXPECT_EQ(b.uploaded, b.acquired);
        EXPECT_EQ(b.upload_bytes, static_cast<double>(b.acquired) *
                                      kImageScale * bytes_per_image());
        EXPECT_EQ(c.uploaded, c.labeled_images);
        EXPECT_EQ(b.train_seconds, c.train_seconds);
        const double diagnosis =
            b.stage == 0 ? 0.0
                         : joules_per_image *
                               static_cast<double>(b.acquired) *
                               kImageScale;
        EXPECT_NEAR(b.cloud_energy_j, c.cloud_energy_j + diagnosis,
                    1e-12 * b.cloud_energy_j);
        EXPECT_EQ(b.update_seconds, b.upload_seconds + b.train_seconds);
    };

    IotSystemSim b(IotSystemKind::kCloudDiagnosis, config);
    IotSystemSim c(IotSystemKind::kNodeDiagnosis, config);
    IotStream sb(SynthConfig{}, small_schedule(), 31);
    IotStream sc(SynthConfig{}, small_schedule(), 31);
    const auto rb = b.run(sb);
    const auto rc = c.run(sc);
    ASSERT_EQ(rb.size(), 3u);
    ASSERT_EQ(rc.size(), 3u);
    for (size_t i = 0; i < rb.size(); ++i) {
        SCOPED_TRACE(i);
        // (b) trains what (c) trains, so (c)'s record priced as (b) is
        // a whole (b) run, bootstrap stage included.
        expect_same_stage(
            price_stage(IotSystemKind::kCloudDiagnosis, config, rc[i]),
            rb[i]);
        expect_b_pays_more(rb[i], rc[i]);
    }
    EXPECT_GT(rb[1].cloud_energy_j, rc[1].cloud_energy_j);
    EXPECT_LT(rc[1].uploaded, rb[1].uploaded); // (c) filters on the node

    // And a hand-made record in which the node flagged a quarter.
    StageMetrics record;
    record.stage = 1;
    record.acquired = 40;
    record.labeled_images = 10;
    const StageMetrics pb =
        price_stage(IotSystemKind::kCloudDiagnosis, config, record);
    const StageMetrics pc =
        price_stage(IotSystemKind::kNodeDiagnosis, config, record);
    expect_b_pays_more(pb, pc);
    EXPECT_EQ(pc.uploaded, 10);
}

TEST(SystemSim, AccuracyImprovesOverBootstrapChance)
{
    auto config = small_system_config();
    config.update_epochs = 4;
    config.update_lr = 0.02;
    config.pretrain_epochs = 2;
    IotSystemSim sim(IotSystemKind::kInsituAi, config);
    IotStream stream(SynthConfig{},
                     {{150, Condition::in_situ(0.2)},
                      {40, Condition::in_situ(0.3)}},
                     31);
    const auto stages = sim.run(stream);
    EXPECT_GT(stages[0].accuracy_after, 0.2); // well above 10% chance
}

TEST(SystemSim, StepByStepMatchesRun)
{
    // run() is step() over the stream's stages: on the same seed the
    // two give the same StageMetrics, field for field, in every system.
    for (IotSystemKind kind :
         {IotSystemKind::kCloudAll, IotSystemKind::kCloudDiagnosis,
          IotSystemKind::kNodeDiagnosis, IotSystemKind::kInsituAi}) {
        SCOPED_TRACE(iot_system_name(kind));
        IotSystemSim by_run(kind, small_system_config());
        IotStream sr(SynthConfig{}, small_schedule(), 31);
        const auto want = by_run.run(sr);
        ASSERT_EQ(want.size(), 3u);

        IotSystemSim by_step(kind, small_system_config());
        IotStream ss(SynthConfig{}, small_schedule(), 31);
        for (const StageMetrics& w : want) {
            ASSERT_FALSE(ss.exhausted());
            expect_same_stage(by_step.step(ss.next_stage()), w);
        }
        EXPECT_TRUE(ss.exhausted());
    }
}

/** Configuration of the single-node loop tests below (system d). */
IotSystemConfig
loop_config(int epochs, int pretrain_epochs, uint64_t seed)
{
    IotSystemConfig c;
    c.tiny = small_tiny();
    c.update_epochs = epochs;
    c.pretrain_epochs = pretrain_epochs;
    c.seed = seed;
    return c;
}

TEST(SystemSim, BootstrapTrainsAndDeploys)
{
    IotSystemConfig config = loop_config(4, 2, 5);
    config.update_lr = 0.02;
    IotSystemSim sim(IotSystemKind::kInsituAi, config);
    Rng rng(6);
    const Dataset initial =
        make_dataset(SynthConfig{}, 200, Condition::in_situ(0.2), rng);
    const StageMetrics m = sim.step(initial);
    EXPECT_EQ(m.stage, 0);
    EXPECT_GT(m.accuracy_after, 0.25); // far above 10% chance
    // Cloud inference and jigsaw trunk share the conv prefix.
    EXPECT_GE(sim.cloud().inference().shared_conv_prefix(
                  sim.cloud().jigsaw().trunk()),
              3u);
}

TEST(SystemSim, AutonomousStepUploadsSubsetAndUpdates)
{
    IotSystemConfig config = loop_config(4, 2, 5);
    config.update_lr = 0.02;
    IotSystemSim sim(IotSystemKind::kInsituAi, config);
    Rng rng(8);
    SynthConfig synth;
    sim.step(make_dataset(synth, 150, Condition::in_situ(0.2), rng));
    const StageMetrics m = sim.step(
        make_dataset(synth, 60, Condition::in_situ(0.35), rng));
    EXPECT_EQ(m.stage, 1);
    EXPECT_EQ(m.acquired, 60);
    EXPECT_LE(m.uploaded, 60);
    EXPECT_NEAR(static_cast<double>(m.uploaded), m.flag_rate * 60.0,
                1e-9);
    EXPECT_EQ(m.labeled_images, m.uploaded);
    EXPECT_GE(m.accuracy_after, 0.0);
}

TEST(Integration, WeightSharingHoldsThroughTheWholeLoop)
{
    // After bootstrap + incremental steps, the node's diagnosis trunk
    // must still alias the inference conv prefix, and cloud-side
    // sharing must survive updates.
    IotSystemSim sim(IotSystemKind::kInsituAi, loop_config(1, 1, 23));
    Rng rng(29);
    SynthConfig synth;
    sim.step(make_dataset(synth, 100, Condition::ideal(), rng));
    for (int i = 0; i < 2; ++i)
        sim.step(make_dataset(synth, 50, Condition::in_situ(0.3), rng));
    EXPECT_GE(sim.node().diagnosis().network().trunk().shared_conv_prefix(
                  sim.node().inference().network()),
              3u);
    EXPECT_GE(sim.cloud().inference().shared_conv_prefix(
                  sim.cloud().jigsaw().trunk()),
              3u);
    // And the shared storage really is shared: writing through the
    // cloud trunk is visible through the cloud inference net.
    auto ti = sim.cloud().jigsaw().trunk().conv_layer_indices();
    auto ii = sim.cloud().inference().conv_layer_indices();
    auto p = sim.cloud().jigsaw().trunk().layer(ti[0]).params()[0];
    p->value().at(0) = 0.12345f;
    EXPECT_EQ(sim.cloud()
                  .inference()
                  .layer(ii[0])
                  .params()[0]
                  ->value()
                  .at(0),
              0.12345f);
}

TEST(Integration, QuantizedDeploymentPreservesNodePredictions)
{
    // Ship the cloud model to a node through int8 quantization and
    // verify predictions barely move.
    IotSystemSim sim(IotSystemKind::kInsituAi, loop_config(2, 1, 31));
    Rng rng(37);
    const Dataset data =
        make_dataset(SynthConfig{}, 200, Condition::in_situ(0.2), rng);
    sim.step(data);

    const double acc_float = sim.node().inference().accuracy(data);
    const QuantizedModel q = quantize_weights(sim.cloud().inference());
    ASSERT_TRUE(dequantize_into(sim.node().inference().network(), q));
    const double acc_int8 = sim.node().inference().accuracy(data);
    EXPECT_GT(acc_int8, acc_float - 0.05);
}

TEST(Integration, RegistryGuardsTheIncrementalLoop)
{
    // Version every update; a deliberately poisoned update must be
    // rolled back to the best version.
    const IotSystemConfig config = loop_config(2, 1, 41);
    IotSystemSim sim(IotSystemKind::kInsituAi, config);
    Rng rng(43);
    const Dataset holdout =
        make_dataset(SynthConfig{}, 150, Condition::in_situ(0.2), rng);
    sim.step(holdout);

    ModelRegistry registry;
    const double good_acc = sim.node().inference().accuracy(holdout);
    registry.commit(sim.cloud().inference(), "good", good_acc, 150);

    // Poison the cloud model.
    for (auto& p : sim.cloud().inference().params())
        p->value().fill(0.0f);
    const double bad_acc = [&] {
        InferenceTask probe(
            [&] {
                Rng r(1);
                TinyConfig t = config.tiny;
                Network n = make_tiny_inference(t, r);
                copy_parameters(n, sim.cloud().inference());
                return n;
            }());
        return probe.accuracy(holdout);
    }();
    registry.commit(sim.cloud().inference(), "poisoned", bad_acc, 200);

    const auto rolled =
        registry.rollback_if_regressed(sim.cloud().inference(), 0.02);
    ASSERT_TRUE(rolled.has_value());
    // Redeploy and confirm the node is healthy again.
    sim.node().deploy_inference(sim.cloud().inference());
    EXPECT_NEAR(sim.node().inference().accuracy(holdout), good_acc,
                1e-9);
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
