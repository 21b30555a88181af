/**
 * @file
 * Cross-module integration tests: the full In-situ AI loop at small
 * scale, system-comparison invariants, and deployment round trips
 * through quantization and the registry.
 */
#include <gtest/gtest.h>

#include "cloud/registry.h"
#include "core/framework.h"
#include "nn/quantize.h"

namespace insitu {
namespace {

IotSystemConfig
tiny_system()
{
    IotSystemConfig c;
    c.tiny.num_permutations = 8;
    c.link = iot_uplink_spec();
    c.cloud_gpu = titan_x_spec();
    c.update.epochs = 2;
    c.pretrain_epochs = 2;
    c.incremental_pretrain_epochs = 1;
    c.seed = 13;
    return c;
}

std::vector<StreamStage>
tiny_schedule()
{
    return {
        {120, Condition::in_situ(0.2)},
        {60, Condition::in_situ(0.3)},
        {60, Condition::in_situ(0.35)},
    };
}

TEST(Integration, InsituUploadsNoMoreThanCloudAll)
{
    auto config = tiny_system();
    IotSystemSim a(IotSystemKind::kCloudAll, config);
    IotStream sa(SynthConfig{}, tiny_schedule(), 17);
    const auto ra = a.run(sa);
    IotSystemSim d(IotSystemKind::kInsituAi, config);
    IotStream sd(SynthConfig{}, tiny_schedule(), 17);
    const auto rd = d.run(sd);
    ASSERT_EQ(ra.size(), rd.size());
    double bytes_a = 0, bytes_d = 0;
    for (size_t i = 0; i < ra.size(); ++i) {
        EXPECT_LE(rd[i].uploaded, ra[i].uploaded) << "stage " << i;
        bytes_a += ra[i].upload_bytes;
        bytes_d += rd[i].upload_bytes;
    }
    EXPECT_LT(bytes_d, bytes_a);
}

TEST(Integration, InsituCloudEnergyNoMoreThanCloudAll)
{
    auto config = tiny_system();
    IotSystemSim a(IotSystemKind::kCloudAll, config);
    IotStream sa(SynthConfig{}, tiny_schedule(), 19);
    const auto ra = a.run(sa);
    IotSystemSim d(IotSystemKind::kInsituAi, config);
    IotStream sd(SynthConfig{}, tiny_schedule(), 19);
    const auto rd = d.run(sd);
    double e_a = 0, e_d = 0;
    for (size_t i = 0; i < ra.size(); ++i) {
        e_a += ra[i].cloud_energy_j;
        e_d += rd[i].cloud_energy_j;
    }
    EXPECT_LT(e_d, e_a);
}

TEST(Integration, WeightSharingHoldsThroughTheWholeLoop)
{
    // After bootstrap + incremental steps, the node's diagnosis trunk
    // must still alias the inference conv prefix, and cloud-side
    // sharing must survive updates.
    FrameworkConfig config;
    config.tiny.num_permutations = 8;
    config.update.epochs = 1;
    config.pretrain_epochs = 1;
    config.seed = 23;
    Framework fw(config);
    Rng rng(29);
    SynthConfig synth;
    fw.bootstrap(make_dataset(synth, 100, Condition::ideal(), rng));
    for (int i = 0; i < 2; ++i) {
        fw.autonomous_step(
            make_dataset(synth, 50, Condition::in_situ(0.3), rng));
    }
    EXPECT_GE(fw.node().diagnosis().network().trunk().shared_conv_prefix(
                  fw.node().inference().network()),
              3u);
    EXPECT_GE(fw.cloud().inference().shared_conv_prefix(
                  fw.cloud().jigsaw().trunk()),
              3u);
    // And the shared storage really is shared: writing through the
    // cloud trunk is visible through the cloud inference net.
    auto ti = fw.cloud().jigsaw().trunk().conv_layer_indices();
    auto ii = fw.cloud().inference().conv_layer_indices();
    auto p = fw.cloud().jigsaw().trunk().layer(ti[0]).params()[0];
    p->value().at(0) = 0.12345f;
    EXPECT_EQ(fw.cloud()
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
    FrameworkConfig config;
    config.tiny.num_permutations = 8;
    config.update.epochs = 2;
    config.pretrain_epochs = 1;
    config.seed = 31;
    Framework fw(config);
    Rng rng(37);
    SynthConfig synth;
    const Dataset data =
        make_dataset(synth, 200, Condition::in_situ(0.2), rng);
    fw.bootstrap(data);

    const double acc_float = fw.node().inference().accuracy(data);
    const QuantizedModel q = quantize_weights(fw.cloud().inference());
    ASSERT_TRUE(dequantize_into(fw.node().inference().network(), q));
    const double acc_int8 = fw.node().inference().accuracy(data);
    EXPECT_GT(acc_int8, acc_float - 0.05);
}

TEST(Integration, RegistryGuardsTheIncrementalLoop)
{
    // Version every update; a deliberately poisoned update must be
    // rolled back to the best version.
    FrameworkConfig config;
    config.tiny.num_permutations = 8;
    config.update.epochs = 2;
    config.pretrain_epochs = 1;
    config.seed = 41;
    Framework fw(config);
    Rng rng(43);
    SynthConfig synth;
    const Dataset holdout =
        make_dataset(synth, 150, Condition::in_situ(0.2), rng);
    fw.bootstrap(holdout);

    ModelRegistry registry;
    const double good_acc = fw.node().inference().accuracy(holdout);
    registry.commit(fw.cloud().inference(), "good", good_acc, 150);

    // Poison the cloud model.
    for (auto& p : fw.cloud().inference().params())
        p->value().fill(0.0f);
    const double bad_acc = [&] {
        InferenceTask probe(
            [&] {
                Rng r(1);
                TinyConfig t = config.tiny;
                Network n = make_tiny_inference(t, r);
                copy_parameters(n, fw.cloud().inference());
                return n;
            }());
        return probe.accuracy(holdout);
    }();
    registry.commit(fw.cloud().inference(), "poisoned", bad_acc, 200);

    const auto rolled =
        registry.rollback_if_regressed(fw.cloud().inference(), 0.02);
    ASSERT_TRUE(rolled.has_value());
    // Redeploy and confirm the node is healthy again.
    fw.node().deploy_inference(fw.cloud().inference());
    EXPECT_NEAR(fw.node().inference().accuracy(holdout), good_acc,
                1e-9);
}

TEST(Integration, StageMetricsAreInternallyConsistent)
{
    auto config = tiny_system();
    IotSystemSim sim(IotSystemKind::kInsituAi, config);
    IotStream stream(SynthConfig{}, tiny_schedule(), 47);
    const auto stages = sim.run(stream);
    for (const auto& s : stages) {
        EXPECT_LE(s.uploaded, s.acquired);
        EXPECT_GE(s.upload_bytes, 0.0);
        EXPECT_NEAR(s.upload_bytes,
                    static_cast<double>(s.uploaded) *
                        config.image_scale * bytes_per_image(),
                    1.0);
        EXPECT_GE(s.update_seconds, s.train_seconds);
        EXPECT_GT(s.deploy_bytes, 0.0);
        EXPECT_EQ(s.labeled_images, s.uploaded);
    }
}

} // namespace
} // namespace insitu
