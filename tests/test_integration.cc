/**
 * @file
 * Cross-system integration tests: the four Fig. 24 systems at small
 * scale compared against each other, and their per-stage accounting.
 */
#include <gtest/gtest.h>

#include "iot/system.h"

namespace insitu {
namespace {

IotSystemConfig
tiny_system()
{
    IotSystemConfig c;
    c.tiny.num_permutations = 8;
    c.update_epochs = 2;
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
                        kImageScale * bytes_per_image(),
                    1.0);
        EXPECT_GE(s.update_seconds, s.train_seconds);
        EXPECT_GT(s.deploy_bytes, 0.0);
        EXPECT_EQ(s.labeled_images, s.uploaded);
    }
}

} // namespace
} // namespace insitu
