/**
 * @file
 * Tests for the extension features: the conv layer against the direct
 * loop-nest reference, the uplink queue, the periodic environment
 * schedule, and labeling-cost accounting.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "data/schedule.h"
#include "iot/system.h"
#include "iot/uplink.h"
#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace insitu {
namespace {

/** Conv2d::forward matches conv2d_direct within 1e-4, element by
 * element, on one layer and input. */
void
expect_matches_reference(Conv2d& conv, const Tensor& x)
{
    ConvGeometry g;
    g.in_channels = conv.in_channels();
    g.in_h = x.dim(2);
    g.in_w = x.dim(3);
    g.kernel = conv.kernel();
    g.stride = conv.stride();
    g.pad = conv.pad();
    const Tensor a = conv.forward(x, false);
    const Tensor b = conv2d_direct(x, conv.weight()->value(),
                                   conv.bias()->value(), g);
    ASSERT_EQ(a.shape(), b.shape());
    for (int64_t i = 0; i < a.numel(); ++i)
        ASSERT_NEAR(a.at(i), b.at(i), 1e-4f) << "at float " << i;
}

TEST(ConvReference, LayerMatchesDirectLoopNest)
{
    // Every layer gets random biases: a new layer's are zero, which
    // would hide a wrong bias add.
    Rng rng(1);
    for (int64_t stride : {1, 2}) {
        for (int64_t pad : {0, 1, 2}) {
            SCOPED_TRACE(testing::Message()
                         << "stride " << stride << " pad " << pad);
            Conv2d conv("c", 3, 5, 3, stride, pad, rng);
            conv.bias()->value().fill_uniform(rng, -1.0f, 1.0f);
            Tensor x({2, 3, 9, 9});
            x.fill_uniform(rng, -1.0f, 1.0f);
            expect_matches_reference(conv, x);
        }
    }
    // Channels, kernels and maps of the old lowering ablation, each
    // with a batch of G + 1 images so the grouped forward crosses a
    // group boundary (G = ceil(kGroupCols / (OH * OW))).
    struct Shape {
        int64_t n, m, k, size;
    };
    for (const Shape& s : {Shape{16, 16, 1, 24}, Shape{16, 32, 3, 12},
                           Shape{32, 32, 3, 24}, Shape{8, 16, 5, 24},
                           Shape{4, 8, 7, 24}}) {
        SCOPED_TRACE(testing::Message()
                     << "K " << s.k << " map " << s.size);
        Conv2d conv("c", s.n, s.m, s.k, 1, s.k / 2, rng);
        conv.bias()->value().fill_uniform(rng, -1.0f, 1.0f);
        const int64_t ohw = s.size * s.size;
        const int64_t group = (kGroupCols + ohw - 1) / ohw;
        Tensor x({group + 1, s.n, s.size, s.size});
        x.fill_uniform(rng, -1.0f, 1.0f);
        expect_matches_reference(conv, x);
    }
}

TEST(UplinkQueue, DrainsFifoWithBandwidthLimit)
{
    LinkSpec link = lan_uplink_spec();
    link.bandwidth_bps = 8000.0; // 1000 bytes/s
    UplinkQueue queue(link, 500.0); // 0.5 s per payload
    queue.enqueue(5, 0.0);
    EXPECT_EQ(queue.backlog(), 5);
    // A 1.2 s window fits two payloads.
    EXPECT_EQ(queue.drain_window(0.0, 1.2), 2);
    EXPECT_EQ(queue.backlog(), 3);
    // A long window clears the rest.
    EXPECT_EQ(queue.drain_window(1.2, 10.0), 3);
    EXPECT_EQ(queue.backlog(), 0);
    EXPECT_EQ(queue.stats().delivered, 5);
    EXPECT_DOUBLE_EQ(queue.stats().bytes_sent, 2500.0);
}

TEST(UplinkQueue, DelayAccountsQueueingTime)
{
    LinkSpec link = lan_uplink_spec();
    link.bandwidth_bps = 8000.0;
    UplinkQueue queue(link, 1000.0); // 1 s per payload
    queue.enqueue(2, 0.0);
    queue.drain_window(10.0, 12.0); // transmitted at t=11 and t=12
    EXPECT_EQ(queue.stats().delivered, 2);
    EXPECT_DOUBLE_EQ(queue.stats().mean_delay_s(), 11.5);
}

TEST(UplinkQueue, EnergyMatchesLinkModel)
{
    const LinkSpec link = iot_uplink_spec();
    UplinkQueue queue(link, 1e6);
    queue.enqueue(3, 0.0);
    queue.drain_window(0.0, 1e9);
    EXPECT_DOUBLE_EQ(queue.stats().energy_j,
                     3.0 * link.transfer_energy(1e6));
}

TEST(UplinkQueue, BacklogPeakTracked)
{
    UplinkQueue queue(iot_uplink_spec(), 100.0);
    queue.enqueue(10, 0.0);
    queue.drain_window(0.0, 1e9);
    queue.enqueue(4, 1.0);
    EXPECT_DOUBLE_EQ(queue.stats().max_backlog, 1000.0);
}

TEST(EnvironmentSchedule, NightIsHarsherThanNoon)
{
    EnvironmentSchedule schedule;
    const double night = schedule.severity_at_hours(2.0);
    const double noon = schedule.severity_at_hours(14.0);
    EXPECT_GT(night, noon + 0.2);
    const Condition at_night = schedule.at_hours(2.0);
    const Condition at_noon = schedule.at_hours(14.0);
    EXPECT_LT(at_night.brightness, at_noon.brightness);
}

TEST(EnvironmentSchedule, PeriodicOverDays)
{
    EnvironmentSchedule schedule;
    schedule.drift_per_day = 0.0;
    EXPECT_NEAR(schedule.severity_at_hours(5.0),
                schedule.severity_at_hours(5.0 + 24.0), 1e-9);
}

TEST(EnvironmentSchedule, SeasonalDriftAccumulates)
{
    EnvironmentSchedule schedule;
    schedule.drift_per_day = 0.01;
    EXPECT_NEAR(schedule.severity_at_hours(14.0 + 30 * 24.0) -
                    schedule.severity_at_hours(14.0),
                0.3, 1e-6);
}

TEST(EnvironmentSchedule, SeverityClamped)
{
    EnvironmentSchedule schedule;
    schedule.base_severity = 0.9;
    schedule.night_amplitude = 0.9;
    EXPECT_LE(schedule.severity_at_hours(2.0), 1.0);
}

TEST(LabelingCost, DiagnosisCutsLabeledImages)
{
    IotSystemConfig config;
    config.tiny.num_permutations = 8;
    config.update_epochs = 1;
    config.pretrain_epochs = 2;
    config.incremental_pretrain_epochs = 2;
    config.seed = 77;
    const std::vector<StreamStage> schedule = {
        {120, Condition::in_situ(0.2)},
        {80, Condition::in_situ(0.25)},
        {80, Condition::in_situ(0.3)},
    };

    IotSystemSim all(IotSystemKind::kCloudAll, config);
    IotStream sa(SynthConfig{}, schedule, 5);
    const auto ra = all.run(sa);

    IotSystemSim insitu_sys(IotSystemKind::kInsituAi, config);
    IotStream sd(SynthConfig{}, schedule, 5);
    const auto rd = insitu_sys.run(sd);

    int64_t labeled_a = 0, labeled_d = 0;
    for (const auto& s : ra) labeled_a += s.labeled_images;
    for (const auto& s : rd) labeled_d += s.labeled_images;
    EXPECT_LT(labeled_d, labeled_a);
    // Stage 0 labels everything in both systems.
    EXPECT_EQ(ra[0].labeled_images, rd[0].labeled_images);
}

} // namespace
} // namespace insitu
