/**
 * @file
 * Unit tests for the planners and Fig. 21's brute-force profile: mode
 * selection, Single-running batch picking (time + resource models),
 * Co-running configuration search, and the Fig. 21 relationships.
 */
#include <gtest/gtest.h>

#include "analytics/planner.h"

namespace insitu {
namespace {

TEST(Mode, SelectionFollowsAvailabilityRequirement)
{
    EXPECT_EQ(choose_working_mode(true), WorkingMode::kCoRunning);
    EXPECT_EQ(choose_working_mode(false),
              WorkingMode::kSingleRunning);
    EXPECT_STREQ(working_mode_name(WorkingMode::kCoRunning),
                 "Co-running");
}

TEST(SingleRunning, BatchGrowsWithLatencyBudget)
{
    SingleRunningPlanner planner{GpuModel(tx1_spec())};
    const NetworkDesc net = alexnet_desc();
    const int64_t strict = planner.max_batch_under_latency(net, 0.033);
    const int64_t loose = planner.max_batch_under_latency(net, 0.5);
    EXPECT_GE(strict, 1);
    EXPECT_GT(loose, strict);
}

TEST(SingleRunning, PickedBatchMeetsLatency)
{
    GpuModel gpu(tx1_spec());
    SingleRunningPlanner planner{gpu};
    const NetworkDesc net = alexnet_desc();
    for (double req : {0.033, 0.1, 0.4}) {
        const int64_t b = planner.max_batch_under_latency(net, req);
        if (b > 1) {
            EXPECT_LE(gpu.network_latency(net, b), req);
            EXPECT_GT(gpu.network_latency(net, b + 1), req);
        }
    }
}

TEST(SingleRunning, PlanPopulatesBothTasks)
{
    SingleRunningPlanner planner{GpuModel(tx1_spec())};
    const auto plan = planner.plan(
        alexnet_desc(), diagnosis_desc(alexnet_desc()), 0.1);
    EXPECT_GE(plan.inference_batch, 1);
    EXPECT_GT(plan.inference_perf_per_watt, 0.0);
    // Diagnosis batch is memory-limited, not latency-limited, so it
    // should be at least as large as the inference batch.
    EXPECT_GE(plan.diagnosis_batch, plan.inference_batch);
    EXPECT_LE(plan.diagnosis_memory_bytes,
              planner.gpu().spec().mem_capacity);
}

TEST(SingleRunning, InferenceLabelSaysWhatStoppedTheBatch)
{
    GpuModel gpu(tx1_spec());
    SingleRunningPlanner planner{gpu};
    const NetworkDesc net = alexnet_desc();
    const NetworkDesc diag = diagnosis_desc(net);
    // A tight budget stops the batch below the search cap.
    const auto tight = planner.plan(net, diag, 0.1);
    EXPECT_LT(tight.inference_batch, 512);
    EXPECT_TRUE(tight.inference_latency_limited);
    EXPECT_GT(gpu.network_latency(net, tight.inference_batch + 1), 0.1);
    // A budget that batch 513 still meets leaves the cap in charge.
    const double loose_req = gpu.network_latency(net, 513) * 1.01;
    const auto loose = planner.plan(net, diag, loose_req);
    EXPECT_EQ(loose.inference_batch, 512);
    EXPECT_FALSE(loose.inference_latency_limited);
}

TEST(SingleRunning, ModelPickBeatsNonBatching)
{
    // The heart of Fig. 21: the time-model pick outperforms the
    // non-batching default on throughput.
    GpuModel gpu(tx1_spec());
    SingleRunningPlanner planner{gpu};
    const NetworkDesc net = alexnet_desc();
    const int64_t b = planner.max_batch_under_latency(net, 0.25);
    EXPECT_GT(gpu.images_per_second(net, b),
              2.0 * gpu.images_per_second(net, 1));
}

TEST(SingleRunning, VggGainSmallerThanAlexNet)
{
    // Fig. 21: AlexNet gains ~3x from batching, VGG only ~1.1x,
    // because VGG already saturates the device at batch 1.
    GpuModel gpu(tx1_spec());
    SingleRunningPlanner planner{gpu};
    auto gain = [&](const NetworkDesc& net) {
        const int64_t b = planner.max_batch_under_latency(net, 2.0);
        return gpu.images_per_second(net, b) /
               gpu.images_per_second(net, 1);
    };
    EXPECT_GT(gain(alexnet_desc()), 1.5 * gain(vgg16_desc()));
}

TEST(CoRunning, PlanFitsDspAndLatency)
{
    CoRunningPlanner planner{FpgaModel(vx690t_spec())};
    const auto plan = planner.plan(alexnet_desc(), 0.2);
    ASSERT_TRUE(plan.feasible);
    EXPECT_TRUE(planner.fpga().fits_dsp(plan.config));
    EXPECT_LE(plan.latency, 0.2);
    EXPECT_GT(plan.throughput, 0.0);
}

TEST(CoRunning, LooserLatencyNeverHurtsThroughput)
{
    CoRunningPlanner planner{FpgaModel(vx690t_spec())};
    const NetworkDesc net = alexnet_desc();
    double prev = 0.0;
    for (double req : {0.05, 0.1, 0.2, 0.4, 0.8}) {
        const auto plan = planner.plan(net, req);
        ASSERT_TRUE(plan.feasible) << req;
        EXPECT_GE(plan.throughput, prev * 0.999);
        prev = plan.throughput;
    }
}

TEST(ProfileBatches, DeviatesFromModelBoundedly)
{
    GpuModel model(tx1_spec());
    DeviceTruth board(tx1_spec(), kFig21Board);
    const NetworkDesc net = alexnet_desc();
    const std::vector<double> measured = profile_batches(board, net, 64);
    for (int64_t b : {1, 4, 16, 64}) {
        const double m = model.network_latency(net, b);
        const double r = measured[b - 1];
        EXPECT_GT(r, 0.8 * m);
        EXPECT_LT(r, 1.5 * m);
    }
}

TEST(ProfileBatches, Deterministic)
{
    DeviceTruth a(tx1_spec(), kFig21Board);
    DeviceTruth b(tx1_spec(), kFig21Board);
    EXPECT_EQ(profile_batches(a, alexnet_desc()),
              profile_batches(b, alexnet_desc()));
}

TEST(ProfileBatches, ProfiledBestRespectsLatency)
{
    DeviceTruth board(tx1_spec(), kFig21Board);
    const std::vector<double> measured =
        profile_batches(board, alexnet_desc());
    const int64_t best = best_profiled_batch(measured, 0.2);
    EXPECT_LE(measured[best - 1], 0.2);
    // Brute force is at least as good as any single candidate.
    EXPECT_GE(static_cast<double>(best) / measured[best - 1],
              1.0 / measured[0]);
}

TEST(ProfileBatches, ModelPickCloseToProfiledBest)
{
    // Fig 21: "the performance achieved by our method is close to the
    // best case" — within 15% on throughput.
    DeviceTruth board(tx1_spec(), kFig21Board);
    SingleRunningPlanner planner{GpuModel(tx1_spec())};
    const NetworkDesc net = alexnet_desc();
    const std::vector<double> measured = profile_batches(board, net);
    const auto tp = [&](int64_t b) {
        return static_cast<double>(b) / measured[b - 1];
    };
    for (double req : {0.1, 0.25, 0.5}) {
        const int64_t model_pick =
            planner.max_batch_under_latency(net, req);
        const int64_t best = best_profiled_batch(measured, req);
        EXPECT_GE(tp(model_pick), 0.85 * tp(best)) << "req " << req;
    }
}

} // namespace
} // namespace insitu
