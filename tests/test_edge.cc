/**
 * @file
 * Edge-case sweep: degenerate inputs, planner infeasibility paths,
 * idempotence of surgery operations, and error-path exits.
 */
#include <gtest/gtest.h>

#include "analytics/planner.h"
#include "fpga/pipeline.h"
#include "models/tiny.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "util/rng.h"

namespace insitu {
namespace {

TEST(Edge, EvaluateAccuracyOnEmptySetIsZero)
{
    Rng rng(1);
    Network net("n");
    net.emplace<Linear>("fc", 2, 2, rng);
    Tensor empty({0, 2});
    EXPECT_DOUBLE_EQ(evaluate_accuracy(net, empty, {}), 0.0);
}

TEST(Edge, TrainEpochsWithBatchLargerThanData)
{
    Rng rng(2);
    Network net("n");
    net.emplace<Linear>("fc", 2, 2, rng);
    Tensor x({3, 2});
    x.fill_uniform(rng, -1.0f, 1.0f);
    Sgd opt({.lr = 0.1});
    const auto stats = train_epochs(net, opt, x, {0, 1, 0}, 64, 2, rng);
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_GT(stats[0].mean_loss, 0.0);
}

TEST(Edge, TrainEpochsZeroEpochsIsNoop)
{
    Rng rng(3);
    Network net("n");
    net.emplace<Linear>("fc", 2, 2, rng);
    const float before = net.params()[0]->value().at(0);
    Tensor x({2, 2});
    Sgd opt({.lr = 0.1});
    EXPECT_TRUE(train_epochs(net, opt, x, {0, 1}, 2, 0, rng).empty());
    EXPECT_EQ(net.params()[0]->value().at(0), before);
}

TEST(Edge, UnfreezeIsIdempotent)
{
    Rng rng(4);
    TinyConfig config;
    config.num_permutations = 8;
    Network net = make_tiny_inference(config, rng);
    net.freeze_first_convs(3);
    net.freeze_first_convs(3); // re-freezing is fine
    net.unfreeze_all();
    net.unfreeze_all();
    EXPECT_EQ(net.trainable_param_count(), net.param_count());
}

TEST(Edge, ShareConvsTwiceIsStable)
{
    Rng rng(5);
    TinyConfig config;
    config.num_permutations = 8;
    Network a = make_tiny_inference(config, rng);
    Network b = make_tiny_inference(config, rng);
    b.share_convs_from(a, 3);
    b.share_convs_from(a, 3);
    EXPECT_EQ(b.shared_conv_prefix(a), 3u);
    // Extending the share later also works.
    b.share_convs_from(a, 5);
    EXPECT_EQ(b.shared_conv_prefix(a), 5u);
}

TEST(Edge, FreezeZeroIsNoop)
{
    Rng rng(6);
    TinyConfig config;
    config.num_permutations = 8;
    Network net = make_tiny_inference(config, rng);
    net.freeze_first_convs(0);
    EXPECT_EQ(net.trainable_param_count(), net.param_count());
}

TEST(Edge, SgdZeroLrChangesNothing)
{
    auto p = std::make_shared<Parameter>("w", std::vector<int64_t>{2});
    p->value().fill(1.0f);
    p->grad().fill(5.0f);
    Sgd opt({.lr = 0.0, .momentum = 0.0});
    opt.step({p});
    EXPECT_EQ(p->value().at(0), 1.0f);
}

TEST(Edge, CoRunningPlannerInfeasibleForImpossibleLatency)
{
    CoRunningPlanner planner{FpgaModel(vx690t_spec())};
    const auto plan = planner.plan(alexnet_desc(), 1e-4);
    EXPECT_FALSE(plan.feasible);
}

TEST(Edge, PlannerRejectsNonPositiveLatency)
{
    SingleRunningPlanner planner{GpuModel(tx1_spec())};
    EXPECT_DEATH(
        planner.max_batch_under_latency(alexnet_desc(), 0.0),
        "latency");
}

TEST(Edge, PipelinePlanInfeasibleIsEmpty)
{
    CorunPipeline pipe(vx690t_spec(), 2628, {8, 10});
    const auto plan = pipe.best_under_latency(
        alexnet_desc(), PipelineVariant::kWs, 1e-4);
    EXPECT_FALSE(plan.feasible);
    EXPECT_EQ(plan.batch, 0);
    EXPECT_DOUBLE_EQ(plan.throughput, 0.0);
}

TEST(Edge, ReluOnAllNegativeInputIsZeroWithZeroGrad)
{
    ReLU relu;
    Tensor x({3}, {-1.0f, -2.0f, -0.5f});
    const Tensor y = relu.forward(x, true);
    EXPECT_EQ(y.sum(), 0.0);
    Tensor g({3}, 1.0f);
    EXPECT_EQ(relu.backward(g).sum(), 0.0);
}

TEST(Edge, RngSplitChainsStayDeterministic)
{
    Rng a(99), b(99);
    Rng a1 = a.split(), b1 = b.split();
    Rng a2 = a1.split(), b2 = b1.split();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a2.next_u64(), b2.next_u64());
}

TEST(Edge, GpuMaxBatchRespectsExplicitLimit)
{
    GpuModel gpu(tx1_spec());
    Rng rng(0);
    const NetworkDesc tiny =
        describe(make_tiny_inference(TinyConfig{}, rng), {3, 24, 24});
    EXPECT_LE(gpu.max_batch_for_memory(tiny, 16), 16);
}

TEST(Edge, JigsawEvaluateEmptyIsZero)
{
    Rng rng(8);
    TinyConfig config;
    config.num_permutations = 8;
    JigsawNetwork jig = make_tiny_jigsaw(config, rng);
    PermutationSet perms(config.num_permutations, rng);
    Tensor empty({0, 3, 24, 24});
    EXPECT_DOUBLE_EQ(jig.evaluate(empty, perms, rng), 0.0);
}

} // namespace
} // namespace insitu
