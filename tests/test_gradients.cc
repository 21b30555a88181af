/**
 * @file
 * Numerical gradient checks: every differentiable layer's analytic
 * backward pass is compared against central finite differences.
 */
#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/grad_check.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "util/rng.h"

namespace insitu {
namespace {

/** Run a full check of @p net on random data with @p classes outputs. */
GradCheckResult
check_net(Network& net, const Tensor& x,
          const std::vector<int64_t>& labels)
{
    SoftmaxCrossEntropy loss;
    auto loss_fn = [&]() {
        return loss.forward(net.forward(x, false), labels);
    };
    auto backward_fn = [&]() {
        loss.forward(net.forward(x, true), labels);
        net.backward(loss.backward());
    };
    return check_gradients(net, loss_fn, backward_fn);
}

TEST(GradCheck, LinearLayer)
{
    Rng rng(21);
    Network net("lin");
    net.emplace<Linear>("fc", 6, 4, rng);
    Tensor x({3, 6});
    x.fill_uniform(rng, -1.0f, 1.0f);
    const auto r = check_net(net, x, {0, 2, 3});
    EXPECT_TRUE(r.ok()) << "rel err " << r.max_rel_error;
    EXPECT_GT(r.checked, 0);
}

TEST(GradCheck, MlpWithReLU)
{
    Rng rng(22);
    Network net("mlp");
    net.emplace<Linear>("fc1", 5, 7, rng)
        .emplace<ReLU>()
        .emplace<Linear>("fc2", 7, 3, rng);
    Tensor x({4, 5});
    x.fill_uniform(rng, -1.0f, 1.0f);
    EXPECT_TRUE(check_net(net, x, {0, 1, 2, 1}).ok());
}

TEST(GradCheck, ConvLayer)
{
    Rng rng(23);
    Network net("conv");
    net.emplace<Conv2d>("c", 2, 3, 3, 1, 1, rng)
        .emplace<Flatten>()
        .emplace<Linear>("fc", 3 * 5 * 5, 2, rng);
    Tensor x({2, 2, 5, 5});
    x.fill_uniform(rng, -1.0f, 1.0f);
    EXPECT_TRUE(check_net(net, x, {0, 1}).ok());
}

TEST(GradCheck, StridedPaddedConv)
{
    Rng rng(24);
    Network net("conv_s2");
    net.emplace<Conv2d>("c", 1, 2, 3, 2, 1, rng)
        .emplace<Flatten>()
        .emplace<Linear>("fc", 2 * 4 * 4, 2, rng);
    Tensor x({1, 1, 7, 7});
    x.fill_uniform(rng, -1.0f, 1.0f);
    EXPECT_TRUE(check_net(net, x, {1}).ok());
}

TEST(GradCheck, ConvReluPoolStack)
{
    Rng rng(25);
    Network net("cnn");
    net.emplace<Conv2d>("c1", 1, 3, 3, 1, 1, rng)
        .emplace<ReLU>()
        .emplace<MaxPool2d>("p1", 2, 2)
        .emplace<Flatten>()
        .emplace<Linear>("fc", 3 * 4 * 4, 3, rng);
    Tensor x({2, 1, 8, 8});
    x.fill_uniform(rng, -1.0f, 1.0f);
    EXPECT_TRUE(check_net(net, x, {2, 0}).ok());
}

TEST(GradCheck, TwoConvNetwork)
{
    Rng rng(27);
    Network net("two");
    net.emplace<Conv2d>("c1", 1, 2, 3, 1, 1, rng)
        .emplace<ReLU>()
        .emplace<Conv2d>("c2", 2, 2, 3, 1, 1, rng)
        .emplace<ReLU>()
        .emplace<Flatten>()
        .emplace<Linear>("fc", 2 * 6 * 6, 2, rng);
    Tensor x({1, 1, 6, 6});
    x.fill_uniform(rng, -1.0f, 1.0f);
    EXPECT_TRUE(check_net(net, x, {1}).ok());
}

TEST(GradCheck, SharedWeightGradientsAccumulateFromBothUsers)
{
    // When two layers in one network share a parameter, its gradient
    // must be the sum of both contributions (the jigsaw trunk relies
    // on this through the batch-fold, and WSS relies on it on-chip).
    Rng rng(28);
    Network net("shared");
    net.emplace<Linear>("fc1", 4, 4, rng)
        .emplace<ReLU>()
        .emplace<Linear>("fc2", 4, 4, rng)
        .emplace<Linear>("head", 4, 2, rng);
    // Make fc2 share fc1's weights.
    auto donor = net.layer(0).params();
    net.layer(2).set_param(0, donor[0]);
    net.layer(2).set_param(1, donor[1]);
    EXPECT_EQ(net.params().size(), 4u); // fc1 w/b (shared), head w/b

    Tensor x({3, 4});
    x.fill_uniform(rng, -1.0f, 1.0f);
    const auto r = check_net(net, x, {0, 1, 0});
    EXPECT_TRUE(r.ok()) << "rel err " << r.max_rel_error;
}

TEST(GradCheck, FrozenPrefixSkipsBackwardButSuffixStaysCorrect)
{
    Rng rng(29);
    Network net("frozen");
    net.emplace<Conv2d>("c1", 1, 2, 3, 1, 1, rng)
        .emplace<ReLU>()
        .emplace<Flatten>()
        .emplace<Linear>("fc", 2 * 4 * 4, 2, rng);
    net.freeze_first_convs(1);
    Tensor x({1, 1, 4, 4});
    x.fill_uniform(rng, -1.0f, 1.0f);
    // The trainable suffix still gets exact gradients...
    EXPECT_TRUE(check_net(net, x, {1}).ok());
    // ...while the frozen conv receives none at all (backward
    // early-stops above it — the Fig. 6 fine-tuning speedup).
    const auto convs = net.conv_layer_indices();
    for (auto& p : net.layer(convs[0]).params())
        EXPECT_EQ(p->grad().squared_norm(), 0.0);
}

TEST(GradCheck, MidNetworkFreezeStillBackpropagatesThroughFrozen)
{
    // Freezing only an inner layer must not break gradients for an
    // earlier trainable layer: gradients flow *through* frozen
    // parameters whenever something below them still trains.
    Rng rng(30);
    Network net("mid");
    net.emplace<Linear>("fc1", 4, 6, rng)
        .emplace<ReLU>()
        .emplace<Linear>("fc2", 6, 6, rng)
        .emplace<ReLU>()
        .emplace<Linear>("fc3", 6, 2, rng);
    for (auto& p : net.layer(2).params()) p->set_frozen(true);
    Tensor x({3, 4});
    x.fill_uniform(rng, -1.0f, 1.0f);
    EXPECT_TRUE(check_net(net, x, {0, 1, 1}).ok());
}

} // namespace
} // namespace insitu
