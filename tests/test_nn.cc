/**
 * @file
 * Unit tests for layers, the network container, weight
 * sharing/freezing surgery, loss, optimizer, trainer and
 * serialization.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace insitu {
namespace {

TEST(Conv2d, KnownConvolution)
{
    Rng rng(1);
    Conv2d conv("c", 1, 1, 2, 1, 0, rng);
    conv.weight()->value() = Tensor({1, 1, 2, 2}, {1, 0, 0, 1});
    conv.bias()->value() = Tensor({1}, {0.5f});
    Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
    const Tensor y = conv.forward(x, false);
    EXPECT_EQ(y.dim(2), 2);
    EXPECT_EQ(y.dim(3), 2);
    // Window [[1,2],[4,5]] . [[1,0],[0,1]] = 6, + bias.
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 6.5f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 14.5f);
}

TEST(Conv2d, StrideAndPaddingShapes)
{
    Rng rng(2);
    Conv2d conv("c", 3, 8, 5, 2, 2, rng);
    Tensor x({2, 3, 32, 32});
    const Tensor y = conv.forward(x, false);
    EXPECT_EQ(y.dim(0), 2);
    EXPECT_EQ(y.dim(1), 8);
    EXPECT_EQ(y.dim(2), 16);
    EXPECT_EQ(y.dim(3), 16);
}

TEST(Conv2d, ChannelMismatchDies)
{
    Rng rng(3);
    Conv2d conv("c", 3, 4, 3, 1, 1, rng);
    Tensor x({1, 2, 8, 8});
    EXPECT_DEATH(conv.forward(x, false), "channels");
}

TEST(Linear, KnownAffine)
{
    Rng rng(4);
    Linear fc("fc", 2, 2, rng);
    fc.weight()->value() = Tensor({2, 2}, {1, 2, 3, 4});
    fc.bias()->value() = Tensor({2}, {10, 20});
    Tensor x({1, 2}, {1, 1});
    const Tensor y = fc.forward(x, false);
    EXPECT_FLOAT_EQ(y.at(0, 0), 13.0f); // 1*1+2*1+10
    EXPECT_FLOAT_EQ(y.at(0, 1), 27.0f); // 3*1+4*1+20
}

TEST(ReLU, ForwardAndBackwardMask)
{
    ReLU relu;
    Tensor x({4}, {-1, 0, 2, -3});
    const Tensor y = relu.forward(x, true);
    EXPECT_EQ(y.at(0), 0.0f);
    EXPECT_EQ(y.at(2), 2.0f);
    Tensor g({4}, {1, 1, 1, 1});
    const Tensor gi = relu.backward(g);
    EXPECT_EQ(gi.at(0), 0.0f);
    EXPECT_EQ(gi.at(2), 1.0f);
}

TEST(Flatten, RoundTripShapes)
{
    Flatten f;
    Tensor x({2, 3, 4, 5});
    const Tensor y = f.forward(x, false);
    EXPECT_EQ(y.dim(0), 2);
    EXPECT_EQ(y.dim(1), 60);
    const Tensor back = f.backward(y);
    EXPECT_EQ(back.shape(), x.shape());
}

TEST(MaxPool, SelectsWindowMaxima)
{
    MaxPool2d pool("p", 2, 2);
    Tensor x({1, 1, 4, 4},
             {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
    const Tensor y = pool.forward(x, false);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 6.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 16.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax)
{
    MaxPool2d pool("p", 2, 2);
    Tensor x({1, 1, 2, 2}, {1, 9, 3, 4});
    pool.forward(x, true);
    Tensor g({1, 1, 1, 1}, {5.0f});
    const Tensor gi = pool.backward(g);
    EXPECT_EQ(gi.at(0, 0, 0, 1), 5.0f);
    EXPECT_EQ(gi.at(0, 0, 0, 0), 0.0f);
}

// --- grouped conv forward ------------------------------------------

/// The per-image loop the grouped forward replaced: one image's
/// lowering, one raw gemm() and one bias add per image.
Tensor
per_image_conv(const Conv2d& conv, const Tensor& x, GemmBackend be)
{
    ConvGeometry g;
    g.in_channels = conv.in_channels();
    g.in_h = x.dim(2);
    g.in_w = x.dim(3);
    g.kernel = conv.kernel();
    g.stride = conv.stride();
    g.pad = conv.pad();
    const int64_t m = conv.out_channels();
    const int64_t ckk = g.in_channels * g.kernel * g.kernel;
    const int64_t ohw = g.out_h() * g.out_w();
    const float* bias = conv.bias()->value().data();
    Tensor y({x.dim(0), m, g.out_h(), g.out_w()});
    std::vector<float> cols(static_cast<size_t>(ckk * ohw));
    for (int64_t b = 0; b < x.dim(0); ++b) {
        im2col_group(x, b, 1, g, cols.data(), ohw);
        float* dst = y.data() + b * m * ohw;
        gemm(m, ohw, ckk, conv.weight()->value().data(), ckk, 1,
             cols.data(), ohw, 1, dst, be);
        for (int64_t f = 0; f < m; ++f)
            for (int64_t i = 0; i < ohw; ++i) dst[f * ohw + i] += bias[f];
    }
    return y;
}

TEST(Conv2dGrouped, BitIdenticalToPerImageOracleWithExactFlops)
{
    auto& flops =
        obs::MetricsRegistry::global().counter("tensor.matmul.flops");
    const GemmBackend prev = gemm_backend();
    Rng rng(14);
    // Output sides 1, 2, 4, 8, 24: OH*OW in {1, 4, 16, 64, 576}.
    for (const int64_t side : {1, 2, 4, 8, 24}) {
        const int64_t ohw = side * side;
        const int64_t group = (kGroupCols + ohw - 1) / ohw;
        // C*K^2 = 270 crosses the GEMM's 256-deep k panel; the
        // 576-column maps stay at 3 channels to keep the sweep quick.
        const int64_t in_ch = ohw < 576 ? 30 : 3;
        for (const int64_t pad : {0, 1}) {
            Conv2d conv("c", in_ch, 5, 3, 2, pad, rng);
            conv.bias()->value().fill_uniform(rng, -1.0f, 1.0f);
            const int64_t in = 2 * (side - 1) + 3 - 2 * pad;
            for (const int64_t batch :
                 {int64_t{1}, group - 1, group + 1, int64_t{288}}) {
                if (batch < 1) continue;
                Tensor x({batch, in_ch, in, in});
                x.fill_uniform(rng, -1.0f, 1.0f);
                for (const GemmBackend be :
                     {GemmBackend::kBlocked, GemmBackend::kNaive}) {
                    set_gemm_backend(be);
                    const Tensor ref = per_image_conv(conv, x, be);
                    for (const int width : {1, 4}) {
                        set_num_threads(width);
                        const int64_t f0 = flops.value();
                        const Tensor y = conv.forward(x, false);
                        EXPECT_EQ(flops.value() - f0,
                                  2 * conv.out_channels() * in_ch * 9 *
                                      ohw * batch); // K^2 = 9
                        ASSERT_EQ(y.shape(), ref.shape());
                        EXPECT_EQ(std::memcmp(y.data(), ref.data(),
                                              sizeof(float) *
                                                  static_cast<size_t>(
                                                      y.numel())),
                                  0)
                            << "OH*OW " << ohw << " pad " << pad
                            << " batch " << batch << " backend "
                            << gemm_backend_name() << " width "
                            << width;
                    }
                }
            }
        }
    }
    set_num_threads(0);
    set_gemm_backend(prev);
}

// --- eval-mode forwards keep no backward state ----------------------

TEST(EvalForward, OutputMatchesTrainingForward)
{
    Rng rng(15);
    Network net("n");
    net.emplace<Conv2d>("c", 2, 4, 3, 1, 1, rng);
    net.emplace<ReLU>();
    net.emplace<MaxPool2d>("p", 2, 2);
    net.emplace<Flatten>();
    net.emplace<Linear>("fc", 4 * 3 * 3, 3, rng);
    Tensor x({3, 2, 6, 6});
    x.fill_uniform(rng, -1.0f, 1.0f);
    const Tensor train = net.forward(x, true);
    const Tensor eval = net.forward(x, false);
    ASSERT_EQ(train.shape(), eval.shape());
    EXPECT_EQ(std::memcmp(train.data(), eval.data(),
                          sizeof(float) *
                              static_cast<size_t>(train.numel())),
              0);
}

TEST(NetworkBackward, LowestLayerSkipsInputGradientOnly)
{
    // conv1 is frozen, so backward() stops at conv2 and asks it for
    // parameter gradients only; backward_input() runs every layer.
    // The trainable grads must be the same bits, and backward() must
    // skip exactly conv1's dW and dX and conv2's dX: three GEMMs the
    // size of a conv forward.
    Rng rng(18);
    Network net("n");
    net.emplace<Conv2d>("c1", 2, 4, 3, 1, 1, rng);
    net.emplace<ReLU>();
    net.emplace<Conv2d>("c2", 4, 5, 3, 1, 1, rng);
    net.emplace<ReLU>();
    net.emplace<Flatten>();
    net.emplace<Linear>("fc", 5 * 6 * 6, 3, rng);
    net.freeze_first_convs(1);
    EXPECT_EQ(net.first_trainable(), 2u);
    Tensor x({3, 2, 6, 6});
    x.fill_uniform(rng, -1.0f, 1.0f);
    Tensor top({3, 3});
    top.fill_uniform(rng, -1.0f, 1.0f);
    auto& reg = obs::MetricsRegistry::global();
    auto flops = [&] {
        return reg.counter("tensor.matmul.flops").value() +
               reg.counter("tensor.matmul_ta.flops").value() +
               reg.counter("tensor.matmul_tb.flops").value();
    };
    auto trainable_grads = [&] {
        std::vector<Tensor> out;
        for (auto& p : net.params())
            if (!p->frozen()) out.push_back(p->grad());
        return out;
    };

    net.zero_grad();
    (void)net.forward(x, true);
    int64_t f0 = flops();
    net.backward(top);
    const int64_t params_only = flops() - f0;
    const std::vector<Tensor> want = trainable_grads();

    net.zero_grad();
    (void)net.forward(x, true);
    f0 = flops();
    const Tensor dx = net.backward_input(top);
    const int64_t full = flops() - f0;
    EXPECT_EQ(dx.shape(), x.shape());
    const std::vector<Tensor> got = trainable_grads();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                              sizeof(float) *
                                  static_cast<size_t>(got[i].numel())),
                  0)
            << "param " << i;
    const int64_t conv1_fwd = 2 * 3 * 4 * (2 * 9) * 36;
    const int64_t conv2_fwd = 2 * 3 * 5 * (4 * 9) * 36;
    EXPECT_EQ(full - params_only, 2 * conv1_fwd + conv2_fwd);
}

TEST(Trainer, FrozenPrefixActivationsTrainTheSameBits)
{
    // Training layers [first, n) on the frozen prefix's eval-mode
    // activations gives the same weights and losses as full training
    // forwards: per-image activations do not depend on the batch, and
    // eval and training forwards agree.
    const auto make = [] {
        Rng rng(19);
        Network net("n");
        net.emplace<Conv2d>("c1", 2, 4, 3, 1, 1, rng);
        net.emplace<ReLU>();
        net.emplace<MaxPool2d>("p", 2, 2);
        net.emplace<Conv2d>("c2", 4, 4, 3, 1, 1, rng);
        net.emplace<ReLU>();
        net.emplace<Flatten>();
        net.emplace<Linear>("fc", 4 * 3 * 3, 3, rng);
        net.freeze_first_convs(1);
        return net;
    };
    Network full = make(), reuse = make();
    Rng data_rng(20);
    Tensor x({40, 2, 6, 6});
    x.fill_uniform(data_rng, -1.0f, 1.0f);
    std::vector<int64_t> y(40);
    for (auto& v : y) v = static_cast<int64_t>(data_rng.next_below(3));

    const size_t first = reuse.first_trainable();
    ASSERT_EQ(first, 3u);
    const Tensor feats = prefix_activations(reuse, x, first, 16);
    Sgd opt_full({.lr = 0.05, .momentum = 0.9});
    Sgd opt_reuse({.lr = 0.05, .momentum = 0.9});
    Rng r1(21), r2(21);
    const auto a = train_epochs(full, opt_full, x, y, 8, 3, r1);
    const auto b =
        train_epochs(reuse, opt_reuse, feats, y, 8, 3, r2, first);
    for (size_t e = 0; e < a.size(); ++e)
        EXPECT_EQ(a[e].mean_loss, b[e].mean_loss) << "epoch " << e;
    const auto pa = full.params(), pb = reuse.params();
    for (size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(std::memcmp(pa[i]->value().data(),
                              pb[i]->value().data(),
                              sizeof(float) * static_cast<size_t>(
                                                  pa[i]->numel())),
                  0)
            << pa[i]->name();
    EXPECT_EQ(evaluate_accuracy(full, x, y),
              evaluate_accuracy(reuse, feats, y, first));
}

// Each layer first runs a training forward, so the death proves the
// eval forward dropped that state rather than never having had any.

TEST(EvalForwardDeathTest, ConvBackwardDies)
{
    Rng rng(16);
    Conv2d conv("c", 1, 2, 3, 1, 1, rng);
    const Tensor x({1, 1, 4, 4}, 0.5f);
    conv.forward(x, true);
    conv.forward(x, false);
    EXPECT_DEATH(conv.backward(Tensor({1, 2, 4, 4}, 1.0f)),
                 "conv backward before forward");
}

TEST(EvalForwardDeathTest, LinearBackwardDies)
{
    Rng rng(17);
    Linear fc("fc", 3, 2, rng);
    const Tensor x({2, 3}, 0.5f);
    fc.forward(x, true);
    fc.forward(x, false);
    EXPECT_DEATH(fc.backward(Tensor({2, 2}, 1.0f)),
                 "linear backward before forward");
}

TEST(EvalForwardDeathTest, MaxPoolBackwardDies)
{
    MaxPool2d pool("p", 2, 2);
    const Tensor x({1, 1, 4, 4}, 0.5f);
    pool.forward(x, true);
    pool.forward(x, false);
    EXPECT_DEATH(pool.backward(Tensor({1, 1, 2, 2}, 1.0f)),
                 "maxpool backward before forward");
}

TEST(EvalForwardDeathTest, ReluBackwardDies)
{
    ReLU relu;
    const Tensor x({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
    relu.forward(x, true);
    relu.forward(x, false);
    EXPECT_DEATH(relu.backward(Tensor({4}, 1.0f)),
                 "relu backward before forward");
}

TEST(EvalForwardDeathTest, FusedNetworkBackwardDies)
{
    // An eval forward runs conv, ReLU and pool as one fused conv,
    // which must drop the ReLU's mask and the pool's argmax that the
    // training forward before it left.
    Rng rng(18);
    Network net("fused");
    net.emplace<Conv2d>("c", 1, 2, 3, 1, 1, rng);
    net.emplace<ReLU>("c.relu");
    net.emplace<MaxPool2d>("c.pool", 2, 2);
    const Tensor x({2, 1, 4, 4}, 0.5f);
    net.forward(x, true);
    net.forward(x, false);
    EXPECT_DEATH(net.backward(Tensor({2, 2, 2, 2}, 1.0f)),
                 "maxpool backward before forward");
    EXPECT_DEATH(net.layer(1).backward(Tensor({2, 2, 4, 4}, 1.0f)),
                 "relu backward before forward");
}

TEST(Softmax, RowsSumToOne)
{
    Tensor logits({2, 3}, {1, 2, 3, -1, 0, 1});
    const Tensor p = softmax_rows(logits);
    for (int64_t r = 0; r < 2; ++r) {
        double s = 0.0;
        for (int64_t c = 0; c < 3; ++c) s += p.at(r, c);
        EXPECT_NEAR(s, 1.0, 1e-6);
    }
}

TEST(Softmax, StableUnderLargeLogits)
{
    Tensor logits({1, 2}, {1000.0f, 999.0f});
    const Tensor p = softmax_rows(logits);
    EXPECT_NEAR(p.at(0, 0), 0.731, 1e-3);
}

TEST(CrossEntropy, PerfectPredictionLowLoss)
{
    Tensor logits({1, 3}, {20.0f, 0.0f, 0.0f});
    SoftmaxCrossEntropy loss;
    EXPECT_LT(loss.forward(logits, {0}), 1e-6);
}

TEST(CrossEntropy, UniformLogitsGiveLogC)
{
    Tensor logits({1, 4});
    SoftmaxCrossEntropy loss;
    EXPECT_NEAR(loss.forward(logits, {2}), std::log(4.0), 1e-6);
}

TEST(CrossEntropy, GradientSignsAndSum)
{
    Tensor logits({1, 3}, {1.0f, 2.0f, 0.5f});
    SoftmaxCrossEntropy loss;
    loss.forward(logits, {1});
    const Tensor g = loss.backward();
    EXPECT_LT(g.at(0, 1), 0.0f); // true class pushed up
    EXPECT_GT(g.at(0, 0), 0.0f);
    EXPECT_NEAR(g.sum(), 0.0, 1e-6); // softmax grad sums to zero
}

Network
make_mlp(Rng& rng)
{
    Network net("mlp");
    net.emplace<Linear>("fc1", 4, 8, rng)
        .emplace<ReLU>()
        .emplace<Linear>("fc2", 8, 3, rng);
    return net;
}

TEST(Network, ForwardShapes)
{
    Rng rng(7);
    Network net = make_mlp(rng);
    Tensor x({5, 4});
    const Tensor y = net.forward(x);
    EXPECT_EQ(y.dim(0), 5);
    EXPECT_EQ(y.dim(1), 3);
}

TEST(Network, ParamCountAndZeroGrad)
{
    Rng rng(8);
    Network net = make_mlp(rng);
    EXPECT_EQ(net.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
    for (auto& p : net.params()) p->grad().fill(1.0f);
    net.zero_grad();
    for (auto& p : net.params()) EXPECT_EQ(p->grad().sum(), 0.0);
}

Network
make_cnn(Rng& rng, const std::string& name = "cnn")
{
    Network net(name);
    net.emplace<Conv2d>("conv1", 1, 4, 3, 1, 1, rng)
        .emplace<ReLU>()
        .emplace<Conv2d>("conv2", 4, 4, 3, 1, 1, rng)
        .emplace<ReLU>()
        .emplace<Flatten>()
        .emplace<Linear>("fc", 4 * 8 * 8, 3, rng);
    return net;
}

TEST(Network, ConvLayerIndices)
{
    Rng rng(9);
    Network net = make_cnn(rng);
    const auto idx = net.conv_layer_indices();
    ASSERT_EQ(idx.size(), 2u);
    EXPECT_EQ(idx[0], 0u);
    EXPECT_EQ(idx[1], 2u);
}

TEST(Network, FreezeFirstConvs)
{
    Rng rng(10);
    Network net = make_cnn(rng);
    net.freeze_first_convs(1);
    EXPECT_LT(net.trainable_param_count(), net.param_count());
    const auto idx = net.conv_layer_indices();
    for (auto& p : net.layer(idx[0]).params()) EXPECT_TRUE(p->frozen());
    for (auto& p : net.layer(idx[1]).params())
        EXPECT_FALSE(p->frozen());
    net.unfreeze_all();
    EXPECT_EQ(net.trainable_param_count(), net.param_count());
}

TEST(Network, FreezeTooManyDies)
{
    Rng rng(11);
    Network net = make_cnn(rng);
    EXPECT_DEATH(net.freeze_first_convs(3), "conv layers");
}

TEST(Network, CopyConvsCopiesValuesNotStorage)
{
    Rng rng(12);
    Network a = make_cnn(rng, "a");
    Network b = make_cnn(rng, "b");
    b.copy_convs_from(a, 2);
    const auto ia = a.conv_layer_indices();
    const auto ib = b.conv_layer_indices();
    auto pa = a.layer(ia[0]).params();
    auto pb = b.layer(ib[0]).params();
    EXPECT_NE(pa[0].get(), pb[0].get()); // distinct storage
    for (int64_t i = 0; i < pa[0]->numel(); ++i)
        EXPECT_EQ(pa[0]->value().at(i), pb[0]->value().at(i));
    EXPECT_EQ(b.shared_conv_prefix(a), 0u);
}

TEST(Network, ShareConvsSharesStorage)
{
    Rng rng(13);
    Network a = make_cnn(rng, "a");
    Network b = make_cnn(rng, "b");
    b.share_convs_from(a, 1);
    EXPECT_EQ(b.shared_conv_prefix(a), 1u);
    const auto ia = a.conv_layer_indices();
    const auto ib = b.conv_layer_indices();
    auto pa = a.layer(ia[0]).params();
    auto pb = b.layer(ib[0]).params();
    EXPECT_EQ(pa[0].get(), pb[0].get());
    // A write through one network is visible through the other.
    pa[0]->value().at(0) = 123.0f;
    EXPECT_EQ(pb[0]->value().at(0), 123.0f);
}

TEST(Network, SharedParamsReportedOnce)
{
    Rng rng(14);
    Network a = make_cnn(rng, "a");
    Network b = make_cnn(rng, "b");
    const int64_t before = b.param_count();
    b.share_convs_from(a, 2);
    EXPECT_EQ(b.param_count(), before); // same shapes, counted once
    EXPECT_EQ(b.params().size(), 6u);
}

TEST(Sgd, DescendsOnQuadratic)
{
    // Minimize f(w) = (w - 3)^2 by hand-feeding gradients.
    auto p = std::make_shared<Parameter>("w", std::vector<int64_t>{1});
    p->value().at(0) = 0.0f;
    Sgd opt({.lr = 0.1, .momentum = 0.0, .weight_decay = 0.0});
    for (int i = 0; i < 100; ++i) {
        p->zero_grad();
        p->grad().at(0) = 2.0f * (p->value().at(0) - 3.0f);
        opt.step({p});
    }
    EXPECT_NEAR(p->value().at(0), 3.0f, 1e-3f);
}

TEST(Sgd, SkipsFrozenParams)
{
    auto p = std::make_shared<Parameter>("w", std::vector<int64_t>{1});
    p->set_frozen(true);
    p->grad().at(0) = 1.0f;
    Sgd opt({.lr = 0.1});
    opt.step({p});
    EXPECT_EQ(p->value().at(0), 0.0f);
}

TEST(Sgd, MomentumAcceleratesDescent)
{
    auto run = [](double momentum) {
        auto p =
            std::make_shared<Parameter>("w", std::vector<int64_t>{1});
        p->value().at(0) = 10.0f;
        Sgd opt({.lr = 0.01, .momentum = momentum});
        for (int i = 0; i < 20; ++i) {
            p->zero_grad();
            p->grad().at(0) = 2.0f * p->value().at(0);
            opt.step({p});
        }
        return std::abs(p->value().at(0));
    };
    EXPECT_LT(run(0.9), run(0.0));
}

TEST(Trainer, LearnsLinearlySeparableProblem)
{
    // Two Gaussian blobs in 2-D must be separable by a tiny MLP.
    Rng rng(15);
    const int64_t n = 200;
    Tensor x({n, 2});
    std::vector<int64_t> y(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
        const int64_t cls = i % 2;
        y[static_cast<size_t>(i)] = cls;
        const float cx = cls ? 2.0f : -2.0f;
        x.at(i * 2 + 0) = cx + static_cast<float>(rng.normal(0, 0.5));
        x.at(i * 2 + 1) = static_cast<float>(rng.normal(0, 0.5));
    }
    Network net("toy");
    net.emplace<Linear>("fc1", 2, 8, rng)
        .emplace<ReLU>()
        .emplace<Linear>("fc2", 8, 2, rng);
    Sgd opt({.lr = 0.1, .momentum = 0.9});
    const auto stats = train_epochs(net, opt, x, y, 16, 10, rng);
    EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
    EXPECT_GT(evaluate_accuracy(net, x, y), 0.95);
}

TEST(Trainer, GatherRows)
{
    Tensor x({3, 2}, {0, 1, 2, 3, 4, 5});
    const Tensor g = gather_rows(x, {2, 0});
    EXPECT_EQ(g.at(0, 0), 4.0f);
    EXPECT_EQ(g.at(1, 1), 1.0f);
}

TEST(Serialize, RoundTripRestoresWeights)
{
    Rng rng(16);
    Network a = make_cnn(rng, "net");
    Network b = make_cnn(rng, "net");
    ASSERT_TRUE(load_weights(b, save_weights(a)));
    auto pa = a.params();
    auto pb = b.params();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i)
        for (int64_t j = 0; j < pa[i]->numel(); ++j)
            EXPECT_EQ(pa[i]->value().at(j), pb[i]->value().at(j));
}

TEST(Serialize, RejectsMismatchedNetwork)
{
    Rng rng(17);
    Network a = make_cnn(rng);
    Network b = make_mlp(rng);
    EXPECT_FALSE(load_weights(b, save_weights(a)));
}

TEST(Serialize, RejectsGarbageStream)
{
    Rng rng(18);
    Network a = make_mlp(rng);
    EXPECT_FALSE(load_weights(a, "not a weight file"));
}

TEST(Network, SummaryMentionsLayers)
{
    Rng rng(19);
    Network net = make_cnn(rng, "demo");
    const std::string s = net.summary();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("conv1"), std::string::npos);
    EXPECT_NE(s.find("trainable"), std::string::npos);
}

/// Identity layer of a kind no other test uses, so its timing
/// histograms appear in the global registry only through this test.
class TimingProbe : public Layer {
  public:
    Tensor forward(const Tensor& x, bool) override { return x; }
    Tensor backward(const Tensor& g) override { return g; }
    std::string kind() const override { return "timing_probe"; }
};

// A histogram is registered when first observed, so a network that
// never runs backward (or never runs) exports no zero-count line.
TEST(Network, TimingHistogramsRegisterOnFirstObservation)
{
    const auto& registry = obs::MetricsRegistry::global();
    const std::string fwd = "nn.forward.timing_probe.time_s";
    const std::string bwd = "nn.backward.timing_probe.time_s";
    Network net("probe");
    net.emplace<TimingProbe>();
    EXPECT_EQ(registry.snapshot().find(fwd), nullptr);
    EXPECT_EQ(registry.snapshot().find(bwd), nullptr);

    const Tensor x({2, 3});
    net.forward(x);
    ASSERT_NE(registry.snapshot().find(fwd), nullptr);
    EXPECT_EQ(registry.snapshot().find(fwd)->count, 1);
    EXPECT_EQ(registry.snapshot().find(bwd), nullptr);

    net.forward(x, /*training=*/true);
    (void)net.backward_input(x);
    EXPECT_EQ(registry.snapshot().find(fwd)->count, 2);
    ASSERT_NE(registry.snapshot().find(bwd), nullptr);
    EXPECT_EQ(registry.snapshot().find(bwd)->count, 1);
}

} // namespace
} // namespace insitu
