/**
 * @file
 * Unit tests for the relative-position pretext task (the paper's
 * second cited supervisory signal) and the quantized-deployment
 * accounting it shares the node with.
 */
#include <gtest/gtest.h>

#include "iot/system.h"
#include "models/tiny.h"
#include "nn/quantize.h"
#include "selfsup/relative.h"
#include "util/rng.h"

namespace insitu {
namespace {

TEST(RelativeBatch, PairsAreCenterPlusCorrectNeighbor)
{
    // Encode tile identity in pixel values to verify the pairing.
    Tensor img({1, 1, 6, 6});
    for (int64_t y = 0; y < 6; ++y)
        for (int64_t x = 0; x < 6; ++x)
            img.at(0, 0, y, x) =
                static_cast<float>((y / 2) * 3 + (x / 2));
    Rng rng(1);
    for (int trial = 0; trial < 20; ++trial) {
        const RelativeBatch batch = make_relative_batch(img, rng);
        ASSERT_EQ(batch.labels.size(), 1u);
        const int64_t label = batch.labels[0];
        EXPECT_GE(label, 0);
        EXPECT_LT(label, kRelativePositions);
        // Slot 0 must be the center tile (value 4 everywhere).
        EXPECT_EQ(batch.pairs.at(0), 4.0f);
        // Slot 1 must be tile (label < 4 ? label : label + 1).
        const float expect_tile =
            static_cast<float>(label < 4 ? label : label + 1);
        EXPECT_EQ(batch.pairs.at(4), expect_tile);
    }
}

TEST(RelativeBatch, LabelsCoverAllPositions)
{
    Rng rng(2);
    Tensor imgs({64, 1, 6, 6});
    const RelativeBatch batch = make_relative_batch(imgs, rng);
    std::vector<int> seen(kRelativePositions, 0);
    for (int64_t l : batch.labels) ++seen[static_cast<size_t>(l)];
    for (int count : seen) EXPECT_GT(count, 0);
}

TEST(RelativeNetwork, ForwardShape)
{
    Rng rng(3);
    TinyConfig config;
    RelativePositionNetwork net = make_tiny_relative(config, rng);
    Tensor imgs({4, 3, 24, 24});
    imgs.fill_uniform(rng, 0.0f, 1.0f);
    const RelativeBatch batch = make_relative_batch(imgs, rng);
    const Tensor logits = net.forward(batch.pairs);
    EXPECT_EQ(logits.dim(0), 4);
    EXPECT_EQ(logits.dim(1), kRelativePositions);
}

TEST(RelativeNetwork, TrainingReducesLoss)
{
    Rng rng(4);
    TinyConfig config;
    RelativePositionNetwork net = make_tiny_relative(config, rng);
    SynthConfig synth;
    const Dataset raw =
        make_dataset(synth, 48, Condition::ideal(), rng);
    Sgd opt({.lr = 0.02, .momentum = 0.9});
    double first = 0.0, last = 0.0;
    for (int step = 0; step < 25; ++step) {
        const RelativeBatch batch =
            make_relative_batch(raw.images, rng);
        const double loss = net.train_batch(opt, batch);
        if (step == 0) first = loss;
        last = loss;
    }
    EXPECT_LT(last, first);
    EXPECT_GT(net.evaluate(raw.images, rng), 1.5 / 8.0);
}

TEST(RelativeNetwork, TrunkShareableWithInference)
{
    Rng rng(5);
    TinyConfig config;
    RelativePositionNetwork pretext = make_tiny_relative(config, rng);
    Network inference = make_tiny_inference(config, rng);
    inference.share_convs_from(pretext.trunk(), 3);
    EXPECT_EQ(inference.shared_conv_prefix(pretext.trunk()), 3u);
}

TEST(RelativeNetwork, ParamsDeduplicated)
{
    Rng rng(6);
    TinyConfig config;
    RelativePositionNetwork net = make_tiny_relative(config, rng);
    const auto params = net.params();
    for (size_t i = 0; i < params.size(); ++i)
        for (size_t j = i + 1; j < params.size(); ++j)
            EXPECT_NE(params[i].get(), params[j].get());
}

TEST(DeployBytes, QuantizedDownlinkIsSmaller)
{
    IotSystemConfig config;
    config.tiny.num_permutations = 8;
    config.update_epochs = 1;
    config.pretrain_epochs = 1;
    config.seed = 9;
    IotSystemSim q(IotSystemKind::kInsituAi, config);
    IotStream sq(SynthConfig{}, {{40, Condition::ideal()}}, 3);
    const auto rq = q.run(sq);
    ASSERT_EQ(rq.size(), 1u);
    EXPECT_GT(rq[0].deploy_bytes, 0.0);

    Network& inference = q.cloud().inference();
    Network& trunk = q.cloud().jigsaw().trunk();
    Network& head = q.cloud().jigsaw().head();
    // The same models shipped as float32, the shared prefix once.
    const size_t shared = trunk.shared_conv_prefix(inference);
    ASSERT_GE(shared, kSharedConvs);
    double shared_bytes = 0;
    const auto convs = trunk.conv_layer_indices();
    for (size_t i = 0; i < shared; ++i)
        for (auto& p : trunk.layer(convs[i]).params())
            shared_bytes += 4.0 * static_cast<double>(p->numel());
    const double float_bytes = float_payload_bytes(inference) +
                               float_payload_bytes(trunk) +
                               float_payload_bytes(head) - shared_bytes;
    // int8 payload is roughly a quarter of float32.
    EXPECT_LT(rq[0].deploy_bytes, 0.35 * float_bytes);
    // Weight sharing: the shared prefix ships once, so the payload is
    // less than inference + full jigsaw.
    EXPECT_LT(rq[0].deploy_bytes,
              quantize_weights(inference).payload_bytes() +
                  quantize_weights(trunk).payload_bytes() +
                  quantize_weights(head).payload_bytes());
}

} // namespace
} // namespace insitu
