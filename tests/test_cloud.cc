/**
 * @file
 * Unit tests for the cloud side: the training cost model (layer
 * freezing must cut cost) and the model-update service (pretraining,
 * transfer, incremental updates, accounting).
 */
#include <gtest/gtest.h>

#include <vector>

#include "cloud/cost_model.h"
#include "cloud/update_service.h"
#include "nn/trainer.h"

namespace insitu {
namespace {

/** Every parameter value of @p net, in order, for exact comparison. */
std::vector<float>
weights_of(const Network& net)
{
    std::vector<float> out;
    for (const auto& p : net.params())
        out.insert(out.end(), p->value().data(),
                   p->value().data() + p->numel());
    return out;
}

/** The default TinyNet inference net, described from its layers. */
NetworkDesc
tiny_desc()
{
    Rng rng(0);
    return describe(make_tiny_inference(TinyConfig{}, rng), {3, 24, 24});
}

TEST(CostModel, EpochOpsScaleWithImages)
{
    TrainingCostModel cost(titan_x_spec());
    const NetworkDesc net = tiny_desc();
    EXPECT_DOUBLE_EQ(cost.epoch_ops(net, 200, 0),
                     2.0 * cost.epoch_ops(net, 100, 0));
}

TEST(CostModel, FreezingReducesCost)
{
    // The weight-sharing payoff: updating only the suffix is cheaper.
    TrainingCostModel cost(titan_x_spec());
    const NetworkDesc net = tiny_desc();
    const double full = cost.epoch_ops(net, 1000, 0);
    const double frozen3 = cost.epoch_ops(net, 1000, 3);
    const double frozen5 = cost.epoch_ops(net, 1000, 5);
    EXPECT_LT(frozen3, full);
    EXPECT_LT(frozen5, frozen3);
    // Forward still runs everywhere, so even full freezing costs
    // at least the forward pass.
    EXPECT_GT(frozen5, net.total_ops() * 1000 * 0.99);
}

TEST(CostModel, TrainCostConsistent)
{
    TrainingCostModel cost(titan_x_spec());
    const TrainingCost c = cost.train_cost(tiny_desc(), 1000, 2, 0);
    EXPECT_GT(c.seconds, 0.0);
    EXPECT_DOUBLE_EQ(c.energy_j,
                     c.seconds * titan_x_spec().power_watts);
    EXPECT_DOUBLE_EQ(
        c.ops, cost.epoch_ops(tiny_desc(), 1000, 0) * 2.0);
}

TEST(CostModel, DiagnosisCostIsForwardOnly)
{
    TrainingCostModel cost(titan_x_spec());
    Rng rng(0);
    const NetworkDesc diag =
        describe(make_tiny_trunk(TinyConfig{}, rng), {3, 8, 8});
    const TrainingCost d = cost.diagnosis_cost(diag, 1000);
    const TrainingCost t = cost.train_cost(diag, 1000, 1, 0);
    EXPECT_LT(d.ops, t.ops); // training adds backward work
}

TEST(UpdateService, PretrainImprovesPretextAccuracy)
{
    TinyConfig config;
    config.num_permutations = 8;
    ModelUpdateService service(config, titan_x_spec(), 11);
    Rng rng(12);
    SynthConfig synth;
    const Dataset raw =
        make_dataset(synth, 96, Condition::ideal(), rng);
    auto pretext_accuracy = [&] {
        Rng eval_rng(42);
        return service.jigsaw().evaluate(raw.images,
                                         service.permutations(), eval_rng);
    };
    const double before = pretext_accuracy();
    service.pretrain(raw.images, 4);
    const double after = pretext_accuracy();
    EXPECT_GT(after, before + 0.1);
    EXPECT_GT(after, 1.5 / 8.0); // clearly better than chance
}

TEST(UpdateService, TransferCopiesTrunkConvs)
{
    TinyConfig config;
    ModelUpdateService service(config, titan_x_spec(), 13);
    service.transfer_from_pretext(3);
    const auto ti = service.jigsaw().trunk().conv_layer_indices();
    const auto ii = service.inference().conv_layer_indices();
    const auto tp = service.jigsaw().trunk().layer(ti[0]).params();
    const auto ip = service.inference().layer(ii[0]).params();
    for (int64_t i = 0; i < tp[0]->numel(); ++i)
        EXPECT_EQ(tp[0]->value().at(i), ip[0]->value().at(i));
    // Copied, not shared.
    EXPECT_NE(tp[0].get(), ip[0].get());
}

TEST(UpdateService, UpdateLearnsAndAccounts)
{
    TinyConfig config;
    ModelUpdateService service(config, titan_x_spec(), 17);
    Rng rng(18);
    SynthConfig synth;
    const Dataset data =
        make_dataset(synth, 300, Condition::ideal(), rng);
    UpdatePolicy policy;
    policy.epochs = 4;
    policy.lr = 0.02;
    const UpdateReport report = service.update(data, policy);
    EXPECT_EQ(report.images, 300);
    EXPECT_EQ(service.images_received(), 300);
    EXPECT_GT(service.evaluate(data), 0.5);
}

TEST(UpdateService, FrozenUpdateKeepsPrefixIntact)
{
    TinyConfig config;
    ModelUpdateService service(config, titan_x_spec(), 19);
    Rng rng(20);
    SynthConfig synth;
    const Dataset data =
        make_dataset(synth, 64, Condition::ideal(), rng);

    const auto ii = service.inference().conv_layer_indices();
    const Tensor conv1_before =
        service.inference().layer(ii[0]).params()[0]->value();
    const Tensor conv5_before =
        service.inference().layer(ii[4]).params()[0]->value();

    UpdatePolicy policy;
    policy.frozen_convs = 3;
    policy.epochs = 1;
    service.update(data, policy);

    const Tensor conv1_after =
        service.inference().layer(ii[0]).params()[0]->value();
    const Tensor conv5_after =
        service.inference().layer(ii[4]).params()[0]->value();
    const Tensor d1 = conv1_after - conv1_before;
    const Tensor d5 = conv5_after - conv5_before;
    EXPECT_DOUBLE_EQ(d1.squared_norm(), 0.0);
    EXPECT_GT(d5.squared_norm(), 0.0);
    // The freeze is transient: params are unfrozen after the job.
    EXPECT_EQ(service.inference().trainable_param_count(),
              service.inference().param_count());
}

TEST(UpdateService, PrefixReuseMatchesFullForwardValidatedUpdate)
{
    // validated_update runs its frozen conv prefix once per update (over
    // the upload and over the holdout). The reference below runs the
    // same job with full forwards: every training batch and both
    // holdout evaluations go through every layer. It mirrors the
    // service's construction from the seed, and the one rng split each
    // update draws. Between rounds the prefix changes
    // (transfer_from_pretext), so activations kept from an earlier
    // update would be stale.
    const TinyConfig config;
    constexpr uint64_t kSeed = 31;
    ModelUpdateService service(config, titan_x_spec(), kSeed);
    Rng mirror(kSeed);
    const PermutationSet perms(config.num_permutations, mirror);
    JigsawNetwork jigsaw = make_tiny_jigsaw(config, mirror);
    Network ref = make_tiny_inference(config, mirror);
    Rng spare(1);
    Network backup = make_tiny_inference(config, spare);
    ASSERT_EQ(weights_of(ref), weights_of(service.inference()));

    Rng rng(32);
    const SynthConfig synth;
    const Dataset holdout =
        make_dataset(synth, 80, Condition::in_situ(0.4), rng);
    UpdatePolicy policy;
    policy.frozen_convs = 3;
    policy.epochs = 2;
    for (int round = 0; round < 3; ++round) {
        const Dataset data =
            make_dataset(synth, 40, Condition::in_situ(0.3), rng);
        const ValidatedUpdateReport got =
            service.validated_update(data, policy, holdout);

        const double before =
            evaluate_accuracy(ref, holdout.images, holdout.labels);
        copy_parameters(backup, ref);
        ref.freeze_first_convs(policy.frozen_convs);
        Sgd opt({.lr = policy.lr, .momentum = 0.9});
        Rng epoch_rng = mirror.split();
        const auto stats = train_epochs(ref, opt, data.images,
                                        data.labels, 32, policy.epochs,
                                        epoch_rng);
        ref.unfreeze_all();
        const double trained =
            evaluate_accuracy(ref, holdout.images, holdout.labels);
        const bool rolled_back = trained + 0.02 < before;
        if (rolled_back) copy_parameters(ref, backup);

        EXPECT_EQ(got.holdout_before, before) << "round " << round;
        EXPECT_EQ(got.holdout_trained, trained) << "round " << round;
        EXPECT_EQ(got.rolled_back, rolled_back) << "round " << round;
        EXPECT_EQ(got.update.mean_loss, stats.back().mean_loss)
            << "round " << round;
        EXPECT_TRUE(weights_of(service.inference()) == weights_of(ref))
            << "round " << round;

        // A new prefix for the next round: the pretext trunk's convs.
        const size_t convs = static_cast<size_t>(round) + 1;
        service.transfer_from_pretext(convs);
        ref.copy_convs_from(jigsaw.trunk(), convs);
    }
}

} // namespace
} // namespace insitu
