/**
 * @file
 * Unit tests for the synthetic data generator: conditions, rendering,
 * datasets and the staged IoT stream — including the key property
 * that in-situ conditions actually shift the distribution.
 */
#include <gtest/gtest.h>

#include "data/condition.h"
#include "data/stream.h"
#include "data/synth.h"
#include "util/rng.h"

namespace insitu {
namespace {

TEST(Condition, InSituSeverityMonotone)
{
    const Condition mild = Condition::in_situ(0.2);
    const Condition harsh = Condition::in_situ(0.8);
    EXPECT_GT(mild.brightness, harsh.brightness);
    EXPECT_LT(mild.noise_std, harsh.noise_std);
    EXPECT_LT(mild.occlusion_prob, harsh.occlusion_prob);
}

TEST(Condition, SeverityClamped)
{
    const Condition below = Condition::in_situ(-1.0);
    const Condition ideal = Condition::in_situ(0.0);
    EXPECT_EQ(below.brightness, ideal.brightness);
    const Condition above = Condition::in_situ(2.0);
    const Condition max = Condition::in_situ(1.0);
    EXPECT_EQ(above.noise_std, max.noise_std);
}

TEST(Render, ShapeAndRange)
{
    Rng rng(1);
    SynthConfig config;
    const Tensor img =
        render_image(config, 0, Condition::ideal(), rng);
    EXPECT_EQ(img.shape(), (std::vector<int64_t>{3, 24, 24}));
    EXPECT_GE(img.min(), 0.0f);
    EXPECT_LE(img.max(), 1.0f);
}

TEST(Render, AllClassesRender)
{
    Rng rng(2);
    SynthConfig config;
    for (int cls = 0; cls < config.num_classes; ++cls) {
        const Tensor img =
            render_image(config, cls, Condition::ideal(), rng);
        // A subject must be visible: the image is not constant.
        EXPECT_GT(img.max() - img.min(), 0.1f) << class_name(cls);
    }
}

TEST(Render, ClassesAreVisuallyDistinct)
{
    // Mean per-class images (averaging out pose/color jitter) must
    // differ pairwise; otherwise the classification task is ill-posed.
    Rng rng(3);
    SynthConfig config;
    const int64_t per_class = 20;
    std::vector<Tensor> means;
    for (int cls = 0; cls < config.num_classes; ++cls) {
        Tensor acc({3, 24, 24});
        for (int64_t i = 0; i < per_class; ++i)
            acc += render_image(config, cls, Condition::ideal(), rng);
        acc *= 1.0f / static_cast<float>(per_class);
        means.push_back(acc);
    }
    for (size_t a = 0; a < means.size(); ++a) {
        for (size_t b = a + 1; b < means.size(); ++b) {
            const Tensor diff = means[a] - means[b];
            EXPECT_GT(diff.squared_norm(), 1.0)
                << class_name(static_cast<int>(a)) << " vs "
                << class_name(static_cast<int>(b));
        }
    }
}

TEST(Render, NightImagesAreDarker)
{
    Rng rng(4);
    SynthConfig config;
    double ideal_mean = 0.0, night_mean = 0.0;
    for (int i = 0; i < 30; ++i) {
        ideal_mean +=
            render_image(config, i % 10, Condition::ideal(), rng)
                .mean();
        night_mean +=
            render_image(config, i % 10, Condition::night(), rng)
                .mean();
    }
    EXPECT_LT(night_mean, ideal_mean * 0.7);
}

TEST(Render, InSituImagesAreNoisier)
{
    // High-frequency energy (adjacent-pixel differences) grows with
    // the condition's sensor noise.
    Rng rng(5);
    SynthConfig config;
    auto hf_energy = [&](const Condition& cond) {
        double acc = 0.0;
        for (int i = 0; i < 20; ++i) {
            const Tensor img = render_image(config, i % 10, cond, rng);
            for (int64_t p = 1; p < img.numel(); ++p) {
                const double d = img.at(p) - img.at(p - 1);
                acc += d * d;
            }
        }
        return acc;
    };
    // Isolate the noise axis: same photometry, different sensor
    // noise.
    Condition quiet = Condition::ideal();
    quiet.noise_std = 0.0;
    Condition noisy = Condition::ideal();
    noisy.noise_std = 0.15;
    EXPECT_GT(hf_energy(noisy), 2.0 * hf_energy(quiet));
}

TEST(Render, DeterministicGivenSeed)
{
    SynthConfig config;
    Rng a(42), b(42);
    const Tensor x = render_image(config, 3, Condition::ideal(), a);
    const Tensor y = render_image(config, 3, Condition::ideal(), b);
    for (int64_t i = 0; i < x.numel(); ++i)
        EXPECT_EQ(x.at(i), y.at(i));
}

TEST(Dataset, BalancedLabels)
{
    Rng rng(6);
    SynthConfig config;
    const Dataset d =
        make_dataset(config, 500, Condition::ideal(), rng);
    EXPECT_EQ(d.size(), 500);
    std::vector<int> counts(10, 0);
    for (int64_t lbl : d.labels)
        ++counts[static_cast<size_t>(lbl)];
    for (int c : counts) {
        EXPECT_GT(c, 20);
        EXPECT_LT(c, 100);
    }
}

TEST(Dataset, ConcatAndSlice)
{
    Rng rng(7);
    SynthConfig config;
    const Dataset a = make_dataset(config, 10, Condition::ideal(), rng);
    const Dataset b = make_dataset(config, 5, Condition::night(), rng);
    const Dataset both = concat_datasets({&a, &b});
    EXPECT_EQ(both.size(), 15);
    EXPECT_EQ(both.labels[12], b.labels[2]);
    const Dataset tail = dataset_slice(both, 10, 15);
    EXPECT_EQ(tail.size(), 5);
    EXPECT_EQ(tail.labels[0], b.labels[0]);
    for (int64_t i = 0; i < tail.images.numel(); ++i)
        EXPECT_EQ(tail.images.at(i), b.images.at(i));
}

TEST(Stream, StagesYieldScheduledCounts)
{
    SynthConfig config;
    std::vector<StreamStage> stages = {
        {10, Condition::ideal()},
        {20, Condition::night()},
    };
    IotStream stream(config, stages, 99);
    const Dataset first = stream.next_stage();
    EXPECT_EQ(first.size(), 10);
    EXPECT_EQ(first.condition.name, "ideal");
    const Dataset second = stream.next_stage();
    EXPECT_EQ(second.size(), 20);
    EXPECT_EQ(second.condition.name, "night");
    EXPECT_TRUE(stream.exhausted());
    EXPECT_DEATH(stream.next_stage(), "exhausted");
}

TEST(Stream, SameSeedReplaysIdentically)
{
    SynthConfig config;
    IotStream first(config, {{5, Condition::in_situ(0.5)}}, 123);
    IotStream second(config, {{5, Condition::in_situ(0.5)}}, 123);
    const Dataset a = first.next_stage();
    const Dataset b = second.next_stage();
    EXPECT_EQ(a.labels, b.labels);
    for (int64_t i = 0; i < a.images.numel(); ++i)
        EXPECT_EQ(a.images.at(i), b.images.at(i));
}

TEST(Stream, PaperScheduleCumulativeCounts)
{
    const auto stages = paper_incremental_schedule(0.01);
    ASSERT_EQ(stages.size(), 5u);
    EXPECT_EQ(stages[0].count, 1000);
    EXPECT_EQ(stages[1].count, 1000);
    EXPECT_EQ(stages[2].count, 2000);
    EXPECT_EQ(stages[3].count, 4000);
    EXPECT_EQ(stages[4].count, 4000);
    // Conditions get harsher stage over stage.
    for (size_t i = 1; i < stages.size(); ++i)
        EXPECT_LT(stages[i].condition.brightness,
                  stages[i - 1].condition.brightness);
}

TEST(ClassName, KnownNames)
{
    EXPECT_EQ(class_name(0), "circle");
    EXPECT_EQ(class_name(9), "cross");
    EXPECT_DEATH(class_name(10), "out of range");
}

} // namespace
} // namespace insitu
