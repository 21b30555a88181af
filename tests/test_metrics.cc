/**
 * @file
 * Unit tests for the binary detector scores and the
 * diagnosis-vs-errors scoring hook.
 */
#include <gtest/gtest.h>

#include "iot/tasks.h"
#include "models/tiny.h"
#include "nn/metrics.h"
#include "util/rng.h"

namespace insitu {
namespace {

TEST(BinaryMetrics, ScoreBasics)
{
    const std::vector<bool> flags{true, true, false, false, true};
    const std::vector<bool> truth{true, false, false, true, true};
    const BinaryMetrics m = BinaryMetrics::score(flags, truth);
    EXPECT_EQ(m.true_positive, 2);
    EXPECT_EQ(m.false_positive, 1);
    EXPECT_EQ(m.false_negative, 1);
    EXPECT_EQ(m.true_negative, 1);
    EXPECT_DOUBLE_EQ(m.precision(), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(m.recall(), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(m.positive_rate(), 3.0 / 5.0);
    EXPECT_NEAR(m.f1(), 2.0 / 3.0, 1e-12);
}

TEST(BinaryMetrics, EdgeConventions)
{
    BinaryMetrics nothing_flagged;
    nothing_flagged.true_negative = 4;
    EXPECT_DOUBLE_EQ(nothing_flagged.precision(), 1.0);
    EXPECT_DOUBLE_EQ(nothing_flagged.recall(), 1.0);
}

TEST(DiagnosisScoring, PerfectDetectorScoresPerfectly)
{
    // Construct a scenario where diagnosis flags exactly the
    // inference errors by scoring flags against themselves through
    // the BinaryMetrics contract.
    const std::vector<bool> errors{true, false, true};
    const BinaryMetrics m = BinaryMetrics::score(errors, errors);
    EXPECT_DOUBLE_EQ(m.precision(), 1.0);
    EXPECT_DOUBLE_EQ(m.recall(), 1.0);
    EXPECT_DOUBLE_EQ(m.f1(), 1.0);
}

TEST(DiagnosisScoring, ScoreAgainstErrorsRunsEndToEnd)
{
    Rng rng(3);
    TinyConfig config;
    config.num_permutations = 8;
    PermutationSet perms(config.num_permutations, rng);
    InferenceTask inference(make_tiny_inference(config, rng));
    DiagnosisTask diagnosis(make_tiny_jigsaw(config, rng), perms,
                            DiagnosisConfig{}, 4);
    SynthConfig synth;
    const Dataset data = make_dataset(synth, 30, Condition::ideal(), rng);
    const BinaryMetrics m =
        diagnosis.score_against_errors(inference, data);
    EXPECT_EQ(m.true_positive + m.false_positive + m.true_negative +
                  m.false_negative,
              30);
    // An untrained diagnosis flags nearly everything, so recall of
    // the (untrained) inference errors must be high.
    EXPECT_GT(m.recall(), 0.8);
}

} // namespace
} // namespace insitu
