/**
 * @file
 * Classification quality metrics beyond top-1 accuracy.
 *
 * The diagnosis ablations need precision/recall-style analysis: did
 * the diagnosis flag the images the inference task actually gets
 * wrong?
 */
#pragma once

#include <cstdint>
#include <vector>

namespace insitu {

/** Binary detector quality (used for the diagnosis task). */
struct BinaryMetrics {
    int64_t true_positive = 0;
    int64_t false_positive = 0;
    int64_t true_negative = 0;
    int64_t false_negative = 0;

    /** TP / (TP + FP); 1 when nothing was flagged. */
    double precision() const;
    /** TP / (TP + FN); 1 when there was nothing to catch. */
    double recall() const;
    /** Harmonic mean of precision and recall. */
    double f1() const;
    /** Fraction of all samples flagged positive. */
    double positive_rate() const;

    /**
     * Score @p flags (detector output) against @p truth (what should
     * have been flagged).
     */
    static BinaryMetrics score(const std::vector<bool>& flags,
                               const std::vector<bool>& truth);
};

} // namespace insitu
