#include "nn/metrics.h"

#include "util/logging.h"

namespace insitu {

double
BinaryMetrics::precision() const
{
    const int64_t flagged = true_positive + false_positive;
    if (flagged == 0) return 1.0;
    return static_cast<double>(true_positive) /
           static_cast<double>(flagged);
}

double
BinaryMetrics::recall() const
{
    const int64_t actual = true_positive + false_negative;
    if (actual == 0) return 1.0;
    return static_cast<double>(true_positive) /
           static_cast<double>(actual);
}

double
BinaryMetrics::f1() const
{
    const double p = precision(), r = recall();
    if (p + r == 0.0) return 0.0;
    return 2.0 * p * r / (p + r);
}

double
BinaryMetrics::positive_rate() const
{
    const int64_t total = true_positive + false_positive +
                          true_negative + false_negative;
    if (total == 0) return 0.0;
    return static_cast<double>(true_positive + false_positive) /
           static_cast<double>(total);
}

BinaryMetrics
BinaryMetrics::score(const std::vector<bool>& flags,
                     const std::vector<bool>& truth)
{
    INSITU_CHECK(flags.size() == truth.size(),
                 "flag/truth size mismatch");
    BinaryMetrics m;
    for (size_t i = 0; i < flags.size(); ++i) {
        if (flags[i] && truth[i]) ++m.true_positive;
        else if (flags[i] && !truth[i]) ++m.false_positive;
        else if (!flags[i] && truth[i]) ++m.false_negative;
        else ++m.true_negative;
    }
    return m;
}

} // namespace insitu
