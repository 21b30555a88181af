#include "serving/calibrate.h"

#include <cmath>
#include <map>

namespace insitu::serving {

std::vector<BatchObservation>
calibration_points(const std::vector<BatchRecord>& batches)
{
    constexpr double kQuantum = 1e-9;
    struct Tally {
        int64_t count = 0;
        int64_t quanta = 0;
    };
    std::map<int64_t, Tally> by_size;
    for (const BatchRecord& b : batches) {
        if (!b.healthy) continue;
        Tally& t = by_size[b.size];
        ++t.count;
        t.quanta += std::llround(b.pure_exec_s / kQuantum);
    }
    std::vector<BatchObservation> out;
    for (const auto& [size, t] : by_size) {
        BatchObservation o;
        o.batch = size;
        o.count = t.count;
        o.mean_seconds = static_cast<double>(t.quanta) * kQuantum /
                         static_cast<double>(t.count);
        out.push_back(o);
    }
    return out;
}

} // namespace insitu::serving
