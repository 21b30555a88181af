#include "data/stream.h"

#include "util/logging.h"

namespace insitu {

IotStream::IotStream(SynthConfig config, std::vector<StreamStage> stages,
                     uint64_t seed)
    : config_(config), stages_(std::move(stages)), rng_(seed)
{
    INSITU_CHECK(!stages_.empty(), "stream needs at least one stage");
    for (const auto& s : stages_)
        INSITU_CHECK(s.count >= 0, "negative stage count");
}

Dataset
IotStream::next_stage()
{
    INSITU_CHECK(!exhausted(), "stream exhausted");
    const StreamStage& s = stages_[next_++];
    return make_dataset(config_, s.count, s.condition, rng_);
}

std::vector<StreamStage>
paper_incremental_schedule(double scale)
{
    INSITU_CHECK(scale > 0.0, "scale must be positive");
    auto n = [scale](double thousands) {
        return std::max<int64_t>(
            1, static_cast<int64_t>(thousands * 1000.0 * scale));
    };
    // Cumulative counts 100k, 200k, 400k, 800k, 1200k -> stage deltas
    // 100k, 100k, 200k, 400k, 400k. Conditions drift gradually
    // harsher over time, so the model must keep adapting while the
    // accumulated training lets it recognize more of the stream.
    return {
        {n(100), Condition::in_situ(0.30)},
        {n(100), Condition::in_situ(0.35)},
        {n(200), Condition::in_situ(0.40)},
        {n(400), Condition::in_situ(0.45)},
        {n(400), Condition::in_situ(0.50)},
    };
}

} // namespace insitu
