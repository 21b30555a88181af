/**
 * @file
 * Staged IoT data stream.
 *
 * Models the paper's evaluation setting (§V-B): data is acquired
 * incrementally at the node in stages (100k, +100k, +200k, ...), and
 * the acquisition conditions drift over time (day/night cycles,
 * seasons). Each stage yields a freshly rendered Dataset.
 */
#pragma once

#include <vector>

#include "data/synth.h"
#include "util/rng.h"

namespace insitu {

/** One stage of the stream: how many samples under which conditions. */
struct StreamStage {
    int64_t count = 0;
    Condition condition;
};

/** A deterministic staged stream of synthetic IoT data. */
class IotStream {
  public:
    /**
     * @param config renderer configuration shared by all stages.
     * @param stages stage schedule, consumed in order.
     * @param seed stream-level seed; identical seeds replay the exact
     *        same images.
     */
    IotStream(SynthConfig config, std::vector<StreamStage> stages,
              uint64_t seed);

    /** True when every stage has been consumed. */
    bool exhausted() const { return next_ == stages_.size(); }

    /** Render and return the next stage's data. */
    Dataset next_stage();

  private:
    SynthConfig config_;
    std::vector<StreamStage> stages_;
    Rng rng_;
    size_t next_ = 0;
};

/**
 * The paper's incremental schedule scaled by @p scale: an initial
 * 100k-equivalent stage plus growth to 200k, 400k, 800k, 1200k
 * cumulative, under progressively harsher in-situ conditions.
 * With scale = 1/1000, "100k" becomes 100 images.
 */
std::vector<StreamStage> paper_incremental_schedule(double scale);

} // namespace insitu
