/**
 * @file
 * The measured-vs-modeled bridge: turn a run's batch ledger into the
 * BatchObservations that fit_calibration consumes (perf4sight-style:
 * a performance model fitted to on-device measurements).
 *
 * Each batch size's pure execution times are summed as integer
 * nanosecond quanta, exactly as an obs::Histogram sums them, so a
 * fit is a pure function of the scenario and independent of the
 * order batches are folded in.
 */
#pragma once

#include <vector>

#include "hw/gpu_model.h"
#include "serving/request.h"

namespace insitu::serving {

/**
 * One (batch, count, mean pure_exec_s) point per batch size over the
 * healthy batches of @p batches, ascending by batch size; sizes with
 * no healthy batch are skipped.
 */
std::vector<BatchObservation> calibration_points(
    const std::vector<BatchRecord>& batches);

} // namespace insitu::serving
