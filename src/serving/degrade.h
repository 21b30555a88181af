/**
 * @file
 * Gray-failure detection for the serving device (docs/serving.md,
 * "Device gray failures and the degradation ladder").
 *
 * A gray failure is a device that still answers but has quietly
 * stopped matching its model: thermal throttling, transient stalls,
 * jitter storms. None of them return an error — the only symptom is
 * that measured batch times diverge from the calibrated prediction.
 * The detector watches exactly that signal: an EWMA of per-batch
 * absolute calibration residuals (GpuModel::residual), compared
 * against hysteresis thresholds, drives a four-state health machine
 *
 *     healthy -> suspect -> degraded -> probation -> healthy
 *
 * mirroring the uplink supervisor's CircuitBreaker (iot/supervisor.h)
 * but living on the serving event loop. Each state maps to a rung of
 * the degradation ladder the runtime applies at batch boundaries:
 *
 *     rung 0  healthy    nothing
 *     rung 1  suspect    inflate the planner's safety margin
 *     rung 2  degraded   + shed best-effort classes at admission
 *     rung 3  escalated  + skip diagnosis co-run windows
 *     rung 4  escalated  + force drain mode
 *
 * Escalation within `degraded` happens after every `escalate_after`
 * consecutive high-residual batches; probation demands
 * `probation_batches` consecutive clean batches and then forces a
 * recalibration before the device is declared healthy again. Every
 * decision is a pure function of the observed residual sequence, so
 * a run's health trajectory replays byte-identically.
 */
#pragma once

#include <cstdint>

namespace insitu::serving {

/** Health of the serving device as inferred from residuals. */
enum class DeviceHealth {
    kHealthy,  ///< residual EWMA inside the calibrated envelope
    kSuspect,  ///< EWMA above suspect_enter: hedge, don't shed yet
    kDegraded, ///< EWMA above degraded_enter: shed + escalate
    kProbation ///< EWMA fell back; counting clean batches to recover
};

/** Printable name of a health state. */
const char* device_health_name(DeviceHealth state);

/** Thresholds and pacing of the gray-failure detector. */
struct DetectorConfig {
    /// EWMA smoothing factor for per-batch |residual|.
    double alpha = 0.25;
    /// healthy -> suspect when the EWMA exceeds this...
    double suspect_enter = 0.12;
    /// ...and suspect -> healthy only below this (hysteresis).
    double suspect_exit = 0.06;
    /// suspect -> degraded when the EWMA exceeds this...
    double degraded_enter = 0.30;
    /// ...and degraded -> probation only below this.
    double degraded_exit = 0.10;
    /// Consecutive high-EWMA batches per escalation rung while
    /// degraded (rung 2 -> 3 -> 4).
    int64_t escalate_after = 12;
    /// Consecutive clean batches probation demands before recovery.
    int64_t probation_batches = 8;
};

/// Top rung of the ladder (force drain).
inline constexpr int kMaxRung = 4;

/**
 * The residual-EWMA health state machine. Fed one absolute relative
 * residual per completed batch (only once calibration has produced a
 * fit — raw analytical-model residuals would be all noise); returns
 * what, if anything, changed.
 */
class GrayFailureDetector {
  public:
    /** What one observation did to the machine. */
    struct Verdict {
        bool changed = false; ///< state or rung moved this batch
        DeviceHealth state = DeviceHealth::kHealthy;
        int rung = 0;
        /// Probation completed: re-run calibration before trusting
        /// the device (the runtime forces a fit at this boundary).
        bool calibrate = false;
    };

    explicit GrayFailureDetector(DetectorConfig config)
        : cfg_(config)
    {}

    /** Feed one completed batch's |relative residual|. */
    Verdict observe(double abs_residual);

    DeviceHealth state() const { return state_; }
    int rung() const { return rung_; }
    double ewma() const { return ewma_; }
    int64_t observations() const { return observations_; }

  private:
    DetectorConfig cfg_;
    DeviceHealth state_ = DeviceHealth::kHealthy;
    int rung_ = 0;
    double ewma_ = 0.0;
    int64_t observations_ = 0;
    int64_t high_streak_ = 0;    ///< consecutive high-EWMA batches
    int64_t probation_left_ = 0; ///< clean batches still required
};

} // namespace insitu::serving
