/**
 * @file
 * Discrete-time uplink queue for the node -> cloud path.
 *
 * The diagnosis task is deferrable (§III-C2): flagged images queue up
 * and drain when the radio window allows. This simulator tracks the
 * backlog, per-image queueing delay and radio energy of a
 * bandwidth-limited, duty-cycled uplink, so system studies can answer
 * "how stale is the training data when it reaches the cloud?".
 *
 * The uplink is resilient, not merely lossy: the receiver NACKs
 * corrupted payloads, and lost, flapped or corrupted transmissions
 * (from an attached FaultInjector) retransmit with exponential
 * backoff. The only way a payload dies is the bounded backlog's
 * drop-oldest eviction — and that is counted in UplinkStats.
 *
 * An optional CircuitBreaker (attached by the fleet supervisor, see
 * iot/supervisor.h) additionally gates every transmission attempt:
 * after repeated failures it opens and the radio fast-fails — burning
 * no energy — until a cooldown expires and a half-open probe
 * re-admits traffic. Breaker state and transitions are mirrored into
 * UplinkStats.
 */
#pragma once

#include <cstdint>
#include <deque>

#include "hw/spec.h"

namespace insitu {

class CircuitBreaker;
class FaultInjector;

/** Reliability/bounding knobs of one uplink. */
struct UplinkConfig {
    /// Hard backlog cap; enqueueing beyond it evicts the *oldest*
    /// payload (freshest-data-wins, matching the paper's preference
    /// for current-environment samples).
    int64_t max_backlog_images = 4096;
    /// Wait before the first retransmit of a failed payload.
    double backoff_base_s = 0.5;
    /// Ceiling of the exponential backoff.
    double backoff_max_s = 30.0;
};

/** Aggregate statistics of a simulated uplink. */
struct UplinkStats {
    int64_t enqueued = 0;       ///< images handed to the radio
    int64_t delivered = 0;      ///< images fully transmitted
    double bytes_sent = 0;      ///< payload delivered (goodput)
    double energy_j = 0;        ///< radio energy spent (all attempts)
    double max_backlog = 0;     ///< peak queued bytes
    double total_delay_s = 0;   ///< summed queueing+transmit delay
    int64_t dropped = 0;        ///< evicted by the bounded backlog
    int64_t corrupted = 0;      ///< corrupted arrivals NACKed
    int64_t lost_in_flight = 0; ///< transmissions that got no ack
                                ///< (vanished or eaten by a flap)
    int64_t retransmits = 0;    ///< extra attempts after a failure

    // Circuit-breaker mirror (zero without an attached breaker):
    int64_t breaker_opens = 0;   ///< closed/half-open -> open
    int64_t breaker_closes = 0;  ///< half-open -> closed
    int64_t breaker_probes = 0;  ///< half-open attempts
    double breaker_open_wait_s = 0; ///< window time fast-failed while
                                    ///< open (no energy burnt)
    int breaker_state = 0;       ///< BreakerState after the last drain
                                 ///< (0 closed, 1 open, 2 half-open)

    /** Mean seconds an image waited from enqueue to delivery. */
    double
    mean_delay_s() const
    {
        return delivered ? total_delay_s /
                               static_cast<double>(delivered)
                         : 0.0;
    }
};

/**
 * A FIFO uplink with finite bandwidth, optional duty cycling
 * (e.g. transmit only during the night window), a bounded backlog
 * and NACK-driven retransmission.
 */
class UplinkQueue {
  public:
    /**
     * @param link radio characteristics.
     * @param bytes_per_payload size of one queued image.
     * @param config reliability/bounding knobs.
     */
    UplinkQueue(LinkSpec link, double bytes_per_payload,
                UplinkConfig config = {});

    /**
     * Attach (or detach, with nullptr) a fault injector. Not owned;
     * must outlive the queue. Without one the link is perfect and
     * only the backlog bound applies.
     */
    void set_fault_injector(FaultInjector* injector)
    {
        injector_ = injector;
    }

    /**
     * Attach (or detach, with nullptr) a circuit breaker. Not owned;
     * must outlive the queue. Without one every attempt is admitted
     * (the pre-supervision behavior).
     */
    void set_breaker(CircuitBreaker* breaker) { breaker_ = breaker; }

    /**
     * Queue @p images at simulation time @p now_s.
     * @return payloads evicted (oldest first) to respect the bound.
     */
    int64_t enqueue(int64_t images, double now_s);

    /**
     * Let the radio transmit during the window
     * [@p from_s, @p to_s). Returns images delivered in the window.
     * Failed attempts (loss, corruption) retransmit after an
     * exponential backoff; payloads that do not fit the window stay
     * queued for the next one.
     */
    int64_t drain_window(double from_s, double to_s);

    /** Drop every queued payload (e.g. the node lost power). */
    int64_t clear();

    /** Images still waiting. */
    int64_t backlog() const
    {
        return static_cast<int64_t>(pending_.size());
    }

    /** Bytes still waiting. */
    double backlog_bytes() const;

    const UplinkStats& stats() const { return stats_; }
    const UplinkConfig& config() const { return config_; }

  private:
    LinkSpec link_;
    double payload_bytes_;
    UplinkConfig config_;
    std::deque<double> pending_; ///< enqueue times of queued images, FIFO
    UplinkStats stats_;
    FaultInjector* injector_ = nullptr; ///< not owned
    CircuitBreaker* breaker_ = nullptr; ///< not owned
};

} // namespace insitu
