#include "iot/uplink.h"

#include <algorithm>

#include "faults/fault_injector.h"
#include "iot/supervisor.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace insitu {

namespace {

/// Fleet-wide uplink metrics (every queue instance feeds the same
/// registry entries). Counters are parallel-safe — enqueue() runs
/// inside the node-stepping phase; the drain-side doubles go into
/// gauges because drains are folded serially in node-ascending order
/// (deterministic FP accumulation).
struct UplinkMetrics {
    obs::Counter& enqueued;
    obs::Counter& evicted;
    obs::Counter& delivered;
    obs::Counter& retransmits;
    obs::Counter& corrupted;
    obs::Counter& lost_in_flight;
    obs::Gauge& bytes_sent;
    obs::Gauge& energy_j;
    obs::Histogram& backoff_wait_s;

    static UplinkMetrics&
    get()
    {
        auto& r = obs::MetricsRegistry::global();
        static UplinkMetrics m{
            r.counter("iot.uplink.enqueued"),
            r.counter("iot.uplink.evicted"),
            r.counter("iot.uplink.delivered"),
            r.counter("iot.uplink.retransmits"),
            r.counter("iot.uplink.corrupted"),
            r.counter("iot.uplink.lost_in_flight"),
            r.gauge("iot.uplink.bytes_sent"),
            r.gauge("iot.uplink.energy_j"),
            r.histogram("iot.uplink.backoff_wait_s")};
        return m;
    }
};

} // namespace

UplinkQueue::UplinkQueue(LinkSpec link, double bytes_per_payload,
                         UplinkConfig config)
    : link_(std::move(link)), payload_bytes_(bytes_per_payload),
      config_(config)
{
    INSITU_CHECK(payload_bytes_ > 0, "payload must be positive");
    INSITU_CHECK(link_.bandwidth_bps > 0, "link needs bandwidth");
    INSITU_CHECK(config_.max_backlog_images > 0,
                 "backlog bound must be positive");
    INSITU_CHECK(config_.backoff_base_s > 0 &&
                     config_.backoff_max_s >= config_.backoff_base_s,
                 "backoff must be positive and ordered");
}

int64_t
UplinkQueue::enqueue(int64_t images, double now_s)
{
    INSITU_CHECK(images >= 0, "negative enqueue");
    int64_t evicted = 0;
    for (int64_t i = 0; i < images; ++i) {
        if (static_cast<int64_t>(pending_.size()) >=
            config_.max_backlog_images) {
            pending_.pop_front(); // drop-oldest: fresh data wins
            ++evicted;
        }
        pending_.push_back(now_s);
    }
    stats_.enqueued += images;
    stats_.dropped += evicted;
    UplinkMetrics::get().enqueued.add(images);
    UplinkMetrics::get().evicted.add(evicted);
    stats_.max_backlog =
        std::max(stats_.max_backlog, backlog_bytes());
    return evicted;
}

double
UplinkQueue::backlog_bytes() const
{
    return static_cast<double>(pending_.size()) * payload_bytes_;
}

int64_t
UplinkQueue::clear()
{
    const int64_t n = backlog();
    pending_.clear();
    return n;
}

int64_t
UplinkQueue::drain_window(double from_s, double to_s)
{
    INSITU_CHECK(to_s >= from_s, "window must be ordered");
    const double per_payload_s =
        payload_bytes_ * 8.0 / link_.bandwidth_bps;
    UplinkMetrics& om = UplinkMetrics::get();
    double clock = from_s;
    double backoff = config_.backoff_base_s;
    int64_t delivered = 0;
    while (!pending_.empty()) {
        // An open breaker fast-fails: no attempt, no energy, until
        // its cooldown admits a half-open probe.
        if (breaker_ && !breaker_->allow_attempt(clock)) {
            const double resume = breaker_->retry_at();
            if (resume + per_payload_s > to_s) {
                stats_.breaker_open_wait_s += to_s - clock;
                break;
            }
            stats_.breaker_open_wait_s += resume - clock;
            clock = resume;
            continue;
        }
        if (clock + per_payload_s > to_s) break;

        const double attempt_s = clock; // transmission start
        clock += per_payload_s;
        stats_.energy_j += link_.transfer_energy(payload_bytes_);
        om.energy_j.add(link_.transfer_energy(payload_bytes_));

        // Transmission attempt: a flapping burst may eat it, the
        // payload may vanish (no ack) or arrive bit-flipped, which the
        // receiver NACKs. A flap is a pure function of the clock and
        // consumes no injector draw, so plans without flapping
        // windows replay exactly as before.
        bool acked = true;
        if (injector_ && (injector_->transmission_flapped(attempt_s) ||
                          injector_->drop_payload())) {
            acked = false;
            ++stats_.lost_in_flight;
            om.lost_in_flight.add(1);
        } else if (injector_ && injector_->corrupt_payload()) {
            acked = false;
            ++stats_.corrupted;
            om.corrupted.add(1);
        }

        if (acked) {
            stats_.total_delay_s += clock - pending_.front();
            stats_.bytes_sent += payload_bytes_;
            om.bytes_sent.add(payload_bytes_);
            ++delivered;
            pending_.pop_front();
            backoff = config_.backoff_base_s;
            if (breaker_) breaker_->on_success(clock);
        } else {
            ++stats_.retransmits;
            om.retransmits.add(1);
            if (breaker_) breaker_->on_failure(clock);
            if (breaker_ &&
                breaker_->state() == BreakerState::kOpen) {
                // The breaker took over pacing: no backoff sleep (the
                // open cooldown replaces it), and backoff restarts
                // fresh once traffic is re-admitted.
                backoff = config_.backoff_base_s;
            } else {
                // Exponential backoff before the retransmit; the
                // payload stays at the head of the queue.
                om.backoff_wait_s.observe(backoff);
                clock += backoff;
                backoff =
                    std::min(backoff * 2.0, config_.backoff_max_s);
            }
        }
    }
    stats_.delivered += delivered;
    om.delivered.add(delivered);
    if (breaker_) {
        stats_.breaker_opens = breaker_->opens();
        stats_.breaker_closes = breaker_->closes();
        stats_.breaker_probes = breaker_->probes();
        stats_.breaker_state = static_cast<int>(breaker_->state());
    }
    return delivered;
}

} // namespace insitu
