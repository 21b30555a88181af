/**
 * @file
 * Naive replay of the serving runtime's ledger. From a run's arrivals
 * and its ledger alone it rebuilds the admission queue with a plain
 * ordered set, takes only the ladder's refusals and each batch's
 * start and size as given, and re-derives everything else: every
 * request's outcome, latency and late verdict, every ClassReport
 * field, and the timeline's invariants at every event instant —
 * conservation, the queue bound, EDF batch formation, expiry sheds,
 * and weight swaps that neither tear a batch nor stall the device.
 * It calls no runtime internals: the constants it needs are restated
 * here, and commit instants come from the summary transcript.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serving/scenarios.h"

namespace insitu::serving {
namespace {

// Restated from runtime.cc.
constexpr size_t kQueueCapacity = 512;
constexpr double kDeadlineEps = 1e-12;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Nearest-rank quantile. */
double
nearest_rank(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    size_t idx = static_cast<size_t>(std::ceil(q * double(v.size())));
    if (idx > 0) --idx;
    return v[std::min(idx, v.size() - 1)];
}

/** How many entries of ascending @p v are <= @p t. */
int64_t
upto(const std::vector<double>& v, double t)
{
    return std::upper_bound(v.begin(), v.end(), t) - v.begin();
}

std::string
fixed6(double t)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", t);
    return buf;
}

/** One weight commit, read off the summary transcript. */
struct Commit {
    std::string t; ///< "%.6f" instant
    unsigned long long version = 0;
};

std::vector<Commit>
transcript_commits(const std::string& transcript)
{
    std::vector<Commit> out;
    std::istringstream in(transcript);
    std::string line;
    while (std::getline(in, line)) {
        char t[64];
        Commit c;
        if (std::sscanf(line.c_str(), "[t=%63[0-9.]] swap v%llu committed",
                        t, &c.version) == 2) {
            c.t = t;
            out.push_back(c);
        }
    }
    return out;
}

/** What the replay saw across one run, for coverage assertions. */
struct Seen {
    int64_t dropped = 0;
    int64_t shed_expired = 0;
    int64_t shed_degraded = 0;
    int64_t mid_batch_stages = 0;
    int64_t commits = 0;
    int64_t busy_commits = 0; ///< commits with requests still queued
};

class Replay {
  public:
    Replay(const ServingConfig& cfg, const ServingReport& rep)
        : cfg_(cfg), rep_(rep), arrivals_(generate_arrivals(cfg.mix)),
          outcome_(arrivals_.size(), Outcome::kPending),
          dequeued_(arrivals_.size(), 0.0), done_(arrivals_.size(), 0.0)
    {}

    /** The ledger's lists are well formed and match the arrivals. */
    ::testing::AssertionResult
    ledger_shape() const
    {
        const auto& led = rep_.requests;
        if (led.size() != arrivals_.size())
            return fail() << led.size() << " requests in the ledger, "
                          << arrivals_.size() << " arrivals";
        for (size_t i = 0; i < led.size(); ++i) {
            const Request& a = arrivals_[i];
            const Request& r = led[i];
            if (r.id != a.id || r.cls != a.cls ||
                r.arrival_s != a.arrival_s || r.deadline_s != a.deadline_s)
                return fail() << "ledger request " << i
                              << " is not arrival " << a.id;
        }
        const auto& bs = rep_.batch_records;
        for (size_t k = 0; k < bs.size(); ++k) {
            const BatchRecord& b = bs[k];
            if (b.seq != int64_t(k) || b.size < 1 || b.size > kMaxBatch ||
                !(b.exec_s > 0) || b.completion_s != b.start_s + b.exec_s)
                return fail() << "malformed batch #" << k;
            if (k > 0 && b.start_s < bs[k - 1].completion_s)
                return fail() << "batch #" << k << " starts at "
                              << b.start_s << ", before #" << k - 1
                              << " completes at " << bs[k - 1].completion_s;
        }
        return ::testing::AssertionSuccess();
    }

    /**
     * Re-run the queue: arrivals and completions in time order
     * (completion first on a tie), an idle device dispatching after
     * each, and the invariants checked after every event instant.
     */
    ::testing::AssertionResult
    run()
    {
        index_ledger();
        const auto& bs = rep_.batch_records;
        const size_t n = arrivals_.size();
        size_t next_arrival = 0;
        while (!in_flight_.empty() || next_arrival < n) {
            const double tc = in_flight_.empty()
                                  ? kInf
                                  : bs[next_batch_ - 1].completion_s;
            const double ta =
                next_arrival < n ? arrivals_[next_arrival].arrival_s : kInf;
            double t;
            if (tc <= ta) {
                t = tc;
                for (const int64_t id : in_flight_)
                    outcome_[size_t(id)] = Outcome::kServed;
                in_flight_.clear();
                const auto r = dispatch(t, /*at_completion=*/true);
                if (!r) return r;
            } else {
                t = ta;
                const auto r = arrive(arrivals_[next_arrival++]);
                if (!r) return r;
            }
            const double next = std::min(
                next_arrival < n ? arrivals_[next_arrival].arrival_s : kInf,
                in_flight_.empty() ? kInf
                                   : bs[next_batch_ - 1].completion_s);
            if (next > t) {
                const auto r = invariants_at(t);
                if (!r) return r;
            }
        }
        if (next_batch_ != bs.size())
            return fail() << "ledger holds " << bs.size()
                          << " batches, the replay dispatched "
                          << next_batch_;
        if (!queue_.empty())
            return fail() << queue_.size() << " requests never left";
        return ::testing::AssertionSuccess();
    }

    /** The ledger's stamps agree with the replay's, request by request. */
    ::testing::AssertionResult
    outcomes_match() const
    {
        for (size_t i = 0; i < arrivals_.size(); ++i) {
            const Request& r = rep_.requests[i];
            if (r.outcome != outcome_[i] || r.dequeued_s != dequeued_[i] ||
                r.done_s != done_[i])
                return fail() << "request " << i << ": ledger says outcome "
                              << int(r.outcome) << " dequeued "
                              << r.dequeued_s << " done " << r.done_s
                              << ", replay says " << int(outcome_[i])
                              << " / " << dequeued_[i] << " / "
                              << done_[i];
            // Expiry is judged on the ledger's own stamps: nothing
            // dispatched had expired, everything shed as expired had.
            if (r.outcome == Outcome::kServed && r.deadline_s < r.dequeued_s)
                return fail() << "request " << i << " dispatched expired";
            if (r.outcome == Outcome::kShedExpired &&
                !(r.deadline_s < r.dequeued_s))
                return fail() << "request " << i << " shed unexpired";
        }
        return ::testing::AssertionSuccess();
    }

    /** Every ClassReport field and the total, from the replay. */
    ::testing::AssertionResult
    report_matches() const
    {
        const size_t nc = cfg_.mix.classes.size();
        std::vector<ClassReport> want(nc + 1);
        std::vector<std::vector<double>> lat(nc + 1);
        for (size_t i = 0; i < arrivals_.size(); ++i) {
            const Request& a = arrivals_[i];
            for (const size_t row : {size_t(a.cls), nc}) {
                ClassReport& c = want[row];
                ++c.arrived;
                switch (outcome_[i]) {
                case Outcome::kServed:
                    ++c.served;
                    lat[row].push_back(done_[i] - a.arrival_s);
                    if (done_[i] > a.deadline_s + kDeadlineEps)
                        ++c.served_late;
                    break;
                case Outcome::kDroppedCapacity: ++c.dropped_capacity; break;
                case Outcome::kShedExpired: ++c.shed_expired; break;
                case Outcome::kShedDegraded: ++c.shed_degraded; break;
                case Outcome::kPending: break;
                }
            }
        }
        for (size_t row = 0; row <= nc; ++row) {
            ClassReport& c = want[row];
            c.name = row < nc ? cfg_.mix.classes[row].name : "total";
            c.p50_latency_s = nearest_rank(lat[row], 0.50);
            c.p99_latency_s = nearest_rank(lat[row], 0.99);
            const int64_t missed = c.served_late + c.dropped_capacity +
                                   c.shed_expired + c.shed_degraded;
            c.miss_rate =
                c.arrived > 0 ? double(missed) / double(c.arrived) : 0.0;
            const ClassReport& got =
                row < nc ? rep_.classes[row] : rep_.total;
            if (got.name != c.name || got.arrived != c.arrived ||
                got.served != c.served ||
                got.served_late != c.served_late ||
                got.dropped_capacity != c.dropped_capacity ||
                got.shed_expired != c.shed_expired ||
                got.shed_degraded != c.shed_degraded ||
                got.p50_latency_s != c.p50_latency_s ||
                got.p99_latency_s != c.p99_latency_s ||
                got.miss_rate != c.miss_rate)
                return fail() << "class row '" << c.name
                              << "' differs from the replay";
        }
        if (rep_.classes.size() != nc)
            return fail() << rep_.classes.size() << " class rows";

        const auto& bs = rep_.batch_records;
        int64_t images = 0, drains = 0;
        for (const BatchRecord& b : bs) {
            images += b.size;
            drains += b.deadline_feasible ? 0 : 1;
        }
        const double mean =
            bs.empty() ? 0.0 : double(images) / double(bs.size());
        if (rep_.batches != int64_t(bs.size()) ||
            rep_.mean_batch_size != mean || rep_.drain_batches != drains ||
            rep_.makespan_s != (bs.empty() ? 0.0 : bs.back().completion_s))
            return fail() << "batch totals differ from the ledger";
        return ::testing::AssertionSuccess();
    }

    /**
     * Weight swaps: versions move only at commits, commits land only
     * on completion instants, in order, so no batch's version moves
     * while it is in flight; and the device never stalls for a swap
     * (a non-empty queue at a commit dispatches at that instant).
     */
    ::testing::AssertionResult
    swaps_hold()
    {
        const auto commits = transcript_commits(rep_.transcript);
        const auto& bs = rep_.batch_records;
        if (rep_.swap_torn || rep_.swap_stall_s != 0.0 ||
            rep_.swaps_committed != int64_t(commits.size()))
            return fail() << "swap totals: torn=" << rep_.swap_torn
                          << " stall=" << rep_.swap_stall_s << " commits="
                          << rep_.swaps_committed << " vs "
                          << commits.size() << " in the transcript";
        size_t c = 0;
        uint64_t live = bs.empty() ? 0 : bs.front().version;
        for (size_t k = 0; k < bs.size(); ++k) {
            if (bs[k].version != live)
                return fail() << "batch #" << k << " runs v"
                              << bs[k].version << ", live is v" << live;
            if (c < commits.size() &&
                commits[c].t == fixed6(bs[k].completion_s)) {
                if (commits[c].version <= live)
                    return fail() << "commit of v" << commits[c].version
                                  << " does not move past v" << live;
                live = commits[c].version;
                ++c;
                ++seen_.commits;
                if (queued_at_completion_[k] > 0) {
                    ++seen_.busy_commits;
                    if (k + 1 >= bs.size() ||
                        bs[k + 1].start_s != bs[k].completion_s)
                        return fail() << "device stalled at the commit "
                                         "after batch #"
                                      << k;
                }
            }
        }
        if (c != commits.size())
            return fail() << "commit at t=" << commits[c].t
                          << " is not on a batch completion";
        return ::testing::AssertionSuccess();
    }

    Seen
    seen() const
    {
        Seen s = seen_;
        s.mid_batch_stages = rep_.mid_batch_stages;
        return s;
    }

  private:
    static ::testing::AssertionResult
    fail()
    {
        return ::testing::AssertionFailure();
    }

    ::testing::AssertionResult
    arrive(const Request& a)
    {
        const double t = a.arrival_s;
        const size_t i = size_t(a.id);
        if (rep_.requests[i].outcome == Outcome::kShedDegraded) {
            // The ladder's mask is the runtime's decision; the replay
            // checks only whom it may refuse.
            if (!cfg_.degrade ||
                !cfg_.mix.classes[size_t(a.cls)].best_effort)
                return fail() << "ladder shed request " << a.id
                              << " of class " << a.cls;
            resolve(i, Outcome::kShedDegraded, t);
            ++seen_.shed_degraded;
        } else if (queue_.size() >= kQueueCapacity) {
            resolve(i, Outcome::kDroppedCapacity, t);
            ++seen_.dropped;
        } else {
            queue_.insert({a.deadline_s, a.id});
        }
        if (in_flight_.empty()) return dispatch(t, false);
        return ::testing::AssertionSuccess();
    }

    /** The idle device at @p t: shed the expired, then the ledger's
     * next batch must start now and be the queue's EDF prefix. */
    ::testing::AssertionResult
    dispatch(double t, bool at_completion)
    {
        while (!queue_.empty() && queue_.begin()->first < t) {
            resolve(size_t(queue_.begin()->second), Outcome::kShedExpired, t);
            queue_.erase(queue_.begin());
            ++seen_.shed_expired;
        }
        if (at_completion) queued_at_completion_.push_back(queue_.size());
        if (queue_.empty()) return ::testing::AssertionSuccess();
        const auto& bs = rep_.batch_records;
        if (next_batch_ >= bs.size() || bs[next_batch_].start_s != t)
            return fail() << "device idle at t=" << t << " with "
                          << queue_.size() << " queued requests";
        const BatchRecord& b = bs[next_batch_++];
        if (size_t(b.size) > queue_.size())
            return fail() << "batch #" << b.seq << " of " << b.size
                          << " from a queue of " << queue_.size();
        for (int64_t j = 0; j < b.size; ++j) {
            const int64_t id = queue_.begin()->second;
            queue_.erase(queue_.begin());
            dequeued_[size_t(id)] = t;
            done_[size_t(id)] = b.completion_s;
            in_flight_.push_back(id);
        }
        return ::testing::AssertionSuccess();
    }

    /** Request @p i leaves unserved at @p t. */
    void
    resolve(size_t i, Outcome o, double t)
    {
        outcome_[i] = o;
        dequeued_[i] = done_[i] = t;
    }

    /** Ascending stamps of the ledger, for counting by instant. */
    void
    index_ledger()
    {
        for (const Request& r : rep_.requests) {
            arrived_at_.push_back(r.arrival_s);
            switch (r.outcome) {
            case Outcome::kServed:
                admitted_at_.push_back(r.arrival_s);
                left_queue_at_.push_back(r.dequeued_s);
                dispatched_at_.push_back(r.dequeued_s);
                served_at_.push_back(r.done_s);
                break;
            case Outcome::kShedExpired:
                admitted_at_.push_back(r.arrival_s);
                left_queue_at_.push_back(r.dequeued_s);
                shed_expired_at_.push_back(r.dequeued_s);
                break;
            case Outcome::kDroppedCapacity:
                dropped_at_.push_back(r.arrival_s);
                break;
            case Outcome::kShedDegraded:
                shed_degraded_at_.push_back(r.arrival_s);
                break;
            case Outcome::kPending: break;
            }
        }
        for (auto* v : {&arrived_at_, &admitted_at_, &left_queue_at_,
                        &dispatched_at_,
                        &served_at_, &shed_expired_at_, &dropped_at_,
                        &shed_degraded_at_})
            std::sort(v->begin(), v->end());
    }

    /**
     * After the last event at @p t: conservation counted from the
     * ledger's stamps alone, the queue bound, and the ledger agreeing
     * with the replay on what is queued and in flight.
     */
    ::testing::AssertionResult
    invariants_at(double t) const
    {
        const int64_t arrived = upto(arrived_at_, t);
        const int64_t queued =
            upto(admitted_at_, t) - upto(left_queue_at_, t);
        const int64_t flying = upto(dispatched_at_, t) - upto(served_at_, t);
        const int64_t served = upto(served_at_, t);
        const int64_t dropped = upto(dropped_at_, t);
        const int64_t shed_exp = upto(shed_expired_at_, t);
        const int64_t shed_deg = upto(shed_degraded_at_, t);
        if (arrived != queued + flying + served + dropped + shed_exp +
                           shed_deg)
            return fail() << "ledger conservation fails at t=" << t
                          << ": arrived " << arrived << " queued "
                          << queued << " in flight " << flying
                          << " served " << served << " dropped "
                          << dropped << " shed " << shed_exp << "+"
                          << shed_deg;
        if (queued > int64_t(kQueueCapacity))
            return fail() << "queue depth " << queued << " at t=" << t;
        if (queued != int64_t(queue_.size()) ||
            flying != int64_t(in_flight_.size()))
            return fail() << "at t=" << t << " the ledger has " << queued
                          << " queued and " << flying
                          << " in flight, the replay " << queue_.size()
                          << " and " << in_flight_.size();
        return ::testing::AssertionSuccess();
    }

    const ServingConfig& cfg_;
    const ServingReport& rep_;
    const std::vector<Request> arrivals_;

    // The replay's own state.
    std::set<std::pair<double, int64_t>> queue_; ///< (deadline, id)
    std::vector<int64_t> in_flight_;
    size_t next_batch_ = 0;
    std::vector<Outcome> outcome_;
    std::vector<double> dequeued_, done_;
    std::vector<size_t> queued_at_completion_; ///< per batch, by seq
    Seen seen_;

    // The ledger's stamps, ascending.
    std::vector<double> arrived_at_, admitted_at_, left_queue_at_,
        dispatched_at_, served_at_, shed_expired_at_, dropped_at_,
        shed_degraded_at_;
};

/** One seeded config of the sweep. */
struct Case {
    std::string label;
    ServingConfig cfg;
};

/**
 * The sweep: the three canonical mixes, the device-chaos scenario and
 * a bulk mix whose deadlines are 50x longer (so a slow policy fills
 * the queue before anything expires), each under the online planner
 * and static batches 1 and 32, guarded and unguarded, with the mix's
 * own update cadence and with updates every 0.9 s, at two seeds.
 */
std::vector<Case>
sweep()
{
    std::vector<Case> out;
    const std::vector<std::string> mixes = {
        "interactive_burst", "bulk_heavy", "diurnal_corun",
        "device_chaos", "patient_bulk"};
    for (const uint64_t seed : {101u, 202u})
        for (const std::string& mix : mixes)
            for (const int64_t batch : {0, 1, 32})
                for (const bool guarded : {true, false})
                    for (const bool updates : {false, true}) {
                        const double horizon = 15.0;
                        ServingConfig cfg;
                        if (mix == "device_chaos") {
                            cfg = make_device_chaos(horizon, seed);
                        } else if (mix == "patient_bulk") {
                            cfg = make_scenario("bulk_heavy", horizon, seed);
                            for (RequestClass& c : cfg.mix.classes)
                                c.deadline_s *= 50.0;
                        } else {
                            cfg = make_scenario(mix, horizon, seed);
                        }
                        if (batch > 0) {
                            cfg.planner.mode = PlannerMode::kStatic;
                            cfg.planner.static_batch = batch;
                        }
                        cfg.degrade = guarded;
                        if (updates) cfg.corun.update_period_s = 0.9;
                        cfg.transcript = TranscriptLevel::kSummary;
                        std::ostringstream label;
                        label << mix << " seed=" << seed << " batch="
                              << (batch > 0 ? std::to_string(batch)
                                            : std::string("online"))
                              << " guarded=" << guarded
                              << " updates=" << updates;
                        out.push_back({label.str(), cfg});
                    }
    return out;
}

TEST(ServingReplay, LedgerMatchesANaiveReplayOverSeededConfigs)
{
    const std::vector<Case> cases = sweep();
    ASSERT_GE(cases.size(), 100u);
    Seen total;
    for (const Case& c : cases) {
        SCOPED_TRACE(c.label);
        const ServingReport rep = ServingRuntime(c.cfg).run();
        Replay replay(c.cfg, rep);
        ASSERT_TRUE(replay.ledger_shape());
        ASSERT_TRUE(replay.run());
        ASSERT_TRUE(replay.outcomes_match());
        ASSERT_TRUE(replay.report_matches());
        ASSERT_TRUE(replay.swaps_hold());
        const Seen s = replay.seen();
        total.dropped += s.dropped;
        total.shed_expired += s.shed_expired;
        total.shed_degraded += s.shed_degraded;
        total.mid_batch_stages += s.mid_batch_stages;
        total.commits += s.commits;
        total.busy_commits += s.busy_commits;
    }
    // The sweep reaches every path the replay checks.
    EXPECT_GT(total.dropped, 0);
    EXPECT_GT(total.shed_expired, 0);
    EXPECT_GT(total.shed_degraded, 0);
    EXPECT_GT(total.mid_batch_stages, 0);
    EXPECT_GT(total.commits, 0);
    EXPECT_GT(total.busy_commits, 0);
}

} // namespace
} // namespace insitu::serving
