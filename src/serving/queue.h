/**
 * @file
 * Bounded admission queue with earliest-deadline-first ordering.
 *
 * Requests are admitted at arrival (dropped when the queue is at
 * capacity — open-loop load sheds at the edge, it never blocks the
 * generator) and extracted in EDF order for batch formation: a batch
 * is always an EDF prefix, so its binding deadline is the front
 * request's. Expired requests can be shed at formation time instead
 * of wasting a batch slot on a guaranteed miss.
 *
 * Everything here is serial and ordered by (deadline, id), so the
 * queue's behavior is a pure function of the arrival list.
 */
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "serving/request.h"

namespace insitu::serving {

/** Deterministic EDF priority queue over pending requests. */
class AdmissionQueue {
  public:
    explicit AdmissionQueue(size_t capacity) : capacity_(capacity) {}

    /**
     * Admit @p r, or refuse it: requests of a class currently shed by
     * the degradation ladder are refused first, then anything hitting
     * a full queue is dropped (sheds_class() tells the two apart).
     * @return true if admitted.
     */
    bool admit(const Request& r);

    size_t depth() const { return pending_.size(); }
    bool empty() const { return pending_.empty(); }

    /** Absolute deadlines of the first @p max_n requests in EDF
     * order (for the planner's feasibility check). */
    std::vector<double> edf_deadlines(size_t max_n) const;

    /** Remove and return the EDF-first @p n requests. */
    std::vector<Request> pop_edf(size_t n);

    /**
     * Drop every queued request whose deadline is already in the
     * past at time @p now; returns the shed requests.
     */
    std::vector<Request> shed_expired(double now);

    /**
     * Install the degradation ladder's shedding mask: requests whose
     * class index maps to true are refused at admission until the
     * mask is cleared (empty vector = shed nothing). A runtime
     * decision taken at batch boundaries on the serial loop.
     */
    void
    set_degraded_shedding(std::vector<bool> shed_by_class)
    {
        shed_by_class_ = std::move(shed_by_class);
    }

    /** Is @p cls currently refused by the shedding mask? */
    bool
    sheds_class(int cls) const
    {
        const auto i = static_cast<size_t>(cls);
        return i < shed_by_class_.size() && shed_by_class_[i];
    }

  private:
    struct EdfOrder {
        bool
        operator()(const Request& a, const Request& b) const
        {
            if (a.deadline_s != b.deadline_s)
                return a.deadline_s < b.deadline_s;
            return a.id < b.id;
        }
    };

    size_t capacity_;
    std::set<Request, EdfOrder> pending_;
    std::vector<bool> shed_by_class_;
};

} // namespace insitu::serving
