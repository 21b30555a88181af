/**
 * @file
 * Request model and ledger records of the async serving runtime
 * (docs/serving.md).
 *
 * The open-loop load generator emits Requests tagged with a
 * latency/deadline class; the admission queue orders them by absolute
 * deadline (EDF) and the planner forms batches from the EDF prefix.
 * A run's ledger is its requests, each stamped with its fate, plus
 * one BatchRecord per dispatch; every tally, metric and calibration
 * point of the run is a fold over it.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace insitu::serving {

/**
 * One latency class of the traffic mix: every request of the class
 * carries the class's relative deadline from its arrival instant.
 */
struct RequestClass {
    std::string name;
    double deadline_s = 0.5; ///< relative deadline at arrival
    double weight = 1.0;     ///< share of arrivals (normalized)
    /// Sheddable under degradation: when the device-health ladder
    /// reaches its shedding rung, the admission queue refuses this
    /// class to protect the guaranteed ones (docs/serving.md).
    bool best_effort = false;
};

/** How a request left the runtime. */
enum class Outcome {
    kPending,         ///< not yet decided
    kServed,          ///< completed in a batch (possibly late)
    kDroppedCapacity, ///< refused at a full queue
    kShedExpired,     ///< left the queue already expired
    kShedDegraded,    ///< refused by the degradation ladder
};

/** One inference request of the open-loop stream. */
struct Request {
    int64_t id = 0;       ///< arrival order, unique per run
    int cls = 0;          ///< index into the mix's class list
    double arrival_s = 0; ///< simulated arrival time
    double deadline_s = 0;///< absolute: arrival + class deadline
    /// Causal identity, minted deterministically from the mix seed
    /// and the request id; links arrival → batch span in the trace.
    obs::TraceContext trace;
    /// Left the queue: dispatched or shed as expired (arrival_s for
    /// a refused request, which never queued).
    double dequeued_s = 0;
    /// Left the runtime: its batch's completion when served, else
    /// dequeued_s.
    double done_s = 0;
    Outcome outcome = Outcome::kPending;
};

/** One dispatched batch, as the runtime measured it. */
struct BatchRecord {
    int64_t seq = 0; ///< dispatch order from 0
    double start_s = 0;
    double completion_s = 0; ///< start_s + exec_s
    int64_t size = 0;
    uint64_t version = 0; ///< live model version at dispatch
    bool deadline_feasible = true; ///< false = the planner drained
    double exec_s = 0; ///< device time: interference and faults included
    double pure_exec_s = 0; ///< exec_s with the co-run slowdown divided out
    /// Dispatched on a healthy device: a calibration sample.
    bool healthy = true;
};

} // namespace insitu::serving
