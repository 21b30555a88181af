/**
 * @file
 * Shared pieces of the repository benchmark: wall-clock timing and
 * quantiles, the in-memory span recorder of the traced run, the
 * metric report, and the correctness oracles every workload feeds.
 *
 * The benchmark only measures from outside the library: it times
 * calls into the public API and reads counters the library already
 * exports. It never changes library state beyond what a user of that
 * API would.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace insitu {
class Network;
class Tensor;
struct ScaleStageReport;
} // namespace insitu

namespace perfbench {

// ---- Timing ----------------------------------------------------------

/** Monotonic wall-clock seconds since the first call in the process. */
double now_s();

/** Linear-interpolated quantile @p q in [0, 1] of @p v (empty -> 0). */
double quantile(std::vector<double> v, double q);

/** Median plus the highest standard percentile that still has at
 * least ten samples beyond it. */
struct Timing {
    double p50 = 0;
    double tail = 0;
    double tail_q = 0.5; ///< which percentile `tail` is
    int64_t n = 0;
};
Timing summarize(const std::vector<double>& v);

/** Peak resident set size of this process so far, in MB. */
double peak_rss_mb();

/**
 * A wall-clock instant with the CPU time the hypervisor had taken
 * from this machine's CPUs by then ("steal", summed over CPUs; 0
 * where the kernel does not report it).
 */
struct Mark {
    double wall_s = 0;
    double stolen_s = 0;
};
Mark mark();

/** Share of the machine's CPU time stolen between two marks. */
double steal_share(const Mark& from, const Mark& to);

/**
 * Indices of the samples least disturbed by steal: those whose share
 * is at most the first-quartile share, or 5 %, whichever is higher.
 * That is always at least a quarter of them, and all of them on a
 * quiet host. (One 10 ms tick of steal is already 3 % of a node
 * capture on four CPUs, so a lower floor would drop units at random.)
 */
std::vector<size_t> least_stolen(const std::vector<double>& shares);

// ---- Spans -------------------------------------------------------------

/** One recorded span. `op` groups the spans of one loop step,
 * capture or fleet stage. */
struct Span {
    std::string name;
    int64_t parent = -1;
    int64_t op = -1;
    double start_s = 0;
    double end_s = 0;
};

/**
 * Span recorder of the traced run. Spans stay in memory and are
 * written out once, when the run ends. A disabled tracer records
 * nothing; the untraced run never enables it.
 */
class Tracer {
  public:
    bool enabled = false;
    int64_t op = -1; ///< id stamped on spans opened from now on

    int64_t begin(const char* name);
    void end(int64_t id);

    const std::vector<Span>& spans() const { return spans_; }

    /** Durations of every span named @p name, in record order. */
    std::vector<double> durations(const std::string& name) const;

    /** Summed self time (duration minus the time covered by direct
     * children) of every span named @p name. */
    double self_time(const std::string& name) const;

    /** Write one JSON object per span. */
    bool write_jsonl(const std::string& path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int64_t> stack_;
};

/** RAII span; free when the tracer is disabled. */
class Scope {
  public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), id_(tracer.enabled ? tracer.begin(name) : -1)
    {}
    ~Scope()
    {
        if (id_ >= 0) tracer_.end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer& tracer_;
    int64_t id_;
};

// ---- Report ------------------------------------------------------------

/** One reported metric. `detail` is extra JSON members for the
 * report line (quantile, sample count), without braces. */
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::string detail;
};

/** Operation and oracle tally behind `attempted` / `failed`. */
struct Tally {
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for the report

    /** Count one operation or oracle check; false counts a failure. */
    void check(bool ok, const std::string& what);
};

/** Run settings from the command line. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    int width = 1;           ///< thread-pool width of the run
    std::string out_dir;     ///< span dumps and the report copy
    std::string commit;      ///< source identity, from the wrapper
    std::string command;     ///< full command line, from the wrapper
};

/**
 * Print the report line (environment block plus every metric with its
 * clock domain and detail) and then, as the last line of stdout, the
 * result object. Also writes the report line to @p opt.out_dir.
 */
void emit(const Options& opt, const std::vector<Metric>& metrics,
          const Tally& tally);

// ---- Workloads -----------------------------------------------------------

/** End-to-end run of one workload (tracing off). */
std::vector<Metric> run_workload(const Options& opt, Tally& tally);

/** Traced run: every workload with spans, width-1 references and the
 * per-layer replays. */
std::vector<Metric> run_traced(const Options& opt, Tally& tally);

/** Per-layer replays through Network::layer(i) at the workloads'
 * shapes, plus the gemm() peak and the jigsaw batch cost. */
std::vector<Metric> replay_layers(uint64_t seed, Tally& tally);

// ---- Oracles ---------------------------------------------------------------

/** Fleet stage conservation: every flagged image is delivered,
 * excluded, dropped, lost in a crash, or still in the backlog. */
bool fleet_conserved(const insitu::ScaleStageReport& r,
                     int64_t backlog_before);

/** No event-phase capacity regrowth since warm-up. */
bool no_hot_allocs(int64_t after_warmup, int64_t now);

/** Blocked-GEMM logits agree with the naive reference within
 * kLogitTolerance (largest |difference| over largest |reference|). */
bool logits_match(const insitu::Tensor& got, const insitu::Tensor& ref);
constexpr double kLogitTolerance = 1e-4;

/** Bitwise equality of two tensors (same shape, same bits). */
bool identical(const insitu::Tensor& a, const insitu::Tensor& b);

/** The exact matmul counter moved by the analytic FLOP count. */
bool flops_match(int64_t counted, int64_t analytic);

/** Logits of @p net on @p probe computed with the naive reference
 * GEMM; restores the active backend afterwards. */
insitu::Tensor naive_logits(insitu::Network& net,
                            const insitu::Tensor& probe);

/** Sum of the library's exact `tensor.matmul*.flops` counters. */
int64_t matmul_flops();

/** Feed every oracle a deliberately wrong expected value; returns the
 * number of oracles that failed to fire (0 = all fire). */
int selftest();

} // namespace perfbench
