/**
 * @file
 * Telemetry exporters: JSONL event stream and Chrome trace_event
 * JSON.
 *
 * All exporters are deterministic given deterministic inputs: metrics
 * are emitted name-sorted, spans in creation order, and every double
 * is formatted with a fixed conversion — so two runs that produce the
 * same telemetry produce byte-identical files (the `check_obs` ctest
 * pins this across thread widths on the chaos scenario).
 */
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace insitu::obs {

/**
 * JSONL: one JSON object per line — a `meta` header, one line per
 * metric (name-sorted), one line per span/instant (creation order).
 */
void export_jsonl(std::ostream& os, const MetricsRegistry& registry,
                  const TraceRecorder& recorder);

/** JSONL of the global registry + recorder. */
void export_jsonl(std::ostream& os);

/** Write global-telemetry JSONL to @p path; false on I/O failure. */
bool export_jsonl_file(const std::string& path);

/**
 * Chrome trace_event JSON (the `{"traceEvents": [...]}` form): spans
 * become complete ("X") events, instants become "i" events; load the
 * file in chrome://tracing or https://ui.perfetto.dev.
 */
void export_chrome_trace(std::ostream& os,
                         const TraceRecorder& recorder);

/** Chrome trace of the global recorder to @p path. */
bool export_chrome_trace_file(const std::string& path);

/** JSON-escape @p s (quotes not included). */
std::string json_escape(const std::string& s);

/** Fixed deterministic double formatting used by every exporter. */
std::string format_double(double v);

/**
 * Nearest-rank quantile from histogram bucket counts — deterministic,
 * a pure function of the integer counts. Returns the upper bound of
 * the bucket holding the q-th ranked observation; samples landing in
 * the overflow bucket report the last finite bound (the histogram
 * cannot resolve beyond it). 0 when the histogram is empty.
 */
double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<int64_t>& bucket_counts,
                          double q);

/** "p50=… p90=… p99=…" (format_double) for a histogram metric;
 * empty string when @p m is not a histogram or has no samples. */
std::string histogram_percentile_summary(const MetricValue& m);

} // namespace insitu::obs
