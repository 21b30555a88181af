#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <unordered_map>

#include "obs/clock.h"

namespace insitu::obs {

std::string
json_escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
format_double(double v)
{
    // Fixed nine decimals: enough for nanosecond-quantized sums, and
    // — unlike %g — never switches representation with magnitude, so
    // equal doubles always print equal bytes.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9f", v);
    return buf;
}

namespace {

void
write_attrs(std::ostream& os, const std::vector<SpanAttr>& attrs)
{
    os << "{";
    for (size_t i = 0; i < attrs.size(); ++i) {
        if (i > 0) os << ",";
        os << "\"" << json_escape(attrs[i].key) << "\":\""
           << json_escape(attrs[i].value) << "\"";
    }
    os << "}";
}

void
write_metric(std::ostream& os, const MetricValue& m)
{
    switch (m.kind) {
    case MetricValue::Kind::kCounter:
        os << "{\"type\":\"counter\",\"name\":\""
           << json_escape(m.name) << "\",\"value\":" << m.count
           << "}";
        break;
    case MetricValue::Kind::kGauge:
        os << "{\"type\":\"gauge\",\"name\":\"" << json_escape(m.name)
           << "\",\"value\":" << format_double(m.value) << "}";
        break;
    case MetricValue::Kind::kHistogram:
        os << "{\"type\":\"histogram\",\"name\":\""
           << json_escape(m.name) << "\",\"count\":" << m.count
           << ",\"sum\":" << format_double(m.value)
           << ",\"buckets\":[";
        for (size_t b = 0; b < m.bucket_counts.size(); ++b) {
            if (b > 0) os << ",";
            os << "[";
            if (b < m.bounds.size())
                os << format_double(m.bounds[b]);
            else
                os << "\"inf\"";
            os << "," << m.bucket_counts[b] << "]";
        }
        os << "]";
        if (m.count > 0) {
            // Percentile summary derived from the integer bucket
            // counts (nearest-rank), so it is byte-identical at any
            // thread width.
            os << ",\"p50\":"
               << format_double(histogram_quantile(
                      m.bounds, m.bucket_counts, 0.50))
               << ",\"p90\":"
               << format_double(histogram_quantile(
                      m.bounds, m.bucket_counts, 0.90))
               << ",\"p99\":"
               << format_double(histogram_quantile(
                      m.bounds, m.bucket_counts, 0.99));
        }
        os << "}";
        break;
    }
}

/// Metrics suffixed `.wall_s` measure the host machine, not the
/// scenario; in simulated-clock mode they are the one legitimately
/// nondeterministic input, so exports omit them to keep replay output
/// byte-identical (docs/observability.md, "Wall-clock metrics").
bool
suppressed_in_simulated_mode(const MetricValue& m)
{
    static const std::string kSuffix = ".wall_s";
    if (!TelemetryClock::global().simulated()) return false;
    return m.name.size() >= kSuffix.size() &&
           m.name.compare(m.name.size() - kSuffix.size(),
                          kSuffix.size(), kSuffix) == 0;
}

/// Trace ids are printed as fixed-width hex strings: 64-bit values
/// exceed JSON's exact-integer range, and the fixed width keeps the
/// byte layout identical everywhere.
std::string
trace_id_hex(uint64_t id)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(id));
    return buf;
}

void
write_span_jsonl(std::ostream& os, const SpanRecord& s)
{
    os << "{\"type\":\"" << (s.instant ? "instant" : "span")
       << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"name\":\"" << json_escape(s.name)
       << "\",\"start\":" << format_double(s.start_s);
    if (!s.instant) os << ",\"end\":" << format_double(s.end_s);
    if (!s.attrs.empty()) {
        os << ",\"attrs\":";
        write_attrs(os, s.attrs);
    }
    os << "}";
}

} // namespace

void
export_jsonl(std::ostream& os, const MetricsRegistry& registry,
             const TraceRecorder& recorder)
{
    os << "{\"type\":\"meta\",\"version\":1,\"clock\":\""
       << (TelemetryClock::global().simulated() ? "simulated"
                                                : "wall")
       << "\",\"dropped_spans\":" << recorder.dropped() << "}\n";
    for (const MetricValue& m : registry.snapshot().metrics) {
        if (suppressed_in_simulated_mode(m)) continue;
        write_metric(os, m);
        os << "\n";
    }
    for (const SpanRecord& s : recorder.snapshot()) {
        write_span_jsonl(os, s);
        os << "\n";
    }
    for (const FlowRecord& f : recorder.flows()) {
        os << "{\"type\":\"flow\",\"trace\":\""
           << trace_id_hex(f.trace_id) << "\",\"from\":" << f.from
           << ",\"to\":" << f.to << "}\n";
    }
}

void
export_jsonl(std::ostream& os)
{
    export_jsonl(os, MetricsRegistry::global(),
                 TraceRecorder::global());
}

bool
export_jsonl_file(const std::string& path)
{
    std::ofstream out(path);
    if (!out) return false;
    export_jsonl(out);
    return static_cast<bool>(out);
}

void
export_chrome_trace(std::ostream& os, const TraceRecorder& recorder)
{
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord& s : recorder.snapshot()) {
        if (!first) os << ",";
        first = false;
        os << "\n{\"name\":\"" << json_escape(s.name)
           << "\",\"ph\":\"" << (s.instant ? "i" : "X")
           << "\",\"pid\":0,\"tid\":0,\"ts\":"
           << format_double(s.start_s * 1e6);
        if (!s.instant)
            os << ",\"dur\":"
               << format_double((s.end_s - s.start_s) * 1e6);
        else
            os << ",\"s\":\"t\"";
        os << ",\"args\":";
        std::vector<SpanAttr> args = s.attrs;
        args.push_back({"span_id", std::to_string(s.id)});
        write_attrs(os, args);
        os << "}";
    }
    // Causal lineage as legacy flow events: per trace, a chain of
    // "s" (start) → "t" (step) → "f" (finish, bp:"e") events sharing
    // the trace id, anchored at the linked spans' timestamps. One
    // trace = one arrow chain from entry point to deploy-commit.
    const std::vector<SpanRecord> spans = recorder.snapshot();
    std::unordered_map<int64_t, double> start_by_id;
    start_by_id.reserve(spans.size());
    for (const SpanRecord& s : spans) start_by_id[s.id] = s.start_s;
    std::vector<uint64_t> trace_order;
    std::unordered_map<uint64_t, std::vector<int64_t>> chain_by_trace;
    for (const FlowRecord& f : recorder.flows()) {
        auto [it, inserted] = chain_by_trace.try_emplace(f.trace_id);
        if (inserted) trace_order.push_back(f.trace_id);
        std::vector<int64_t>& chain = it->second;
        if (chain.empty() || chain.back() != f.from)
            chain.push_back(f.from);
        chain.push_back(f.to);
    }
    for (const uint64_t trace : trace_order) {
        const std::vector<int64_t>& chain = chain_by_trace[trace];
        for (size_t i = 0; i < chain.size(); ++i) {
            const auto it = start_by_id.find(chain[i]);
            if (it == start_by_id.end()) continue;
            const char* ph = i == 0 ? "s"
                             : i + 1 == chain.size() ? "f"
                                                     : "t";
            if (!first) os << ",";
            first = false;
            os << "\n{\"name\":\"trace\",\"cat\":\"flow\",\"ph\":\""
               << ph << "\",\"id\":\"" << trace_id_hex(trace)
               << "\",\"pid\":0,\"tid\":0,\"ts\":"
               << format_double(it->second * 1e6);
            if (*ph == 'f') os << ",\"bp\":\"e\"";
            os << ",\"args\":{\"span_id\":" << chain[i] << "}}";
        }
    }
    os << "\n]}\n";
}

bool
export_chrome_trace_file(const std::string& path)
{
    std::ofstream out(path);
    if (!out) return false;
    export_chrome_trace(out, TraceRecorder::global());
    return static_cast<bool>(out);
}

double
histogram_quantile(const std::vector<double>& bounds,
                   const std::vector<int64_t>& bucket_counts, double q)
{
    int64_t total = 0;
    for (const int64_t c : bucket_counts) total += c;
    if (total <= 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Nearest rank: the smallest bucket whose cumulative count
    // reaches ceil(q * total).
    const int64_t rank = std::max<int64_t>(
        1, static_cast<int64_t>(
               std::ceil(q * static_cast<double>(total))));
    int64_t cum = 0;
    for (size_t b = 0; b < bucket_counts.size(); ++b) {
        cum += bucket_counts[b];
        if (cum >= rank) {
            if (b < bounds.size()) return bounds[b];
            // Overflow bucket: the histogram cannot resolve beyond
            // its last finite bound.
            return bounds.empty() ? 0.0 : bounds.back();
        }
    }
    return bounds.empty() ? 0.0 : bounds.back();
}

std::string
histogram_percentile_summary(const MetricValue& m)
{
    if (m.kind != MetricValue::Kind::kHistogram || m.count <= 0)
        return {};
    std::string out;
    const struct {
        const char* label;
        double q;
    } points[] = {{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}};
    for (const auto& p : points) {
        if (!out.empty()) out += " ";
        out += p.label;
        out += "=";
        out += format_double(
            histogram_quantile(m.bounds, m.bucket_counts, p.q));
    }
    return out;
}

} // namespace insitu::obs
