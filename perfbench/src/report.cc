#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "tensor/gemm.h"
#include "util/parallel.h"

namespace perfbench {

double
now_s()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Timing
summarize(const std::vector<double>& v)
{
    Timing t;
    t.n = static_cast<int64_t>(v.size());
    t.p50 = quantile(v, 0.5);
    t.tail = t.p50;
    for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
        if (static_cast<double>(t.n) * (1.0 - q) >= 10.0) {
            t.tail_q = q;
            t.tail = quantile(v, q);
            break;
        }
    }
    return t;
}

double
peak_rss_mb()
{
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

Mark
mark()
{
    Mark m;
    m.wall_s = now_s();
    // Aggregate "cpu" line: user nice system idle iowait irq softirq
    // steal ..., in clock ticks.
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t v[8] = {};
    if (in >> cpu && cpu == "cpu") {
        bool ok = true;
        for (uint64_t& x : v) ok = ok && static_cast<bool>(in >> x);
        if (ok)
            m.stolen_s = static_cast<double>(v[7]) /
                         static_cast<double>(sysconf(_SC_CLK_TCK));
    }
    return m;
}

double
steal_share(const Mark& from, const Mark& to)
{
    const double cpus =
        std::max(1u, std::thread::hardware_concurrency());
    const double wall = std::max(to.wall_s - from.wall_s, 1e-9);
    return (to.stolen_s - from.stolen_s) / (wall * cpus);
}

std::vector<size_t>
least_stolen(const std::vector<double>& shares)
{
    const double cut = std::max(quantile(shares, 0.25), 0.05);
    std::vector<size_t> keep;
    for (size_t i = 0; i < shares.size(); ++i)
        if (shares[i] <= cut) keep.push_back(i);
    return keep;
}

int64_t
Tracer::begin(const char* name)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    s.start_s = now_s();
    spans_.push_back(std::move(s));
    const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
Tracer::end(int64_t id)
{
    spans_[static_cast<size_t>(id)].end_s = now_s();
    stack_.pop_back();
}

std::vector<double>
Tracer::durations(const std::string& name) const
{
    std::vector<double> out;
    for (const Span& s : spans_)
        if (s.name == name) out.push_back(s.end_s - s.start_s);
    return out;
}

double
Tracer::self_time(const std::string& name) const
{
    // Children strictly nest inside their parent, so the covered part
    // of a span is the sum of its direct children's durations.
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent >= 0)
            child[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    double total = 0;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name)
            total += spans_[i].end_s - spans_[i].start_s - child[i];
    return total;
}

bool
Tracer::write_jsonl(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) return false;
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "{\"id\":%zu,\"parent\":%lld,\"op\":%lld,"
                      "\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}\n",
                      i, static_cast<long long>(s.parent),
                      static_cast<long long>(s.op), s.name.c_str(),
                      s.start_s, s.end_s);
        out << buf;
    }
    return static_cast<bool>(out);
}

void
Tally::check(bool ok, const std::string& what)
{
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
}

namespace {

std::string
json_string(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
json_number(double v)
{
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The first "key : value" line of /proc/cpuinfo for @p key. */
std::string
cpuinfo(const std::string& key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) != 0) continue;
        const size_t colon = line.find(':');
        if (colon == std::string::npos) continue;
        return line.substr(std::min(colon + 2, line.size()));
    }
    return "unknown";
}

std::string
environment(const Options& opt)
{
    std::istringstream flags(" " + cpuinfo("flags") + " ");
    std::vector<std::string> have;
    std::string f;
    while (flags >> f)
        for (const char* want : {"avx2", "fma", "avx512f", "amx_tile"})
            if (f == want) have.push_back(f);
    std::ostringstream os;
    os << "{\"cpu_model\":" << json_string(cpuinfo("model name"))
       << ",\"cpu_flags\":[";
    for (size_t i = 0; i < have.size(); ++i)
        os << (i ? "," : "") << json_string(have[i]);
    os << "],\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"pool_width\":" << insitu::num_threads()
       << ",\"gemm_backend\":"
       << json_string(insitu::gemm_backend_name())
       << ",\"compiler\":" << json_string("gcc " __VERSION__)
       << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
       << ",\"commit\":" << json_string(opt.commit)
       << ",\"workload\":" << json_string(opt.workload)
       << ",\"seed\":" << opt.seed
       << ",\"seconds\":" << json_number(opt.seconds)
       << ",\"trace\":" << (opt.trace ? 1 : 0)
       << ",\"command\":" << json_string(opt.command)
       << ",\"clock\":\"wall\"}";
    return os.str();
}

} // namespace

void
emit(const Options& opt, const std::vector<Metric>& metrics,
     const Tally& tally)
{
    const bool correct = tally.failed == 0;
    std::ostringstream report, result;
    report << "{\"report\":{\"environment\":" << environment(opt)
           << ",\"failures\":[";
    for (size_t i = 0; i < tally.failures.size(); ++i)
        report << (i ? "," : "") << json_string(tally.failures[i]);
    report << "],\"metrics\":{";
    result << "{\"correct\":" << (correct ? "true" : "false")
           << ",\"attempted\":" << std::max<int64_t>(tally.attempted, 1)
           << ",\"failed\":" << tally.failed << ",\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        const std::string sep = i ? "," : "";
        const std::string value = json_number(m.value);
        report << sep << json_string(m.name) << ":{\"value\":" << value
               << ",\"unit\":" << json_string(m.unit)
               << ",\"clock\":\"wall\""
               << (m.detail.empty() ? "" : "," + m.detail) << "}";
        result << sep << json_string(m.name) << ":{\"value\":" << value
               << ",\"unit\":" << json_string(m.unit) << "}";
    }
    report << "}}}";
    result << "}}";
    if (!opt.out_dir.empty()) {
        std::ofstream out(opt.out_dir + "/report-" + opt.workload +
                          "-seed" + std::to_string(opt.seed) +
                          (opt.trace ? "-trace" : "") + ".json");
        out << report.str() << "\n";
    }
    std::printf("%s\n%s\n", report.str().c_str(), result.str().c_str());
    std::fflush(stdout);
}

} // namespace perfbench
