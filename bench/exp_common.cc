#include "exp_common.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "nn/optimizer.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/csv.h"

namespace insitu::bench {

namespace {

/// atexit hook: with INSITU_TELEMETRY_JSONL=<path> set, every bench
/// binary leaves the same JSONL export `chaos_fleet` writes, without
/// per-bench code — banner() is the only touch point.
void
write_telemetry_jsonl()
{
    const char* path = std::getenv("INSITU_TELEMETRY_JSONL");
    if (path == nullptr || *path == '\0') return;
    if (obs::export_jsonl_file(path))
        std::printf("telemetry written to %s\n", path);
    else
        std::fprintf(stderr, "[warn] could not write %s\n", path);
}

} // namespace

void
banner(const std::string& id, const std::string& title,
       const std::string& paper_claim)
{
    static bool hooked = false;
    if (!hooked) {
        hooked = true;
        // Touch the telemetry singletons before registering the
        // atexit hook: they are function-local statics, so being
        // constructed first guarantees they outlive the hook.
        obs::MetricsRegistry::global();
        obs::TraceRecorder::global();
        obs::TelemetryClock::global();
        std::atexit(write_telemetry_jsonl);
    }
    std::printf("==============================================\n");
    std::printf("%s — %s\n", id.c_str(), title.c_str());
    std::printf("paper: %s\n", paper_claim.c_str());
    std::printf("==============================================\n");
}

void
verdict(bool shape_holds, const std::string& detail)
{
    std::printf("[%s] %s\n\n", shape_holds ? "SHAPE-OK" : "SHAPE-MISS",
                detail.c_str());
}

void
maybe_write_csv(const std::string& id, const TablePrinter& table)
{
    const char* dir = std::getenv("INSITU_BENCH_CSV_DIR");
    if (dir == nullptr || *dir == '\0') return;
    CsvWriter csv(table.headers());
    for (const auto& row : table.rows()) csv.add_row(row);
    const std::string path = std::string(dir) + "/" + id + ".csv";
    if (csv.write_file(path))
        std::printf("wrote %s\n", path.c_str());
}

double
fit(Network& net, const Dataset& data, const TrainScale& scale,
    int epochs_override)
{
    Sgd opt({.lr = scale.lr, .momentum = 0.9});
    Rng rng(scale.seed ^ 0xF17);
    const auto t0 = std::chrono::steady_clock::now();
    train_epochs(net, opt, data.images, data.labels, scale.batch_size,
                 epochs_override >= 0 ? epochs_override : scale.epochs,
                 rng);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall =
        std::chrono::duration<double>(t1 - t0).count();
    static auto& fit_time = obs::MetricsRegistry::global().histogram(
        "bench.stage.fit.wall_s");
    fit_time.observe(wall);
    return wall;
}

double
accuracy(Network& net, const Dataset& data)
{
    const auto t0 = std::chrono::steady_clock::now();
    const double acc =
        evaluate_accuracy(net, data.images, data.labels);
    static auto& eval_time = obs::MetricsRegistry::global().histogram(
        "bench.stage.eval.wall_s");
    eval_time.observe(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    return acc;
}

double
pretrain_jigsaw(JigsawNetwork& jigsaw, const PermutationSet& perms,
                const Tensor& raw, int epochs, Rng& rng)
{
    Sgd opt({.lr = 0.015, .momentum = 0.9});
    const auto t0 = std::chrono::steady_clock::now();
    static auto& pretrain_time =
        obs::MetricsRegistry::global().histogram(
            "bench.stage.pretrain.wall_s");
    const int64_t n = raw.dim(0);
    const int64_t batch = 16;
    for (int e = 0; e < epochs; ++e) {
        for (int64_t begin = 0; begin < n; begin += batch) {
            const int64_t end = std::min(n, begin + batch);
            const JigsawBatch jb =
                make_jigsaw_batch(raw.slice0(begin, end), perms, rng);
            jigsaw.train_batch(opt, jb);
        }
    }
    pretrain_time.observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
    Rng eval_rng(7);
    return jigsaw.evaluate(raw, perms, eval_rng);
}

} // namespace insitu::bench
