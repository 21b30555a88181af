/**
 * @file
 * Kill-anywhere recovery harness for the durable-storage subsystem.
 *
 * Four sweeps, each simulating power loss at *every* interesting
 * point of a durable write, then asserting the crash-consistency
 * contract: recovery always lands on old-or-new committed state,
 * never a torn hybrid.
 *
 *   1. WAL truncation: a multi-record log image cut at every byte
 *      offset must recover to exactly a prefix of its records.
 *   2. WAL bit rot: every single-bit flip must shorten the log (or
 *      leave it whole) — never forge or tear a record.
 *   3. Snapshot commit protocol: a crash at every byte of the staged
 *      tmp file, and just before/after the rename, must leave the old
 *      or the new snapshot readable, whole.
 *   4. Registry kill-anywhere: a real cloud's version history (commit,
 *      validated update, canary rollback) is recorded to a WAL; the
 *      log is cut at every offset and replayed into a fresh cloud,
 *      which must land on a committed prefix of the history with the
 *      matching weights, byte for byte.
 *
 * Then the end-to-end drill: a supervised, storage-fault-injected
 * durable fleet is killed between stages and rebuilt from nothing but
 * its durable directory — node checkpoints, registry WAL, supervisor
 * state and stage counter all resume. The whole program prints a
 * deterministic transcript; the check_recovery ctest byte-diffs it
 * at INSITU_THREADS=1 and 4.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "iot/fleet.h"
#include "nn/serialize.h"
#include "storage/file.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

using namespace insitu;
namespace fs = std::filesystem;

namespace {

[[noreturn]] void
fail(const std::string& what)
{
    std::printf("crash_recovery: FAILED (%s)\n", what.c_str());
    std::exit(1);
}

void
require(bool ok, const std::string& what)
{
    if (!ok) fail(what);
}

/** Sweep 1+2: the WAL's prefix-consistency contract, in memory. */
void
sweep_wal()
{
    std::string image = storage::Wal::encode_header();
    std::vector<size_t> ends;
    for (uint32_t t = 1; t <= 4; ++t) {
        image += storage::Wal::encode_record(
            t, "record-" + std::to_string(t) + "-payload");
        ends.push_back(image.size());
    }

    size_t torn_cuts = 0;
    for (size_t cut = 0; cut <= image.size(); ++cut) {
        const auto rec =
            storage::Wal::scan(std::string_view(image).substr(0, cut));
        size_t committed = 0;
        while (committed < ends.size() && ends[committed] <= cut)
            ++committed;
        if (cut < 8) {
            require(rec.records.empty(), "records before the header");
            continue;
        }
        require(rec.records.size() == committed,
                "cut " + std::to_string(cut) + " recovered " +
                    std::to_string(rec.records.size()) + " records, " +
                    "committed prefix is " + std::to_string(committed));
        for (size_t i = 0; i < committed; ++i)
            require(rec.records[i].payload ==
                        "record-" + std::to_string(i + 1) + "-payload",
                    "torn payload at cut " + std::to_string(cut));
        if (rec.tail_truncated) ++torn_cuts;
    }
    std::printf("[wal] truncation sweep: %zu cuts over %zu records, "
                "every recovery a committed prefix (%zu torn tails "
                "dropped)\n",
                image.size() + 1, ends.size(), torn_cuts);

    size_t shortened = 0;
    for (size_t byte = 0; byte < image.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string rotted = image;
            rotted[byte] = static_cast<char>(
                static_cast<unsigned char>(rotted[byte]) ^ (1u << bit));
            const auto rec = storage::Wal::scan(rotted);
            require(rec.records.size() <= ends.size(),
                    "bit rot forged a record");
            for (size_t i = 0; i < rec.records.size(); ++i)
                require(rec.records[i].payload ==
                            "record-" + std::to_string(i + 1) +
                                "-payload",
                        "bit rot tore record " + std::to_string(i));
            if (rec.records.size() < ends.size()) ++shortened;
        }
    }
    std::printf("[wal] bit-rot sweep: %zu single-bit flips, 0 forged "
                "or torn records (%zu flips shortened the log)\n",
                image.size() * 8, shortened);
}

/** Sweep 3: the snapshot stage-then-rename protocol, on disk. */
void
sweep_snapshot(const std::string& dir)
{
    const std::string path = dir + "/sweep.snap";
    const std::string old_frame =
        storage::SnapshotStore::encode_frame("old-snapshot-state");
    const std::string new_frame =
        storage::SnapshotStore::encode_frame("new-snapshot-state");

    // Crash while staging: the final path still holds the old frame,
    // whatever fraction of the tmp file made it to disk.
    for (size_t cut = 0; cut <= new_frame.size(); ++cut) {
        {
            storage::PosixFile file(path);
            file.remove();
            file.append(old_frame);
            storage::PosixFile tmp(path + ".tmp");
            tmp.append(std::string_view(new_frame).substr(0, cut));
        }
        storage::SnapshotStore store(storage::open_storage_file(path));
        require(store.read().value_or("") == "old-snapshot-state",
                "staged tmp leaked into a read at cut " +
                    std::to_string(cut));
    }
    // Crash after the rename: the new frame, whole.
    {
        storage::PosixFile file(path);
        file.remove();
        file.append(new_frame);
        fs::remove(path + ".tmp");
    }
    storage::SnapshotStore store(storage::open_storage_file(path));
    require(store.read().value_or("") == "new-snapshot-state",
            "post-rename read lost the new snapshot");
    std::printf("[snapshot] commit-protocol sweep: %zu mid-stage "
                "crashes read old, post-rename reads new, 0 torn\n",
                new_frame.size() + 1);
}

/** Sweep 4: kill-anywhere over a real registry WAL. */
void
sweep_registry(const std::string& dir)
{
    TinyConfig tiny;
    tiny.num_permutations = 8;
    tiny.width = 0.5;
    const std::string wal_path = dir + "/registry.wal";

    std::vector<ModelVersion> final_versions;
    std::string final_weights;
    {
        ModelUpdateService cloud(tiny, titan_x_spec(), 5);
        storage::Wal wal(storage::open_storage_file(wal_path));
        wal.recover();
        cloud.attach_wal(&wal);

        Rng rng(11);
        const Dataset data =
            make_dataset(SynthConfig{}, 24, Condition::ideal(), rng);
        const Dataset holdout =
            make_dataset(SynthConfig{}, 16, Condition::ideal(), rng);
        cloud.registry().commit(cloud.inference(), "bootstrap", 0.5, 0);
        UpdatePolicy policy;
        policy.epochs = 1;
        cloud.validated_update(data, policy, holdout, 1.0);
        require(cloud.rollback_to(1, "canary-rollback"),
                "rollback_to refused a known version");
        final_versions = cloud.registry().versions();
        final_weights = save_weights(cloud.inference());
    }

    std::string image;
    require(storage::PosixFile(wal_path).read(image),
            "registry WAL unreadable");
    const size_t stride = image.size() > 4096 ? image.size() / 4096 : 1;

    size_t cuts = 0;
    size_t max_versions = 0;
    for (size_t cut = 0; cut <= image.size();
         cut = (cut == image.size() ? cut + 1 : std::min(cut + stride,
                                                         image.size()))) {
        ++cuts;
        const std::string cut_path = dir + "/registry_cut.wal";
        {
            storage::PosixFile file(cut_path);
            file.remove();
            file.append(std::string_view(image).substr(0, cut));
        }
        ModelUpdateService recovered(tiny, titan_x_spec(), 5);
        storage::Wal wal(storage::open_storage_file(cut_path));
        const auto rec = wal.recover();
        recovered.recover(rec.records);

        const auto& got = recovered.registry().versions();
        require(got.size() >= max_versions,
                "recovered history shrank as the cut grew");
        max_versions = got.size();
        require(got.size() <= final_versions.size(),
                "recovered more versions than were committed");
        for (size_t i = 0; i < got.size(); ++i) {
            const auto& want = final_versions[i];
            require(got[i].id == want.id && got[i].tag == want.tag &&
                        got[i].validation_accuracy ==
                            want.validation_accuracy &&
                        got[i].trained_images == want.trained_images,
                    "recovered version " + std::to_string(i) +
                        " differs from the committed history");
        }
        if (got.size() == final_versions.size()) {
            require(save_weights(recovered.inference()) == final_weights,
                    "full-log recovery changed the weights");
        }
    }
    require(max_versions == final_versions.size(),
            "the untruncated log did not recover the full history");
    std::printf("[registry] kill-anywhere sweep: %zu cuts (stride "
                "%zu), history always a committed prefix of %zu "
                "versions, weights byte-identical at the full log\n",
                cuts, stride, final_versions.size());
}

/** The end-to-end drill: kill a durable chaos fleet, rebuild it. */
FleetConfig
durable_config(const std::string& dir)
{
    FleetConfig c;
    c.tiny.num_permutations = 8;
    c.tiny.width = 0.5;
    c.update_epochs = 1;
    c.pretrain_epochs = 1;
    c.node_severity_offset = {0.0, 0.1, 0.2};
    c.stage_window_s = 60.0;
    c.holdout_images = 24;
    c.seed = 42;
    c.faults.payload_loss_prob = 0.10;
    c.faults.crashes = {{0, 1}, {1, 1}}; // node 1 crash-loops
    // Flash is failing too: torn appends, bit rot, commit crashes.
    c.faults.torn_write_prob = 0.05;
    c.faults.bit_rot_prob = 0.03;
    c.faults.crash_mid_commit_prob = 0.05;
    c.faults.stale_snapshot_prob = 0.05;
    c.faults.seed = 0xC0FFEE;
    c.supervised = true;
    c.durable_dir = dir;
    return c;
}

void
print_stage(const FleetStageReport& r)
{
    std::printf("[fleet] stage %d: uploads=%lld crashed=%lld "
                "quarantined=%lld rolled_back=%d acc=%.4f\n",
                r.stage, static_cast<long long>(r.pooled_uploads),
                static_cast<long long>(r.crashed_nodes),
                static_cast<long long>(r.quarantined_nodes),
                r.rolled_back ? 1 : 0, r.mean_accuracy_after);
}

void
drill_fleet(const std::string& dir)
{
    const int64_t kImages = 8;
    const double kSeverity = 0.2;

    {
        FleetSim fleet(durable_config(dir));
        const double boot = fleet.bootstrap(10, kSeverity);
        std::printf("[fleet] bootstrap: acc=%.4f (durable=%d)\n", boot,
                    fleet.durable() ? 1 : 0);
        print_stage(fleet.run_stage(kImages, kSeverity));
        print_stage(fleet.run_stage(kImages, kSeverity));
        // kill -9: the FleetSim is dropped here with no farewell
        // write; everything below starts from the durable dir alone.
    }

    // The black box survived the kill: decode the flight dump the
    // dead fleet persisted with its last stage and print its final
    // words — the post-mortem a real deployment would start from.
    {
        storage::SnapshotStore flight(
            storage::open_storage_file(dir + "/flight.dump"));
        const auto blob = flight.read();
        require(blob.has_value(), "flight dump missing after the kill");
        std::vector<obs::FlightEvent> events;
        int64_t total = 0;
        require(obs::FlightRecorder::decode(*blob, events, &total),
                "flight dump failed to decode");
        require(!events.empty(), "flight dump was empty");
        std::printf("[fleet] flight dump: %zu events (%lld lifetime), "
                    "last: %s %s\n",
                    events.size(), static_cast<long long>(total),
                    events.back().what.c_str(),
                    events.back().detail.c_str());
    }

    FleetSim fleet(durable_config(dir));
    const bool recovered = fleet.recover_from_storage();
    require(recovered, "recover_from_storage found nothing");
    require(fleet.stage_index() == 2,
            "stage counter did not survive the kill");
    std::printf("[fleet] recovered: stage_index=%d versions=%zu "
                "quarantined=[%d,%d,%d]\n",
                fleet.stage_index(),
                fleet.cloud().registry().versions().size(),
                fleet.supervisor()->quarantined(0) ? 1 : 0,
                fleet.supervisor()->quarantined(1) ? 1 : 0,
                fleet.supervisor()->quarantined(2) ? 1 : 0);
    print_stage(fleet.run_stage(kImages, kSeverity));
}

} // namespace

int
main()
{
    std::printf("== crash_recovery: kill-anywhere durability "
                "harness ==\n");
    // INSITU_STATE_DIR=<dir>: run against (and keep) an external
    // state directory, so the check_recovery ctest can byte-diff
    // the surviving durable files — the flight dump in particular —
    // across thread widths after the process exits.
    const char* keep = std::getenv("INSITU_STATE_DIR");
    const bool keep_state = keep != nullptr && *keep != '\0';
    const std::string dir =
        keep_state ? std::string(keep) : "crash_recovery_state";
    fs::remove_all(dir);
    fs::create_directories(dir);

    sweep_wal();
    sweep_snapshot(dir);
    sweep_registry(dir);
    drill_fleet(dir + "/fleet");

    if (!keep_state) fs::remove_all(dir);
    std::printf("crash_recovery: OK\n");
    return 0;
}
