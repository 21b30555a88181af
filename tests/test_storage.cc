/**
 * @file
 * Tests for the durable-storage subsystem: CRC framing, WAL recovery
 * (torn tails, bit rot, foreign headers), the atomic-rename snapshot
 * protocol, the storage fault shim's deterministic replay, and the
 * crash-recovery paths threaded through the node, registry, update
 * service and supervisor.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "cloud/update_service.h"
#include "data/synth.h"
#include "faults/fault_injector.h"
#include "iot/node.h"
#include "iot/supervisor.h"
#include "models/tiny.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "storage/codec.h"
#include "storage/file.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace insitu {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory under the test working dir, wiped on exit
 * (tests run inside the build tree, never against repo sources). The
 * PID keeps concurrent ctest instances of the same binary — e.g.
 * test_storage and test_storage_threads4 under `ctest -j` — from
 * scribbling over each other's files. */
class ScratchDir {
  public:
    explicit ScratchDir(const std::string& name)
        : path_("storage_scratch_" +
                std::to_string(::getpid()) + "_" + name)
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() { fs::remove_all(path_); }

    std::string file(const std::string& name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

TEST(Crc32, MatchesTheIeeeReferenceVector)
{
    // The canonical check value every CRC-32 implementation agrees on.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
    // Chaining: a split checksum equals the whole-buffer checksum.
    EXPECT_EQ(crc32("6789", crc32("12345")), crc32("123456789"));
    // Sensitivity: one flipped bit changes the sum.
    EXPECT_NE(crc32("123456788"), crc32("123456789"));
}

TEST(Codec, RoundTripsEveryFieldKind)
{
    std::string buf;
    storage::put_u32(buf, 0xDEADBEEFu);
    storage::put_u64(buf, 0x0123456789ABCDEFULL);
    storage::put_i64(buf, -42);
    storage::put_f64(buf, 0.1);
    storage::put_bytes(buf, "payload");

    storage::Reader r(buf);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), 0.1); // bit-exact, not approximately
    EXPECT_EQ(r.bytes(), "payload");
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.remaining(), 0u);

    // Reading past the end latches !ok and returns zeros, never UB.
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_FALSE(r.ok);
}

TEST(Wal, RoundTripsRecordsThroughDisk)
{
    ScratchDir dir("wal_roundtrip");
    {
        storage::Wal wal(
            storage::open_storage_file(dir.file("log.wal")));
        EXPECT_TRUE(wal.recover().records.empty());
        EXPECT_TRUE(wal.append(1, "first"));
        EXPECT_TRUE(wal.append(2, "second"));
        EXPECT_TRUE(wal.append(1, std::string("\0binary\xff", 8)));
    }
    storage::Wal wal(storage::open_storage_file(dir.file("log.wal")));
    const auto rec = wal.recover();
    EXPECT_TRUE(rec.header_ok);
    EXPECT_FALSE(rec.tail_truncated);
    ASSERT_EQ(rec.records.size(), 3u);
    EXPECT_EQ(rec.records[0].type, 1u);
    EXPECT_EQ(rec.records[0].payload, "first");
    EXPECT_EQ(rec.records[1].type, 2u);
    EXPECT_EQ(rec.records[1].payload, "second");
    EXPECT_EQ(rec.records[2].payload, std::string("\0binary\xff", 8));
}

TEST(Wal, ScanAcceptsExactlyTheCommittedPrefixAtEveryCut)
{
    // The kill-anywhere core: truncate a three-record image at every
    // byte offset; the scan must recover a clean record prefix —
    // 0, 1, 2 or 3 whole records, never a torn one.
    std::string image = storage::Wal::encode_header();
    std::vector<size_t> ends; // image size after each record
    for (uint32_t t = 1; t <= 3; ++t) {
        image += storage::Wal::encode_record(
            t, "record-payload-" + std::to_string(t));
        ends.push_back(image.size());
    }
    for (size_t cut = 0; cut <= image.size(); ++cut) {
        const auto rec =
            storage::Wal::scan(std::string_view(image).substr(0, cut));
        size_t expect = 0;
        while (expect < ends.size() && ends[expect] <= cut) ++expect;
        if (cut < 8) {
            // Inside the header: nothing recoverable.
            EXPECT_TRUE(rec.records.empty()) << "cut " << cut;
            if (cut > 0) EXPECT_FALSE(rec.header_ok) << "cut " << cut;
            continue;
        }
        EXPECT_TRUE(rec.header_ok) << "cut " << cut;
        ASSERT_EQ(rec.records.size(), expect) << "cut " << cut;
        for (size_t i = 0; i < expect; ++i)
            EXPECT_EQ(rec.records[i].payload,
                      "record-payload-" + std::to_string(i + 1));
        EXPECT_EQ(rec.tail_truncated,
                  cut != 0 && cut != 8 &&
                      (expect == 0 || ends[expect - 1] != cut))
            << "cut " << cut;
    }
}

TEST(Wal, SingleBitRotNeverYieldsATornOrForgedRecord)
{
    std::string image = storage::Wal::encode_header();
    for (uint32_t t = 1; t <= 3; ++t)
        image += storage::Wal::encode_record(
            t, "bitrot-payload-" + std::to_string(t));
    const auto clean = storage::Wal::scan(image);
    ASSERT_EQ(clean.records.size(), 3u);

    for (size_t byte = 0; byte < image.size(); ++byte) {
        std::string rotted = image;
        rotted[byte] = static_cast<char>(
            static_cast<unsigned char>(rotted[byte]) ^ 0x10);
        const auto rec = storage::Wal::scan(rotted);
        // Whatever survives must be a prefix of the clean records
        // with intact payloads — corruption can only shorten the log.
        ASSERT_LE(rec.records.size(), 3u) << "byte " << byte;
        for (size_t i = 0; i < rec.records.size(); ++i) {
            EXPECT_EQ(rec.records[i].type, clean.records[i].type)
                << "byte " << byte;
            EXPECT_EQ(rec.records[i].payload,
                      clean.records[i].payload)
                << "byte " << byte;
        }
    }
}

TEST(Wal, RecoverTruncatesTheTornTailOnDisk)
{
    ScratchDir dir("wal_trunc");
    const std::string path = dir.file("log.wal");
    {
        storage::Wal wal(storage::open_storage_file(path));
        wal.recover();
        ASSERT_TRUE(wal.append(7, "committed"));
    }
    // Power loss mid-append: half a record lands after the good one.
    {
        storage::PosixFile file(path);
        const std::string torn =
            storage::Wal::encode_record(8, "torn-away");
        ASSERT_TRUE(
            file.append(std::string_view(torn).substr(0, 9)));
    }
    storage::Wal wal(storage::open_storage_file(path));
    const auto rec = wal.recover();
    EXPECT_TRUE(rec.tail_truncated);
    ASSERT_EQ(rec.records.size(), 1u);
    EXPECT_EQ(rec.records[0].payload, "committed");
    // The tail is gone from disk: appends after recovery extend a
    // clean log.
    ASSERT_TRUE(wal.append(9, "after-recovery"));
    storage::Wal again(storage::open_storage_file(path));
    const auto rec2 = again.recover();
    EXPECT_FALSE(rec2.tail_truncated);
    ASSERT_EQ(rec2.records.size(), 2u);
    EXPECT_EQ(rec2.records[1].payload, "after-recovery");
}

TEST(Wal, ForeignOrHeadlessFilesRestartTheLog)
{
    ScratchDir dir("wal_foreign");
    const std::string path = dir.file("log.wal");
    {
        storage::PosixFile file(path);
        ASSERT_TRUE(file.append("this is not a wal file at all"));
    }
    storage::Wal wal(storage::open_storage_file(path));
    const auto rec = wal.recover();
    EXPECT_FALSE(rec.header_ok);
    EXPECT_TRUE(rec.records.empty());
    // The unusable file was wiped; the log restarts cleanly.
    ASSERT_TRUE(wal.append(1, "fresh"));
    storage::Wal again(storage::open_storage_file(path));
    const auto rec2 = again.recover();
    EXPECT_TRUE(rec2.header_ok);
    ASSERT_EQ(rec2.records.size(), 1u);
}

TEST(Snapshot, AtomicReplaceKeepsOldOrNewNeverTorn)
{
    ScratchDir dir("snap_roundtrip");
    storage::SnapshotStore store(
        storage::open_storage_file(dir.file("state.snap")));
    EXPECT_FALSE(store.read().has_value());
    ASSERT_TRUE(store.write("version-one"));
    ASSERT_EQ(store.read().value_or(""), "version-one");
    ASSERT_TRUE(store.write("version-two"));
    ASSERT_EQ(store.read().value_or(""), "version-two");
}

TEST(Snapshot, DecodeRejectsEveryKindOfDamage)
{
    const std::string frame =
        storage::SnapshotStore::encode_frame("precious payload");
    ASSERT_EQ(storage::SnapshotStore::decode_frame(frame).value_or(""),
              "precious payload");
    // Every truncation prefix: old-or-nothing, never a torn payload.
    for (size_t cut = 0; cut < frame.size(); ++cut)
        EXPECT_FALSE(storage::SnapshotStore::decode_frame(
                         std::string_view(frame).substr(0, cut))
                         .has_value())
            << "cut " << cut;
    // Every single-byte corruption is caught by magic/version/CRC.
    for (size_t byte = 0; byte < frame.size(); ++byte) {
        std::string rotted = frame;
        rotted[byte] = static_cast<char>(
            static_cast<unsigned char>(rotted[byte]) ^ 0x01);
        EXPECT_FALSE(storage::SnapshotStore::decode_frame(rotted)
                         .has_value())
            << "byte " << byte;
    }
}

TEST(Snapshot, MidCommitCrashLeavesThePreviousSnapshot)
{
    ScratchDir dir("snap_crash");
    FaultPlan plan;
    plan.crash_mid_commit_prob = 1.0; // every commit dies pre-rename
    FaultInjector injector(plan);
    {
        storage::SnapshotStore store(storage::open_storage_file(
            dir.file("state.snap"), &injector));
        // Seed the file through a clean (injector-free) store first.
        storage::SnapshotStore clean(
            storage::open_storage_file(dir.file("state.snap")));
        ASSERT_TRUE(clean.write("old-state"));
        // The faulty write *believes* it committed...
        ASSERT_TRUE(store.write("new-state"));
    }
    // ...but recovery sees the old state, whole — not a mix.
    storage::SnapshotStore store(
        storage::open_storage_file(dir.file("state.snap")));
    EXPECT_EQ(store.read().value_or(""), "old-state");
    EXPECT_EQ(injector.log().mid_commit_crashes, 1);
}

TEST(Snapshot, StaleSnapshotFaultDropsTheReplace)
{
    ScratchDir dir("snap_stale");
    FaultPlan plan;
    plan.stale_snapshot_prob = 1.0;
    FaultInjector injector(plan);
    storage::SnapshotStore clean(
        storage::open_storage_file(dir.file("state.snap")));
    ASSERT_TRUE(clean.write("old-state"));
    storage::SnapshotStore store(storage::open_storage_file(
        dir.file("state.snap"), &injector));
    ASSERT_TRUE(store.write("new-state"));
    EXPECT_EQ(clean.read().value_or(""), "old-state");
    EXPECT_EQ(injector.log().stale_snapshots, 1);
    // Unlike a mid-commit crash, no tmp file lingers.
    EXPECT_FALSE(fs::exists(dir.file("state.snap") + ".tmp"));
}

TEST(FaultyFile, TornWritesAndBitRotAreCaughtDownstream)
{
    ScratchDir dir("faulty_torn");
    FaultPlan plan;
    plan.torn_write_prob = 1.0;
    FaultInjector injector(plan);
    storage::Wal wal(storage::open_storage_file(dir.file("log.wal"),
                                                &injector));
    wal.recover();
    // The append "succeeds" (the writer can't know), but only a
    // prefix persisted; recovery sees a clean empty-or-prefix log.
    ASSERT_TRUE(wal.append(1, "doomed-payload"));
    EXPECT_GE(injector.log().torn_writes, 1);
    storage::Wal reopened(
        storage::open_storage_file(dir.file("log.wal")));
    const auto rec = reopened.recover();
    EXPECT_TRUE(rec.records.empty());
}

TEST(FaultyFile, StorageDrawsReplayIdentically)
{
    auto damage_trace = [](uint64_t seed) {
        ScratchDir dir("faulty_replay_" + std::to_string(seed));
        FaultPlan plan;
        plan.torn_write_prob = 0.5;
        plan.bit_rot_prob = 0.5;
        plan.seed = seed;
        FaultInjector injector(plan);
        std::string trace;
        storage::FaultyFile file(
            storage::open_storage_file(dir.file("out.bin")),
            &injector);
        for (int i = 0; i < 16; ++i) {
            file.append("0123456789abcdef");
            std::string content;
            storage::PosixFile(dir.file("out.bin")).read(content);
            trace += std::to_string(content.size()) + ":" +
                     std::to_string(crc32(content)) + ";";
        }
        return trace;
    };
    // Same seed, same plan -> bit-identical damage sequence.
    EXPECT_EQ(damage_trace(7), damage_trace(7));
    EXPECT_NE(damage_trace(7), damage_trace(8));
}

TEST(FaultyFile, StorageStreamIsIsolatedFromPayloadStream)
{
    // Arming storage faults must not perturb the payload-level
    // loss/corruption replay: the two kinds draw from separate
    // streams.
    FaultPlan base;
    base.payload_loss_prob = 0.3;
    base.payload_corrupt_prob = 0.3;
    base.seed = 99;
    FaultPlan with_storage = base;
    with_storage.torn_write_prob = 0.7;
    with_storage.bit_rot_prob = 0.7;

    FaultInjector a(base);
    FaultInjector b(with_storage);
    for (int i = 0; i < 200; ++i) {
        // Interleave storage draws on b only; the payload sequences
        // must stay in lockstep anyway.
        if (i % 3 == 0) {
            b.torn_write();
            b.bit_rot();
        }
        EXPECT_EQ(a.drop_payload(), b.drop_payload()) << "draw " << i;
        EXPECT_EQ(a.corrupt_payload(), b.corrupt_payload())
            << "draw " << i;
    }
}

TEST(WeightFormat, RejectsStaleVersionsAndCorruption)
{
    TinyConfig tiny;
    tiny.num_permutations = 8;
    tiny.width = 0.5;
    Rng rng(3);
    Network net = make_tiny_inference(tiny, rng);
    const std::string blob = save_weights(net);

    auto loads = [&net](const std::string& b) {
        return load_weights(net, b);
    };
    ASSERT_TRUE(loads(blob));

    // A stale format version is refused outright.
    EXPECT_GE(weight_format_version(), 2u);
    std::string stale = blob;
    stale[4] = static_cast<char>(1); // version field -> 1
    EXPECT_FALSE(loads(stale));

    // Any single flipped bit in the body is caught by the checksum.
    std::string rotted = blob;
    rotted[blob.size() / 2] = static_cast<char>(
        static_cast<unsigned char>(rotted[blob.size() / 2]) ^ 0x40);
    EXPECT_FALSE(loads(rotted));

    // Truncations anywhere are refused.
    EXPECT_FALSE(loads(blob.substr(0, blob.size() - 1)));
    EXPECT_FALSE(loads(blob.substr(0, 7)));

    // The survivor still loads: rejection left the network usable.
    EXPECT_TRUE(loads(blob));
}

/** A small two-conv, one-linear network: several parameters, so a
 * loader that writes as it parses leaves a visible partial update. */
Network
small_net(uint64_t seed)
{
    Rng rng(seed);
    Network net("small");
    net.emplace<Conv2d>("conv1", 1, 2, 3, 1, 1, rng)
        .emplace<Conv2d>("conv2", 2, 2, 3, 1, 1, rng)
        .emplace<Flatten>()
        .emplace<Linear>("fc", 2 * 4 * 4, 3, rng);
    return net;
}

TEST(WeightFormat, RejectsHostileBlobsLeavingTheNetworkBitIdentical)
{
    const std::string blob = save_weights(small_net(1));
    Network net = small_net(2); // same shapes, different weights
    const std::string before = save_weights(net);
    ASSERT_NE(blob, before);
    auto rejected_untouched = [&](std::string_view hostile) {
        return !load_weights(net, hostile) &&
               save_weights(net) == before;
    };
    // One warning per rejection would bury the test log.
    const LogLevel saved = log_level();
    set_log_level(LogLevel::kSilent);

    // Every strict prefix.
    for (size_t n = 0; n < blob.size(); ++n)
        ASSERT_TRUE(rejected_untouched(std::string_view(blob).substr(0, n)))
            << "prefix of " << n << " bytes";

    // A flipped byte anywhere in the header: magic, version,
    // body size or CRC.
    for (size_t i = 0; i < 16; ++i) {
        std::string flipped = blob;
        flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
        ASSERT_TRUE(rejected_untouched(flipped)) << "header byte " << i;
    }

    // The last parameter's shape rewritten, with the CRC recomputed
    // so the checksum passes: every earlier parameter is valid, so
    // only a loader that validates before writing leaves them alone.
    const Parameter& last = *net.params().back();
    const size_t shape_at =
        blob.size() - static_cast<size_t>(last.numel()) * sizeof(float) -
        static_cast<size_t>(last.value().rank()) * sizeof(int64_t);
    std::string reshaped = blob;
    std::string dim;
    storage::put_i64(dim, last.value().dim(0) + 1);
    reshaped.replace(shape_at, dim.size(), dim);
    std::string crc;
    storage::put_u32(crc, crc32(std::string_view(reshaped).substr(16)));
    reshaped.replace(12, crc.size(), crc);
    EXPECT_TRUE(rejected_untouched(reshaped));
    set_log_level(saved);

    // The untouched network still takes the valid blob.
    EXPECT_TRUE(load_weights(net, blob));
    EXPECT_EQ(save_weights(net), blob);
}

TEST(NodeCheckpointCodec, RoundTripsAndRejectsDamage)
{
    NodeCheckpoint ckpt;
    ckpt.inference_blob = "inference-bytes";
    ckpt.trunk_blob = "trunk-bytes";
    ckpt.head_blob = "head-bytes";
    const std::string payload = encode_checkpoint(ckpt);

    NodeCheckpoint out;
    ASSERT_TRUE(decode_checkpoint(payload, out));
    EXPECT_EQ(out.inference_blob, "inference-bytes");
    EXPECT_EQ(out.trunk_blob, "trunk-bytes");
    EXPECT_EQ(out.head_blob, "head-bytes");

    for (size_t cut = 0; cut < payload.size(); ++cut) {
        NodeCheckpoint t;
        EXPECT_FALSE(decode_checkpoint(
            std::string_view(payload).substr(0, cut), t))
            << "cut " << cut;
    }
    for (size_t byte = 0; byte < payload.size(); ++byte) {
        std::string rotted = payload;
        rotted[byte] = static_cast<char>(
            static_cast<unsigned char>(rotted[byte]) ^ 0x08);
        NodeCheckpoint t;
        EXPECT_FALSE(decode_checkpoint(rotted, t)) << "byte " << byte;
    }
}

TEST(NodeDurability, SaveAndRestoreRoundTripThroughDisk)
{
    ScratchDir dir("node_disk");
    TinyConfig tiny;
    tiny.num_permutations = 8;
    tiny.width = 0.5;
    ModelUpdateService cloud(tiny, titan_x_spec(), 3);
    ModelUpdateService other(tiny, titan_x_spec(), 99);
    InsituNode node(tiny, cloud.permutations(), 3, DiagnosisConfig{},
                    17);
    node.deploy_diagnosis(cloud.jigsaw());
    node.deploy_inference(cloud.inference());

    storage::SnapshotStore store(
        storage::open_storage_file(dir.file("node.ckpt")));
    ASSERT_TRUE(node.save_checkpoint(store));

    // Crash scribble, then reboot from flash.
    node.deploy_diagnosis(other.jigsaw());
    node.deploy_inference(other.inference());
    ASSERT_TRUE(node.restore_from(store));

    const auto want = cloud.inference().params();
    const auto got = node.inference().network().params();
    ASSERT_EQ(want.size(), got.size());
    for (size_t p = 0; p < want.size(); ++p)
        for (int64_t i = 0; i < want[p]->numel(); ++i)
            ASSERT_EQ(got[p]->value().at(i), want[p]->value().at(i));

    // A missing file restores nothing and fails cleanly.
    storage::SnapshotStore empty(
        storage::open_storage_file(dir.file("absent.ckpt")));
    EXPECT_FALSE(node.restore_from(empty));
}

TEST(RegistryWal, VersionHistoryReplaysAfterACloudCrash)
{
    ScratchDir dir("registry_wal");
    TinyConfig tiny;
    tiny.num_permutations = 8;
    tiny.width = 0.5;

    std::string want_weights;
    std::vector<ModelVersion> want_versions;
    int64_t want_images = 0;
    {
        ModelUpdateService cloud(tiny, titan_x_spec(), 5);
        storage::Wal wal(
            storage::open_storage_file(dir.file("registry.wal")));
        wal.recover();
        cloud.attach_wal(&wal);

        Rng rng(11);
        const Dataset data =
            make_dataset(SynthConfig{}, 24, Condition::ideal(), rng);
        const Dataset holdout =
            make_dataset(SynthConfig{}, 16, Condition::ideal(), rng);
        cloud.registry().commit(cloud.inference(), "bootstrap", 0.5,
                                0);
        UpdatePolicy policy;
        policy.epochs = 1;
        cloud.validated_update(data, policy, holdout, 1.0);
        // An explicit rollback event also lands in the log.
        ASSERT_TRUE(cloud.rollback_to(1, "canary-rollback"));

        want_versions = cloud.registry().versions();
        want_images = cloud.images_received();
        want_weights = save_weights(cloud.inference());
    }

    // The "crashed" cloud is rebuilt from nothing but the WAL.
    ModelUpdateService recovered(tiny, titan_x_spec(), 5);
    storage::Wal wal(
        storage::open_storage_file(dir.file("registry.wal")));
    const auto rec = wal.recover();
    EXPECT_TRUE(rec.header_ok);
    recovered.attach_wal(&wal);
    EXPECT_EQ(recovered.recover(rec.records), want_versions.size());

    ASSERT_EQ(recovered.registry().versions().size(),
              want_versions.size());
    for (size_t i = 0; i < want_versions.size(); ++i) {
        const auto& got = recovered.registry().versions()[i];
        EXPECT_EQ(got.id, want_versions[i].id);
        EXPECT_EQ(got.tag, want_versions[i].tag);
        EXPECT_EQ(got.validation_accuracy,
                  want_versions[i].validation_accuracy);
        EXPECT_EQ(got.trained_images, want_versions[i].trained_images);
    }
    EXPECT_EQ(recovered.images_received(), want_images);
    // The recovered inference network is byte-identical to the one
    // the crash interrupted.
    EXPECT_EQ(save_weights(recovered.inference()), want_weights);
    // The rollback decision survived as its own record.
    bool saw_rollback = false;
    for (const auto& r : rec.records)
        if (r.type == kWalCloudRollback) saw_rollback = true;
    EXPECT_TRUE(saw_rollback);
}

TEST(SupervisorState, RoundTripsBreakersHealthAndCanary)
{
    FleetSupervisor sup(3);
    // Exercise some state: breaker failures, health, a quarantine
    // and a pending canary.
    sup.breaker(0).on_failure(1.0);
    sup.breaker(0).on_failure(2.0);
    sup.breaker(0).on_failure(3.0); // opens
    for (int stage = 0; stage < 3; ++stage) {
        for (size_t i = 0; i < 3; ++i) {
            NodeStageObservation obs;
            obs.crashed = (i == 2); // node 2 crash-loops
            obs.flag_rate = 0.25;
            obs.accuracy = 0.75;
            obs.has_accuracy = !obs.crashed;
            sup.observe(i, obs);
        }
        sup.end_stage(stage);
    }
    sup.start_canary(3, {1}, 7, 6, 0.8, 0.2);
    ASSERT_TRUE(sup.quarantined(2));
    ASSERT_EQ(sup.breaker(0).state(), BreakerState::kOpen);

    const std::string blob = sup.encode_state();
    FleetSupervisor restored(3);
    ASSERT_TRUE(restored.restore_state(blob));
    EXPECT_EQ(restored.encode_state(), blob); // bit-identical round trip
    EXPECT_TRUE(restored.quarantined(2));
    EXPECT_EQ(restored.breaker(0).state(), BreakerState::kOpen);
    EXPECT_EQ(restored.breaker(0).opens(), sup.breaker(0).opens());
    EXPECT_TRUE(restored.canary_pending());
    EXPECT_EQ(restored.canary().accepted_version, 7);
    EXPECT_EQ(restored.canary().nodes, std::vector<int>{1});
    EXPECT_EQ(restored.health(2).crashes, sup.health(2).crashes);

    // Wrong fleet size, truncation and bit rot are all refused,
    // leaving the target untouched.
    FleetSupervisor wrong(4);
    EXPECT_FALSE(wrong.restore_state(blob));
    FleetSupervisor fresh(3);
    const std::string fresh_state = fresh.encode_state();
    EXPECT_FALSE(fresh.restore_state(
        std::string_view(blob).substr(0, blob.size() / 2)));
    std::string rotted = blob;
    rotted[0] = static_cast<char>(
        static_cast<unsigned char>(rotted[0]) ^ 0x01);
    EXPECT_FALSE(fresh.restore_state(rotted));
    EXPECT_EQ(fresh.encode_state(), fresh_state);
}

/** A supervisor of @p nodes whose last node crash-loops into
 * quarantine and then shows one clean stage. */
FleetSupervisor
quarantined_supervisor(size_t nodes)
{
    FleetSupervisor sup(nodes);
    for (int stage = 0; stage < 3; ++stage) {
        for (size_t i = 0; i < nodes; ++i) {
            NodeStageObservation obs;
            obs.crashed = i + 1 == nodes && stage < 2;
            obs.has_accuracy = !obs.crashed;
            sup.observe(i, obs);
        }
        sup.end_stage(stage);
    }
    return sup;
}

TEST(SupervisorState, V3RecordIsFixedWidthAndRefusesV1AndBadWindows)
{
    FleetSupervisor sup = quarantined_supervisor(3);
    ASSERT_TRUE(sup.quarantined(2));
    EXPECT_EQ(sup.health(2).quarantine.faults, 0b110);
    EXPECT_EQ(sup.health(2).quarantine.clean_streak, 1);
    const std::string blob = sup.encode_state();

    // v3 round trip restores the window bytes exactly.
    FleetSupervisor restored(3);
    ASSERT_TRUE(restored.restore_state(blob));
    EXPECT_EQ(restored.encode_state(), blob);
    EXPECT_TRUE(restored.quarantined(2));
    EXPECT_EQ(restored.health(2).quarantine.faults, 0b110);
    EXPECT_EQ(restored.health(2).quarantine.clean_streak, 1);

    // Fixed width: one more node adds one 87-byte record (52 breaker
    // + 32 health + 3 window), whatever the nodes' fault history.
    constexpr size_t kRecord = 87;
    EXPECT_EQ(quarantined_supervisor(4).encode_state().size(),
              blob.size() + kRecord);
    EXPECT_EQ(FleetSupervisor(3).encode_state().size(), blob.size());

    FleetSupervisor target(3);
    const std::string before = target.encode_state();

    // A v1 blob of the same fleet (variable-length fault deques) is
    // refused by version.
    std::string v1;
    storage::put_u32(v1, 0x1A5170A5u);
    storage::put_u32(v1, 1u);
    storage::put_u64(v1, 3);
    for (int i = 0; i < 3; ++i) {
        storage::put_u32(v1, 0); // breaker closed
        for (int k = 0; k < 6; ++k) storage::put_i64(v1, 0);
        for (int k = 0; k < 4; ++k) storage::put_i64(v1, 0);
        storage::put_f64(v1, 0);
        storage::put_f64(v1, 0);
        storage::put_u32(v1, 0);    // quarantined
        storage::put_i64(v1, 0);    // healthy streak
        storage::put_u64(v1, 0);    // no recent faults
    }
    storage::put_u32(v1, 0); // no canary
    storage::put_i64(v1, -1);
    storage::put_u64(v1, 0);
    for (int k = 0; k < 2; ++k) storage::put_i64(v1, 0);
    storage::put_f64(v1, 0);
    storage::put_f64(v1, 0);
    EXPECT_FALSE(target.restore_state(v1));

    // Window bytes quarantine_step could never produce are refused:
    // fault bits beyond the 3-stage window, a flag other than 0/1, a
    // streak that should already have readmitted, a streak outside
    // quarantine.
    const size_t header = 16;
    const size_t window = header + 2 * kRecord + 84; // node 2
    const struct {
        size_t offset;
        unsigned char value;
    } damage[] = {
        {window + 0, 0b1110}, // faults
        {window + 2, 2},      // quarantined
        {window + 1, 2},      // clean streak >= readmit_after
        {header + 84 + 1, 1}  // node 0: streak while admitted
    };
    for (const auto& d : damage) {
        std::string bad = blob;
        bad[d.offset] = static_cast<char>(d.value);
        EXPECT_FALSE(target.restore_state(bad)) << "offset " << d.offset;
    }
    EXPECT_EQ(target.encode_state(), before);
}

TEST(SupervisorState, RefusesV2RecordWithTheDroppedFields)
{
    // A well-formed v2 blob of a healthy 3-node fleet: the v3 record
    // plus each node's last flag rate and accuracy, which v3 drops.
    std::string v2;
    storage::put_u32(v2, 0x1A5170A5u);
    storage::put_u32(v2, 2u);
    storage::put_u64(v2, 3);
    for (int i = 0; i < 3; ++i) {
        storage::put_u32(v2, 0);                      // breaker closed
        for (int k = 0; k < 2; ++k) storage::put_i64(v2, 0);
        storage::put_f64(v2, 0);                      // retry_at
        for (int k = 0; k < 3; ++k) storage::put_i64(v2, 0);
        for (int k = 0; k < 4; ++k) storage::put_i64(v2, 0);
        storage::put_f64(v2, 0.25);                   // last flag rate
        storage::put_f64(v2, 0.75);                   // last accuracy
        v2.append(3, '\0');                           // crash window
    }
    storage::put_u32(v2, 0); // no canary
    storage::put_i64(v2, -1);
    storage::put_u64(v2, 0);
    for (int k = 0; k < 2; ++k) storage::put_i64(v2, 0);
    storage::put_f64(v2, 0);
    storage::put_f64(v2, 0);

    FleetSupervisor target(3);
    const std::string before = target.encode_state();
    // The v3 blob of the same fleet is the v2 one without 16 bytes
    // per node and with its own version.
    ASSERT_EQ(v2.size(), before.size() + 3 * 16);
    EXPECT_FALSE(target.restore_state(v2));
    // Relabelled v3, the v2 layout is still refused: its records are
    // 16 bytes longer than the decoder reads.
    std::string relabelled = v2;
    relabelled[4] = 3;
    EXPECT_FALSE(target.restore_state(relabelled));
    EXPECT_EQ(target.encode_state(), before);
}

} // namespace
} // namespace insitu
