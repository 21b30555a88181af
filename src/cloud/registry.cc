#include "cloud/registry.h"

#include "nn/serialize.h"
#include "obs/metrics.h"
#include "storage/codec.h"
#include "storage/wal.h"
#include "util/logging.h"

namespace insitu {

namespace {

/** WAL payload of one commit: metadata, then the weight blob. */
std::string
encode_commit(const ModelVersion& v, const std::string& blob)
{
    std::string out;
    storage::put_i64(out, v.id);
    storage::put_bytes(out, v.tag);
    storage::put_f64(out, v.validation_accuracy);
    storage::put_i64(out, v.trained_images);
    storage::put_bytes(out, blob);
    return out;
}

bool
decode_commit(const std::string& payload, ModelVersion& v,
              std::string& blob)
{
    storage::Reader r(payload);
    v.id = r.i64();
    v.tag = r.bytes();
    v.validation_accuracy = r.f64();
    v.trained_images = r.i64();
    blob = r.bytes();
    return r.ok && r.remaining() == 0;
}

bool
restore_from_state(const std::vector<ModelVersion>& versions,
                   const std::vector<std::shared_ptr<const std::string>>&
                       blobs,
                   int64_t id, Network& net)
{
    if (id < 1 || id > static_cast<int64_t>(versions.size())) {
        warn("unknown model version " + std::to_string(id));
        return false;
    }
    return load_weights(net, *blobs[static_cast<size_t>(id - 1)]);
}

} // namespace

std::optional<ModelVersion>
ModelRegistry::Snapshot::find(int64_t id) const
{
    if (id < 1 || id > static_cast<int64_t>(state_->versions.size()))
        return std::nullopt;
    return state_->versions[static_cast<size_t>(id - 1)];
}

std::optional<ModelVersion>
ModelRegistry::Snapshot::latest() const
{
    if (state_->versions.empty()) return std::nullopt;
    return state_->versions.back();
}

bool
ModelRegistry::Snapshot::restore(int64_t id, Network& net) const
{
    return restore_from_state(state_->versions, state_->blobs, id,
                              net);
}

int64_t
ModelRegistry::commit(const Network& net, std::string tag,
                      double validation_accuracy,
                      int64_t trained_images)
{
    auto blob = std::make_shared<const std::string>(save_weights(net));
    ModelVersion v;
    v.id = static_cast<int64_t>(state_->versions.size()) + 1;
    v.tag = std::move(tag);
    v.validation_accuracy = validation_accuracy;
    v.trained_images = trained_images;
    // Copy-on-write publish: the new block shares every existing
    // blob pointer; snapshot holders keep the block they captured.
    auto next = std::make_shared<State>(*state_);
    next->versions.push_back(v);
    next->blobs.push_back(std::move(blob));
    if (wal_ != nullptr)
        wal_->append(kWalRegistryCommit,
                     encode_commit(v, *next->blobs.back()));
    state_ = std::move(next);
    static auto& commits = obs::MetricsRegistry::global().counter(
        "cloud.registry.commits");
    commits.add(1);
    return v.id;
}

size_t
ModelRegistry::replay(const std::vector<storage::WalRecord>& records)
{
    auto next = std::make_shared<State>(*state_);
    size_t applied = 0;
    for (const auto& rec : records) {
        if (rec.type != kWalRegistryCommit) continue;
        ModelVersion v;
        std::string blob;
        if (!decode_commit(rec.payload, v, blob)) {
            warn("skipping malformed registry WAL record");
            continue;
        }
        if (v.id != static_cast<int64_t>(next->versions.size()) + 1) {
            warn("skipping out-of-order registry WAL record " +
                 std::to_string(v.id));
            continue;
        }
        next->versions.push_back(std::move(v));
        next->blobs.push_back(
            std::make_shared<const std::string>(std::move(blob)));
        ++applied;
    }
    if (applied > 0) state_ = std::move(next);
    return applied;
}

bool
ModelRegistry::restore(int64_t id, Network& net) const
{
    return restore_from_state(state_->versions, state_->blobs, id,
                              net);
}

std::optional<ModelVersion>
ModelRegistry::find(int64_t id) const
{
    if (id < 1 || id > static_cast<int64_t>(state_->versions.size()))
        return std::nullopt;
    return state_->versions[static_cast<size_t>(id - 1)];
}

std::optional<ModelVersion>
ModelRegistry::best() const
{
    std::optional<ModelVersion> out;
    for (const auto& v : state_->versions) {
        if (!out || v.validation_accuracy > out->validation_accuracy)
            out = v;
    }
    return out;
}

std::optional<ModelVersion>
ModelRegistry::latest() const
{
    if (state_->versions.empty()) return std::nullopt;
    return state_->versions.back();
}

std::optional<int64_t>
ModelRegistry::rollback_if_regressed(Network& net, double tolerance)
{
    const auto latest_v = latest();
    const auto best_v = best();
    if (!latest_v || !best_v) return std::nullopt;
    if (latest_v->validation_accuracy + tolerance >=
        best_v->validation_accuracy)
        return std::nullopt;
    INSITU_CHECK(restore(best_v->id, net),
                 "stored snapshot failed to restore");
    return best_v->id;
}

} // namespace insitu
