#include "iot/node.h"

#include "nn/serialize.h"
#include "storage/codec.h"
#include "storage/snapshot.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace insitu {

namespace {

// Checkpoint payload framing (inside the SnapshotStore frame, which
// already authenticates the bytes; this header pins the *meaning* of
// those bytes so a layout change can never be misread).
constexpr uint32_t kCkptMagic = 0x1A51'70A4u;
constexpr uint32_t kCkptVersion = 1u;

/** Assemble the node's weight-shared task pair. */
JigsawNetwork
make_shared_jigsaw(const TinyConfig& config, Network& inference,
                   size_t shared_convs, Rng& rng)
{
    Network trunk = make_tiny_trunk(config, rng);
    trunk.share_convs_from(inference, shared_convs);
    return JigsawNetwork(std::move(trunk),
                         make_tiny_jigsaw_head(config, rng));
}

} // namespace

std::string
encode_checkpoint(const NodeCheckpoint& ckpt)
{
    std::string body;
    storage::put_bytes(body, ckpt.inference_blob);
    storage::put_bytes(body, ckpt.trunk_blob);
    storage::put_bytes(body, ckpt.head_blob);

    std::string out;
    storage::put_u32(out, kCkptMagic);
    storage::put_u32(out, kCkptVersion);
    storage::put_u32(out, crc32(body));
    out += body;
    return out;
}

bool
decode_checkpoint(std::string_view payload, NodeCheckpoint& out)
{
    storage::Reader r(payload);
    const uint32_t magic = r.u32();
    const uint32_t version = r.u32();
    const uint32_t crc = r.u32();
    if (!r.ok || magic != kCkptMagic || version != kCkptVersion)
        return false;
    const std::string_view body = payload.substr(12);
    if (crc32(body) != crc) return false;

    NodeCheckpoint ckpt;
    ckpt.inference_blob = r.bytes();
    ckpt.trunk_blob = r.bytes();
    ckpt.head_blob = r.bytes();
    if (!r.ok || r.remaining() != 0) return false;
    out = std::move(ckpt);
    return true;
}

InsituNode::InsituNode(const TinyConfig& config,
                       const PermutationSet& perms, size_t shared_convs,
                       DiagnosisConfig diag_config, uint64_t seed)
    : shared_convs_(shared_convs),
      inference_([&] {
          Rng rng(seed);
          return InferenceTask(make_tiny_inference(config, rng));
      }()),
      diagnosis_([&] {
          Rng rng(seed ^ 0xD1A6ULL);
          return DiagnosisTask(
              make_shared_jigsaw(config, inference_.network(),
                                 shared_convs, rng),
              perms, diag_config, seed ^ 0xF1A65ULL);
      }())
{
    INSITU_CHECK(
        diagnosis_.network().trunk().shared_conv_prefix(
            inference_.network()) >= shared_convs,
        "node weight sharing not established");
}

void
InsituNode::deploy_inference(const Network& cloud_inference)
{
    copy_parameters(inference_.network(), cloud_inference);
    model_version_ = ++deploy_seq_;
}

void
InsituNode::deploy_diagnosis(const JigsawNetwork& cloud_jigsaw)
{
    // Copy the trunk first, then the head. The shared conv prefix is
    // the same storage as the inference network; deploy_inference
    // should be called after this when both models ship together.
    copy_parameters(diagnosis_.network().trunk(),
                    cloud_jigsaw.trunk());
    copy_parameters(diagnosis_.network().head(), cloud_jigsaw.head());
}

NodeCheckpoint
InsituNode::checkpoint() const
{
    NodeCheckpoint ckpt;
    ckpt.inference_blob = save_weights(inference_.network());
    ckpt.trunk_blob = save_weights(diagnosis_.network().trunk());
    ckpt.head_blob = save_weights(diagnosis_.network().head());
    return ckpt;
}

bool
InsituNode::restore(const NodeCheckpoint& ckpt)
{
    Network& trunk = diagnosis_.network().trunk();
    Network& head = diagnosis_.network().head();
    Network& inference = inference_.network();
    // All-or-nothing: a checkpoint with one valid and one corrupt
    // blob must leave the node exactly as it was, so every blob is
    // checked before any is loaded.
    if (ckpt.empty() || !check_weights(trunk, ckpt.trunk_blob) ||
        !check_weights(head, ckpt.head_blob) ||
        !check_weights(inference, ckpt.inference_blob))
        return false;
    // The trunk's shared conv prefix aliases the inference storage;
    // loading inference last leaves the shared tensors at the
    // inference values, matching deploy_diagnosis-then-
    // deploy_inference order.
    return load_weights(trunk, ckpt.trunk_blob) &&
           load_weights(head, ckpt.head_blob) &&
           load_weights(inference, ckpt.inference_blob);
}

bool
InsituNode::save_checkpoint(storage::SnapshotStore& store) const
{
    return store.write(encode_checkpoint(checkpoint()));
}

bool
InsituNode::restore_from(storage::SnapshotStore& store)
{
    const auto payload = store.read();
    if (!payload) return false;
    NodeCheckpoint ckpt;
    if (!decode_checkpoint(*payload, ckpt)) return false;
    return restore(ckpt);
}

uint64_t
InsituNode::stage_deployment(NodeCheckpoint ckpt)
{
    staged_ = std::move(ckpt);
    staged_version_ = ++deploy_seq_;
    return staged_version_;
}

uint64_t
InsituNode::staged_version() const
{
    return staged_ ? staged_version_ : 0;
}

bool
InsituNode::commit_staged_deployment()
{
    if (!staged_) return false;
    // Clear the stage before applying: a corrupt update must not be
    // retried forever, and restore() already guarantees the live
    // weights survive a bad blob untouched.
    const NodeCheckpoint ckpt = std::move(*staged_);
    staged_.reset();
    if (!restore(ckpt)) return false;
    model_version_ = staged_version_;
    return true;
}

NodeStageReport
InsituNode::process_stage(const Dataset& stage)
{
    NodeStageReport report;
    report.acquired = stage.size();
    if (stage.size() == 0) return report;
    report.predictions = inference_.predict(stage.images);
    report.flags = diagnosis_.diagnose(stage.images);
    for (bool f : report.flags)
        if (f) ++report.flagged;
    report.flag_rate = static_cast<double>(report.flagged) /
                       static_cast<double>(report.acquired);
    if (!stage.labels.empty()) {
        int64_t correct = 0;
        for (size_t i = 0; i < report.predictions.size(); ++i)
            if (report.predictions[i] == stage.labels[i]) ++correct;
        report.accuracy =
            static_cast<double>(correct) /
            static_cast<double>(report.predictions.size());
    }
    return report;
}

} // namespace insitu
