#include "nn/serialize.h"

#include <bit>
#include <cstring>
#include <vector>

#include "storage/codec.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace insitu {

namespace {

// The float payload is copied as raw bytes, which is little-endian
// IEEE-754 only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "weight blobs store floats little-endian");

constexpr uint32_t kMagic = 0x1A51'70A1; // "insitu ai"
// Format 1 was the unframed [magic][count][params] layout; format 2
// adds [version][body_size][crc32(body)] after the magic so stale or
// bit-rotted blobs are rejected before any parameter is touched.
constexpr uint32_t kFormatVersion = 2;
constexpr size_t kHeaderBytes = 16;

/**
 * Validate @p blob against @p net without writing anything: framing,
 * checksum, count, and every name, rank, shape and byte length. On
 * success @p payloads (when non-null) holds each parameter's float
 * bytes, in params() order.
 */
bool
parse_weights(const Network& net, std::string_view blob,
              std::vector<std::string_view>* payloads)
{
    storage::Reader header(blob.substr(0, kHeaderBytes));
    if (header.u32() != kMagic) {
        warn("weight blob has bad magic");
        return false;
    }
    const uint32_t version = header.u32();
    if (version != kFormatVersion) {
        warn("weight blob has format version " +
             std::to_string(version) + ", expected " +
             std::to_string(kFormatVersion));
        return false;
    }
    const uint32_t body_size = header.u32();
    const uint32_t crc = header.u32();
    if (!header.ok || blob.size() - kHeaderBytes != body_size) {
        warn("weight blob is truncated or has trailing bytes");
        return false;
    }
    const std::string_view body = blob.substr(kHeaderBytes);
    if (crc32(body) != crc) {
        warn("weight blob fails its checksum");
        return false;
    }

    // The checksum vouches for the bytes; parsing below can still
    // reject a blob from a *different* architecture (name/shape
    // mismatch), which is a semantic error, not corruption.
    storage::Reader in(body);
    const auto params = net.params();
    const uint32_t count = in.u32();
    if (!in.ok || count != params.size()) {
        warn("weight blob has " + std::to_string(count) +
             " params, network has " + std::to_string(params.size()));
        return false;
    }
    for (const auto& p : params) {
        const std::string_view name = in.view(in.u32());
        if (!in.ok || name != p->name()) {
            warn("weight blob param '" + std::string(name) +
                 "' does not match network param '" + p->name() + "'");
            return false;
        }
        const uint32_t rank = in.u32();
        if (!in.ok || static_cast<int64_t>(rank) != p->value().rank()) {
            warn("rank mismatch loading '" + p->name() + "'");
            return false;
        }
        for (int64_t d : p->value().shape()) {
            if (in.i64() != d) {
                warn("shape mismatch loading '" + p->name() + "'");
                return false;
            }
        }
        const std::string_view data = in.view(
            static_cast<size_t>(p->value().numel()) * sizeof(float));
        if (!in.ok) {
            warn("weight blob truncated in '" + p->name() + "'");
            return false;
        }
        if (payloads != nullptr) payloads->push_back(data);
    }
    if (in.remaining() != 0) {
        warn("weight blob has trailing bytes");
        return false;
    }
    return true;
}

} // namespace

uint32_t
weight_format_version()
{
    return kFormatVersion;
}

std::string
save_weights(const Network& net)
{
    // Size the blob exactly, so it is allocated once.
    const auto params = net.params();
    size_t body_size = 4;
    for (const auto& p : params)
        body_size += 4 + p->name().size() + 4 +
                     8 * p->value().shape().size() +
                     static_cast<size_t>(p->value().numel()) * sizeof(float);

    std::string blob;
    blob.reserve(kHeaderBytes + body_size);
    storage::put_u32(blob, kMagic);
    storage::put_u32(blob, kFormatVersion);
    storage::put_u32(blob, static_cast<uint32_t>(body_size));
    storage::put_u32(blob, 0); // crc32(body), patched in below
    storage::put_u32(blob, static_cast<uint32_t>(params.size()));
    for (const auto& p : params) {
        const std::string& name = p->name();
        storage::put_u32(blob, static_cast<uint32_t>(name.size()));
        blob += name;
        storage::put_u32(blob, static_cast<uint32_t>(p->value().rank()));
        for (int64_t d : p->value().shape()) storage::put_i64(blob, d);
        blob.append(reinterpret_cast<const char*>(p->value().data()),
                    static_cast<size_t>(p->value().numel()) *
                        sizeof(float));
    }
    std::string crc;
    storage::put_u32(crc, crc32(std::string_view(blob).substr(kHeaderBytes)));
    blob.replace(12, crc.size(), crc);
    return blob;
}

bool
check_weights(const Network& net, std::string_view blob)
{
    return parse_weights(net, blob, nullptr);
}

bool
load_weights(Network& net, std::string_view blob)
{
    std::vector<std::string_view> payloads;
    if (!parse_weights(net, blob, &payloads)) return false;
    const auto params = net.params();
    for (size_t i = 0; i < params.size(); ++i)
        std::memcpy(params[i]->value().data(), payloads[i].data(),
                    payloads[i].size());
    return true;
}

} // namespace insitu
