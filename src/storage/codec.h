/**
 * @file
 * Fixed little-endian binary framing helpers for the durable-storage
 * formats (WAL records, snapshot frames, checkpoint and weight blobs).
 *
 * Everything durable in this repo is written through these helpers so
 * the on-disk byte layout is identical on every platform and at every
 * thread width: explicit little-endian integers, doubles as their
 * IEEE-754 bit patterns, strings length-prefixed. The Reader mirrors
 * the writers and latches a single `ok` flag — a truncated or
 * corrupted buffer turns every subsequent read into a harmless zero
 * instead of UB, and the caller checks `ok` once at the end.
 */
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace insitu::storage {

inline void
put_u32(std::string& out, uint32_t v)
{
    char b[4];
    b[0] = static_cast<char>(v & 0xFF);
    b[1] = static_cast<char>((v >> 8) & 0xFF);
    b[2] = static_cast<char>((v >> 16) & 0xFF);
    b[3] = static_cast<char>((v >> 24) & 0xFF);
    out.append(b, 4);
}

inline void
put_u64(std::string& out, uint64_t v)
{
    put_u32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
    put_u32(out, static_cast<uint32_t>(v >> 32));
}

inline void
put_i64(std::string& out, int64_t v)
{
    put_u64(out, static_cast<uint64_t>(v));
}

/** Doubles travel as their IEEE-754 bit pattern — no text round-trip,
 * so the value restored is the value stored, bit for bit. */
inline void
put_f64(std::string& out, double v)
{
    put_u64(out, std::bit_cast<uint64_t>(v));
}

/** Length-prefixed byte string (u64 size, then the bytes). */
inline void
put_bytes(std::string& out, std::string_view bytes)
{
    put_u64(out, bytes.size());
    out.append(bytes.data(), bytes.size());
}

/**
 * Sequential decoder over one buffer. Reads past the end (or after a
 * failed bounds check) clear `ok` and return zero values; check `ok`
 * after the last field.
 */
class Reader {
  public:
    explicit Reader(std::string_view buf) : buf_(buf) {}

    bool ok = true;

    size_t remaining() const { return buf_.size() - pos_; }

    uint32_t
    u32()
    {
        if (!take(4)) return 0;
        const auto* p =
            reinterpret_cast<const unsigned char*>(buf_.data() + pos_ - 4);
        return static_cast<uint32_t>(p[0]) |
               (static_cast<uint32_t>(p[1]) << 8) |
               (static_cast<uint32_t>(p[2]) << 16) |
               (static_cast<uint32_t>(p[3]) << 24);
    }

    uint64_t
    u64()
    {
        const uint64_t lo = u32();
        const uint64_t hi = u32();
        return lo | (hi << 32);
    }

    int64_t i64() { return static_cast<int64_t>(u64()); }

    double f64() { return std::bit_cast<double>(u64()); }

    /** Length-prefixed byte string; empty on failure. */
    std::string
    bytes()
    {
        const uint64_t n = u64();
        if (!ok || n > remaining()) {
            ok = false;
            return {};
        }
        std::string out(buf_.substr(pos_, static_cast<size_t>(n)));
        pos_ += static_cast<size_t>(n);
        return out;
    }

    /** Raw view of @p n bytes without copying; empty view on failure. */
    std::string_view
    view(size_t n)
    {
        if (!take(n)) return {};
        return buf_.substr(pos_ - n, n);
    }

  private:
    bool
    take(size_t n)
    {
        if (!ok || n > remaining()) {
            ok = false;
            return false;
        }
        pos_ += n;
        return true;
    }

    std::string_view buf_;
    size_t pos_ = 0;
};

} // namespace insitu::storage
