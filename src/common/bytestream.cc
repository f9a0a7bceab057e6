/**
 * @file
 * Byte-stream implementation.
 */

#include "common/bytestream.hh"

#include <bit>
#include <cstring>

#include "common/logging.hh"
#include "common/status.hh"
#include "common/strutil.hh"

namespace seqpoint {

namespace {

/**
 * Host stores match the wire format exactly on little-endian
 * machines, so the hot scalar paths can memcpy; big-endian hosts
 * fall back to byte composition. Either way the bytes on disk are
 * identical.
 */
constexpr bool kHostIsLittle =
    std::endian::native == std::endian::little;

} // anonymous namespace

void
ByteWriter::u32(uint32_t v)
{
    if constexpr (kHostIsLittle) {
        char raw[4];
        std::memcpy(raw, &v, 4);
        buf.append(raw, 4);
    } else {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }
}

void
ByteWriter::u64(uint64_t v)
{
    if constexpr (kHostIsLittle) {
        char raw[8];
        std::memcpy(raw, &v, 8);
        buf.append(raw, 8);
    } else {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }
}

void
ByteWriter::f64(double v)
{
    u64(std::bit_cast<uint64_t>(v));
}

void
ByteWriter::str(const std::string &s)
{
    u64(s.size());
    buf.append(s);
}

ByteReader::ByteReader(std::string_view data, std::string what,
                       OnError on_error)
    : data_(data), what_(std::move(what)), onError(on_error)
{
}

void
ByteReader::fail(const std::string &msg) const
{
    if (onError == OnError::Fatal)
        fatal("%s", msg.c_str());
    throw RecoverableError(Status::error(ErrorCode::Corruption, msg));
}

void
ByteReader::need(std::size_t n)
{
    if (n > remaining()) {
        fail(csprintf(
            "%s: truncated at byte %zu (%zu byte(s) needed, %zu left)",
            what_.c_str(), pos, n, remaining()));
    }
}

uint8_t
ByteReader::u8()
{
    need(1);
    return static_cast<uint8_t>(data_[pos++]);
}

uint32_t
ByteReader::u32()
{
    uint32_t v = 0;
    need(4);
    if constexpr (kHostIsLittle) {
        std::memcpy(&v, data_.data() + pos, 4);
        pos += 4;
    } else {
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(
                     static_cast<uint8_t>(data_[pos++]))
                << (8 * i);
    }
    return v;
}

uint64_t
ByteReader::u64()
{
    uint64_t v = 0;
    need(8);
    if constexpr (kHostIsLittle) {
        std::memcpy(&v, data_.data() + pos, 8);
        pos += 8;
    } else {
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(
                     static_cast<uint8_t>(data_[pos++]))
                << (8 * i);
    }
    return v;
}

double
ByteReader::f64()
{
    return std::bit_cast<double>(u64());
}

bool
ByteReader::b()
{
    uint8_t v = u8();
    if (v > 1) {
        fail(csprintf("%s: invalid bool byte %u at offset %zu",
                      what_.c_str(), v, pos - 1));
    }
    return v != 0;
}

std::string
ByteReader::str()
{
    uint64_t len = u64();
    need(static_cast<std::size_t>(len));
    std::string s(data_.substr(pos, static_cast<std::size_t>(len)));
    pos += static_cast<std::size_t>(len);
    return s;
}

uint64_t
fnv1a64(std::string_view data)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : data) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
fnv1a64Words(std::string_view data)
{
    uint64_t h = 0xcbf29ce484222325ull;
    std::size_t full = data.size() / 8 * 8;
    for (std::size_t i = 0; i < full; i += 8) {
        uint64_t word;
        if constexpr (kHostIsLittle) {
            std::memcpy(&word, data.data() + i, 8);
        } else {
            word = 0;
            for (int b = 0; b < 8; ++b)
                word |= static_cast<uint64_t>(
                            static_cast<uint8_t>(data[i + b]))
                    << (8 * b);
        }
        h ^= word;
        h *= 0x100000001b3ull;
    }
    uint64_t tail = 0;
    for (std::size_t i = full; i < data.size(); ++i)
        tail |= static_cast<uint64_t>(static_cast<uint8_t>(data[i]))
            << (8 * (i - full));
    h ^= tail;
    h *= 0x100000001b3ull;
    // Mix the length so payloads differing only in trailing zero
    // bytes cannot collide with their truncations.
    h ^= static_cast<uint64_t>(data.size());
    h *= 0x100000001b3ull;
    return h;
}

} // namespace seqpoint
