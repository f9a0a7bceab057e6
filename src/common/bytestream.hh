/**
 * @file
 * Endian-stable binary encoding primitives for persistent artifacts
 * (the snapshot store). Integers are written little-endian byte by
 * byte and doubles as their IEEE-754 bit patterns, so a file written
 * on any host decodes bit-identically on any other. The reader is
 * bounds-checked and fails loudly on truncation -- a corrupted
 * artifact must be rejected, never half-decoded.
 */

#ifndef SEQPOINT_COMMON_BYTESTREAM_HH
#define SEQPOINT_COMMON_BYTESTREAM_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace seqpoint {

/** Appends fixed-layout scalars and strings to a byte buffer. */
class ByteWriter
{
  public:
    /** Append one byte. */
    void u8(uint8_t v) { buf.push_back(static_cast<char>(v)); }

    /** Append a 32-bit unsigned integer, little-endian. */
    void u32(uint32_t v);

    /** Append a 64-bit unsigned integer, little-endian. */
    void u64(uint64_t v);

    /** Append a 64-bit signed integer (two's complement). */
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    /** Append a double as its IEEE-754 bit pattern (lossless). */
    void f64(double v);

    /** Append a bool as one byte (0 or 1). */
    void b(bool v) { u8(v ? 1 : 0); }

    /** Append a length-prefixed string (u64 length + raw bytes). */
    void str(const std::string &s);

    /** @return The encoded bytes so far. */
    const std::string &data() const { return buf; }

    /** @return Number of bytes written so far. */
    std::size_t size() const { return buf.size(); }

  private:
    std::string buf;
};

/**
 * Bounds-checked reader over a byte buffer written by ByteWriter.
 *
 * Every read past the end of the buffer fails loudly naming the
 * artifact (`what`), so a truncated file can never silently decode
 * into a half-seeded object. The failure mode is selectable: Fatal
 * (the default, for in-process artifacts whose corruption is a bug)
 * exits the process; Throw raises RecoverableError(Corruption) so a
 * containment layer -- the snapshot loader degrading a bad store
 * file to a cold start -- can catch, quarantine and recompute.
 */
class ByteReader
{
  public:
    /** What a validation failure does (see class comment). */
    enum class OnError {
        Fatal, ///< fatal(): exit the process (fail-fast artifacts).
        Throw, ///< throw RecoverableError(Corruption) (recoverable).
    };

    /**
     * Construct over a buffer.
     *
     * @param data Bytes to decode (must outlive the reader).
     * @param what Artifact name for error messages (e.g. a path).
     * @param on_error Failure mode for every validation error.
     */
    ByteReader(std::string_view data, std::string what,
               OnError on_error = OnError::Fatal);

    /** Read one byte. */
    uint8_t u8();

    /** Read a little-endian 32-bit unsigned integer. */
    uint32_t u32();

    /** Read a little-endian 64-bit unsigned integer. */
    uint64_t u64();

    /** Read a 64-bit signed integer. */
    int64_t i64() { return static_cast<int64_t>(u64()); }

    /** Read a double from its IEEE-754 bit pattern. */
    double f64();

    /** Read a bool; any value other than 0/1 is a fatal error. */
    bool b();

    /** Read a length-prefixed string. */
    std::string str();

    /** @return Bytes left to read. */
    std::size_t remaining() const { return data_.size() - pos; }

    /** @return True when the whole buffer has been consumed. */
    bool done() const { return remaining() == 0; }

    /** @return The artifact name given at construction. */
    const std::string &what() const { return what_; }

    /**
     * Report a validation failure in this reader's failure mode:
     * fatal() or throw RecoverableError(Corruption). Exposed so
     * decoders layered on the reader (snapshot payload validation)
     * fail the same way the reader itself would.
     *
     * @param msg Fully formatted message (should name the artifact).
     */
    [[noreturn]] void fail(const std::string &msg) const;

  private:
    std::string_view data_;
    std::string what_;
    OnError onError;
    std::size_t pos = 0;

    /** fail() unless `n` more bytes are available. */
    void need(std::size_t n);
};

/**
 * FNV-1a 64-bit hash (store file names and other short keys).
 *
 * @param data Bytes to hash.
 * @return The 64-bit hash.
 */
uint64_t fnv1a64(std::string_view data);

/**
 * Word-wise FNV-1a 64-bit hash: the byte stream is consumed as
 * little-endian 64-bit words (trailing partial word zero-padded) and
 * the total length is mixed in last. ~8x faster than the per-byte
 * form on large payloads, with the same avalanche behaviour per
 * step -- the snapshot store's payload checksum.
 *
 * @param data Bytes to hash.
 * @return The 64-bit hash.
 */
uint64_t fnv1a64Words(std::string_view data);

} // namespace seqpoint

#endif // SEQPOINT_COMMON_BYTESTREAM_HH
