/**
 * @file
 * Fuzz harness for the ByteReader/ByteWriter primitives.
 *
 * The input drives an op-code-interpreted read script over itself:
 * each op byte selects a reader primitive, which must either decode
 * or raise RecoverableError(Corruption) -- never crash, read out of
 * bounds, or loop. Every successfully decoded value is additionally
 * round-tripped through ByteWriter: encode(decode(bytes)) must
 * re-decode to the identical value (writer encodings are canonical,
 * so this is a fixed point).
 */

#include <cstdlib>
#include <string_view>

#include "common/bytestream.hh"
#include "common/status.hh"

#include "fuzz_util.hh"

namespace {

using seqpoint::ByteReader;
using seqpoint::ByteWriter;

/** abort() unless the writer's encoding of `v` re-decodes to `v`. */
template <typename T, typename Enc, typename Dec>
void
roundTrip(T v, Enc enc, Dec dec)
{
    ByteWriter w;
    enc(w, v);
    ByteReader r(w.data(), "fuzz-roundtrip",
                 ByteReader::OnError::Fatal);
    T back = dec(r);
    ByteWriter w2;
    enc(w2, back);
    if (w2.data() != w.data() || !r.done())
        std::abort();
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    std::string_view view(reinterpret_cast<const char *>(data), size);
    try {
        ByteReader r(view, "fuzz-bytestream",
                     ByteReader::OnError::Throw);
        while (!r.done()) {
            switch (r.u8() % 6) {
              case 0:
                roundTrip(r.u8(),
                          [](ByteWriter &w, uint8_t v) { w.u8(v); },
                          [](ByteReader &x) { return x.u8(); });
                break;
              case 1:
                roundTrip(r.u32(),
                          [](ByteWriter &w, uint32_t v) { w.u32(v); },
                          [](ByteReader &x) { return x.u32(); });
                break;
              case 2:
                roundTrip(r.u64(),
                          [](ByteWriter &w, uint64_t v) { w.u64(v); },
                          [](ByteReader &x) { return x.u64(); });
                break;
              case 3:
                roundTrip(r.f64(),
                          [](ByteWriter &w, double v) { w.f64(v); },
                          [](ByteReader &x) { return x.f64(); });
                break;
              case 4:
                roundTrip(r.b(),
                          [](ByteWriter &w, bool v) { w.b(v); },
                          [](ByteReader &x) { return x.b(); });
                break;
              case 5:
                roundTrip(r.str(),
                          [](ByteWriter &w, const std::string &v) {
                              w.str(v);
                          },
                          [](ByteReader &x) { return x.str(); });
                break;
            }
        }
        // i64 is sugar over u64; keep it exercised too.
        ByteReader r2(view, "fuzz-bytestream-i64",
                      ByteReader::OnError::Throw);
        while (r2.remaining() >= 8)
            (void)r2.i64();
        (void)seqpoint::fnv1a64(view);
        (void)seqpoint::fnv1a64Words(view);
    } catch (const seqpoint::RecoverableError &) {
        // Typed rejection is the contract for corrupt input.
    }
    return 0;
}
