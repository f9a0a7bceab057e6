/**
 * @file
 * Fuzz harness for the snapshot payload and its per-section codecs.
 *
 * The first input byte selects the decoder; the rest is the payload.
 * Every decoder runs in OnError::Throw mode and must either decode
 * or raise RecoverableError(Corruption) -- the quarantine-and-rebuild
 * contract the snapshot registry depends on. Successful decodes are
 * re-encoded and re-decoded to the byte-level fixed point (writer
 * encodings are canonical).
 */

#include <cstdlib>
#include <string>
#include <string_view>

#include "common/bytestream.hh"
#include "common/status.hh"
#include "core/seqpoint.hh"
#include "core/sl_log.hh"
#include "harness/snapshot_io.hh"
#include "nn/autotune.hh"
#include "profiler/iteration_profile.hh"
#include "profiler/trainer.hh"
#include "sim/counters.hh"
#include "sim/gpu_config.hh"

#include "fuzz_util.hh"

namespace {

using namespace seqpoint;
using namespace seqpoint::harness;

void
fuzzPayload(std::string_view payload)
{
    ModelSnapshot snap = decodeSnapshotPayload(
        payload, "fuzz-snapshot", ByteReader::OnError::Throw);
    // The writer's encoding is canonical, so encode -> decode ->
    // encode must reproduce the first encoding byte for byte. The
    // re-decode runs in Fatal mode: writer output that fails its own
    // decoder is a codec bug, not corrupt input.
    std::string p2 = encodeSnapshotPayload(snap);
    ModelSnapshot snap2 = decodeSnapshotPayload(
        p2, "fuzz-snapshot-rt", ByteReader::OnError::Fatal);
    if (encodeSnapshotPayload(snap2) != p2)
        std::abort();
}

/** Generic decode -> encode -> decode -> encode fixed-point check. */
template <typename Dec, typename Enc>
void
fuzzSection(std::string_view payload, const char *what, Dec dec,
            Enc enc)
{
    ByteReader r(payload, what, ByteReader::OnError::Throw);
    auto v = dec(r);
    ByteWriter w;
    enc(w, v);
    ByteReader r2(w.data(), std::string(what) + "-rt",
                  ByteReader::OnError::Fatal);
    auto v2 = dec(r2);
    ByteWriter w2;
    enc(w2, v2);
    if (w2.data() != w.data())
        std::abort();
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    if (size < 1)
        return 0;
    std::string_view payload(reinterpret_cast<const char *>(data) + 1,
                             size - 1);
    try {
        switch (data[0] % 10) {
          case 0:
            fuzzPayload(payload);
            break;
          case 1:
            fuzzSection(payload, "fuzz-gpu-config",
                        [](ByteReader &r) {
                            return sim::decodeGpuConfig(r);
                        },
                        [](ByteWriter &w, const sim::GpuConfig &v) {
                            sim::encodeGpuConfig(w, v);
                        });
            break;
          case 2:
            fuzzSection(payload, "fuzz-seqpoint-options",
                        [](ByteReader &r) {
                            return core::decodeSeqPointOptions(r);
                        },
                        [](ByteWriter &w,
                           const core::SeqPointOptions &v) {
                            core::encodeSeqPointOptions(w, v);
                        });
            break;
          case 3:
            fuzzSection(payload, "fuzz-seqpoint-set",
                        [](ByteReader &r) {
                            return core::decodeSeqPointSet(r);
                        },
                        [](ByteWriter &w, const core::SeqPointSet &v) {
                            core::encodeSeqPointSet(w, v);
                        });
            break;
          case 4:
            fuzzSection(payload, "fuzz-sl-stats",
                        [](ByteReader &r) {
                            return core::decodeSlStats(r);
                        },
                        [](ByteWriter &w, const core::SlStats &v) {
                            core::encodeSlStats(w, v);
                        });
            break;
          case 5:
            fuzzSection(payload, "fuzz-train-log",
                        [](ByteReader &r) {
                            return prof::decodeTrainLog(r);
                        },
                        [](ByteWriter &w, const prof::TrainLog &v) {
                            prof::encodeTrainLog(w, v);
                        });
            break;
          case 6:
            fuzzSection(payload, "fuzz-iteration-profile",
                        [](ByteReader &r) {
                            return prof::decodeIterationProfile(r);
                        },
                        [](ByteWriter &w,
                           const prof::IterationProfile &v) {
                            prof::encodeIterationProfile(w, v);
                        });
            break;
          case 7:
            fuzzSection(payload, "fuzz-autotune-entry",
                        [](ByteReader &r) {
                            return nn::decodeAutotuneEntry(r);
                        },
                        [](ByteWriter &w, const nn::AutotuneEntry &v) {
                            nn::encodeAutotuneEntry(w, v);
                        });
            break;
          case 8:
            fuzzSection(payload, "fuzz-autotune-section",
                        [](ByteReader &r) {
                            return nn::decodeAutotuneSection(r);
                        },
                        [](ByteWriter &w,
                           const std::vector<nn::AutotuneEntry> &v) {
                            nn::encodeAutotuneSection(w, v);
                        });
            break;
          case 9:
            fuzzSection(payload, "fuzz-counters",
                        [](ByteReader &r) {
                            return sim::decodeCounters(r);
                        },
                        [](ByteWriter &w, const sim::PerfCounters &v) {
                            sim::encodeCounters(w, v);
                        });
            break;
        }
    } catch (const RecoverableError &) {
        // Typed rejection is the contract for corrupt input.
    }
    return 0;
}
