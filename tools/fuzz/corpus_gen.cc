/**
 * @file
 * Seed-corpus generator for the snapshot-codec fuzz harnesses.
 *
 * Builds one real, fully warmed snapshot (the DS2 workload on
 * config1, single-threaded so the build is deterministic) and slices
 * it into seed inputs for each harness: real encodings exercise every
 * branch of the section decoders, which pure random inputs take a
 * long time to reach. Each file is the harness's input format: a mode
 * byte followed by the section payload (fuzz_bytestream takes the op
 * stream directly).
 *
 * Usage: corpus_gen <corpus-root>   (writes <root>/<harness>/<name>)
 *
 * The generated files are committed under tools/fuzz/corpus/ and
 * replayed as a regression suite by ctest; regenerate after a change
 * to the encoded layout.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "common/bytestream.hh"
#include "core/seqpoint.hh"
#include "core/sl_log.hh"
#include "harness/experiment.hh"
#include "harness/snapshot_io.hh"
#include "harness/workloads.hh"
#include "profiler/trainer.hh"
#include "sim/counters.hh"
#include "sim/gpu_config.hh"

namespace {

namespace fs = std::filesystem;
using namespace seqpoint;
using namespace seqpoint::harness;

bool
writeSeed(const fs::path &root, const std::string &harness,
          const std::string &name, const std::string &bytes)
{
    std::error_code ec;
    fs::create_directories(root / harness, ec);
    std::ofstream out(root / harness / name,
                      std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "corpus_gen: cannot write %s/%s\n",
                     harness.c_str(), name.c_str());
        return false;
    }
    out << bytes;
    return true;
}

/** Mode byte + section payload (the harness input framing). */
std::string
mode(uint8_t m, const std::string &payload)
{
    return std::string(1, static_cast<char>(m)) + payload;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: corpus_gen <corpus-root>\n");
        return 2;
    }
    fs::path root(argv[1]);

    Experiment donor(makeDs2Workload());
    donor.setProfileThreads(1);
    auto full = donor.snapshot(sim::GpuConfig::config1());

    // Seeds only need to reach every coder branch, not carry the whole
    // run: trim the bulky sections so the committed corpus stays
    // small. The fuzzer mutates its way to larger shapes from here.
    ModelSnapshot snapStorage = *full;
    ModelSnapshot *snap = &snapStorage;
    auto trimMap = [](auto &m) {
        while (m.size() > 4)
            m.erase(std::prev(m.end()));
    };
    trimMap(snap->trainProfiles);
    trimMap(snap->inferProfiles);

    bool ok = true;

    // fuzz_snapshot_load: the full payload plus every section.
    std::string payload = encodeSnapshotPayload(*snap);
    ok &= writeSeed(root, "fuzz_snapshot_load", "payload",
                    mode(0, payload));
    {
        ByteWriter w;
        sim::encodeGpuConfig(w, snap->config);
        ok &= writeSeed(root, "fuzz_snapshot_load", "gpu_config",
                        mode(1, w.data()));
    }
    {
        ByteWriter w;
        core::encodeSeqPointOptions(w, snap->opts);
        ok &= writeSeed(root, "fuzz_snapshot_load", "seqpoint_options",
                        mode(2, w.data()));
    }
    if (!snap->selections.empty()) {
        ByteWriter w;
        core::encodeSeqPointSet(w, snap->selections.begin()->second);
        ok &= writeSeed(root, "fuzz_snapshot_load", "seqpoint_set",
                        mode(3, w.data()));
    }
    {
        ByteWriter w;
        core::encodeSlStats(w, snap->stats);
        ok &= writeSeed(root, "fuzz_snapshot_load", "sl_stats",
                        mode(4, w.data()));
    }
    {
        ByteWriter w;
        prof::encodeTrainLog(w, snap->log);
        ok &= writeSeed(root, "fuzz_snapshot_load", "train_log",
                        mode(5, w.data()));
    }
    if (!snap->trainProfiles.empty()) {
        ByteWriter w;
        prof::encodeIterationProfile(
            w, snap->trainProfiles.begin()->second);
        ok &= writeSeed(root, "fuzz_snapshot_load",
                        "iteration_profile", mode(6, w.data()));
    }
    if (!snap->trainProfiles.empty()) {
        ByteWriter w;
        sim::encodeCounters(w, snap->trainProfiles.begin()->second.counters);
        ok &= writeSeed(root, "fuzz_snapshot_load", "counters",
                        mode(7, w.data()));
    }

    // fuzz_bytestream: an op script touching every primitive. Each op
    // byte modulo 6 selects the reader primitive that consumes the
    // bytes after it (see fuzz_bytestream.cc).
    {
        ByteWriter w;
        w.u8(0); // op: u8
        w.u8(0x5a);
        w.u8(1); // op: u32
        w.u32(0xdeadbeef);
        w.u8(2); // op: u64
        w.u64(0x0123456789abcdefull);
        w.u8(3); // op: f64
        w.f64(-1.5);
        w.u8(4); // op: bool
        w.b(true);
        w.u8(5); // op: str
        w.str("seqpoint");
        ok &= writeSeed(root, "fuzz_bytestream", "ops", w.data());
    }

    if (!ok)
        return 1;
    std::printf("corpus written under %s\n", root.string().c_str());
    return 0;
}
