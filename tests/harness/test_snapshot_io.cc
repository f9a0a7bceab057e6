/**
 * @file
 * Tests for the persistent snapshot subsystem: serialization
 * round-trip fidelity (save -> load -> seedFrom bit-identical to the
 * live snapshot path), strict rejection of mismatched or corrupted
 * files, and the registry's memory/disk/single-flight behaviour.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/bytestream.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "harness/snapshot_io.hh"
#include "harness/snapshot_registry.hh"

namespace seqpoint {
namespace harness {
namespace {

namespace fs = std::filesystem;

std::string
tmpPath(const std::string &name)
{
    return (fs::path(testing::TempDir()) / name).string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << bytes;
}

/** One fully warmed DS2 snapshot, shared by the tests below. */
std::shared_ptr<const ModelSnapshot>
ds2Snapshot()
{
    static std::shared_ptr<const ModelSnapshot> snap = [] {
        Experiment donor(makeDs2Workload());
        donor.setProfileThreads(1);
        return donor.snapshot(sim::GpuConfig::config1());
    }();
    return snap;
}

/** Load `path` expecting a valid snapshot of identity `key`. */
std::shared_ptr<const ModelSnapshot>
loadValid(const std::string &path, const SnapshotKey &key)
{
    auto result = tryLoadSnapshot(path, &key);
    EXPECT_TRUE(result.ok()) << result.status().toString();
    return result.ok() ? result.take() : nullptr;
}

/**
 * `file` as another build would have stamped it: the header's build
 * identity (bytes 4..11) rewritten in place, everything else kept.
 */
std::string
fromOtherBuild(const std::string &file)
{
    ByteWriter id;
    id.u64(~snapshotBuildId());
    return file.substr(0, 4) + id.data() + file.substr(12);
}

TEST(SnapshotIo, PayloadRoundTripIsByteExact)
{
    auto snap = ds2Snapshot();
    std::string payload = encodeSnapshotPayload(*snap);
    EXPECT_FALSE(payload.empty());

    ModelSnapshot decoded = decodeSnapshotPayload(payload, "test");
    // Bit-exact: re-encoding the decoded snapshot reproduces the
    // payload byte for byte, and the identity key survives.
    EXPECT_EQ(encodeSnapshotPayload(decoded), payload);
    EXPECT_TRUE(snapshotKeyOf(decoded) == snapshotKeyOf(*snap));
    EXPECT_TRUE(decoded.log.identicalTo(snap->log));
    EXPECT_EQ(decoded.selections.size(), snap->selections.size());
}

TEST(SnapshotIo, SaveLoadSeedsBitIdenticallyDs2)
{
    auto cfg1 = sim::GpuConfig::config1();
    auto cfg2 = sim::GpuConfig::config2();
    auto snap = ds2Snapshot();

    std::string path = tmpPath("ds2_roundtrip.bin");
    ASSERT_TRUE(saveSnapshot(*snap, path));

    SnapshotKey key = snapshotKeyOf(*snap);
    auto loaded = loadValid(path, key);
    ASSERT_TRUE(loaded != nullptr);

    // Seeding from the file must reproduce both the live-snapshot
    // path and a cold experiment, bit for bit -- on the snapshot's
    // config (replayed) and on another config (still computed cold).
    Experiment from_file(makeDs2Workload());
    from_file.setProfileThreads(1);
    from_file.seedFrom(loaded);
    Experiment live(makeDs2Workload());
    live.setProfileThreads(1);
    live.seedFrom(snap);
    Experiment cold(makeDs2Workload());
    cold.setProfileThreads(1);

    EXPECT_TRUE(
        from_file.epochLog(cfg1).identicalTo(live.epochLog(cfg1)));
    EXPECT_TRUE(
        from_file.epochLog(cfg1).identicalTo(cold.epochLog(cfg1)));
    EXPECT_TRUE(
        from_file.epochLog(cfg2).identicalTo(cold.epochLog(cfg2)));
    EXPECT_EQ(from_file.iterTime(cfg1, 100), cold.iterTime(cfg1, 100));
    EXPECT_EQ(from_file.actualThroughput(cfg1),
              cold.actualThroughput(cfg1));
    EXPECT_TRUE(
        from_file.buildSelection(core::SelectorKind::SeqPoint, cfg1) ==
        cold.buildSelection(core::SelectorKind::SeqPoint, cfg1));
}

TEST(SnapshotIo, SaveLoadSeedsBitIdenticallyGnmt)
{
    auto cfg1 = sim::GpuConfig::config1();
    Experiment donor(makeGnmtWorkload());
    donor.setProfileThreads(1);
    auto snap = donor.snapshot(cfg1);

    std::string path = tmpPath("gnmt_roundtrip.bin");
    ASSERT_TRUE(saveSnapshot(*snap, path));
    SnapshotKey key = snapshotKeyOf(*snap);
    auto loaded = loadValid(path, key);
    ASSERT_TRUE(loaded != nullptr);

    EXPECT_EQ(encodeSnapshotPayload(*loaded),
              encodeSnapshotPayload(*snap));

    Experiment from_file(makeGnmtWorkload());
    from_file.setProfileThreads(1);
    from_file.seedFrom(loaded);
    EXPECT_TRUE(from_file.epochLog(cfg1).identicalTo(snap->log));
    EXPECT_TRUE(
        from_file.buildSelection(core::SelectorKind::SeqPoint, cfg1) ==
        snap->selections.at(core::SelectorKind::SeqPoint));
}

/**
 * Expect `path` to be rejected with `code` and a message containing
 * `msg`.
 */
void
expectRejected(const std::string &path, const SnapshotKey &key,
               ErrorCode code, const std::string &msg)
{
    auto result = tryLoadSnapshot(path, &key);
    ASSERT_FALSE(result.ok()) << path;
    EXPECT_EQ(result.status().code(), code) << path;
    EXPECT_NE(result.status().message().find(msg), std::string::npos)
        << path << ": " << result.status().message();
}

TEST(SnapshotIo, RejectsBadFilesClassified)
{
    auto snap = ds2Snapshot();
    std::string path = tmpPath("ds2_victim.bin");
    ASSERT_TRUE(saveSnapshot(*snap, path));
    std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 200u);
    SnapshotKey key = snapshotKeyOf(*snap);

    // Wrong magic: not a snapshot file at all.
    std::string bad_magic = bytes;
    bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x5a);
    writeFile(tmpPath("bad_magic.bin"), bad_magic);
    expectRejected(tmpPath("bad_magic.bin"), key, ErrorCode::Corruption,
                   "not a snapshot");

    // Written by another build (bytes 4..11, little-endian u64).
    writeFile(tmpPath("other_build.bin"), fromOtherBuild(bytes));
    expectRejected(tmpPath("other_build.bin"), key,
                   ErrorCode::VersionMismatch, "written by build");

    // Truncated payload: header promises more bytes than exist.
    writeFile(tmpPath("truncated.bin"),
              bytes.substr(0, bytes.size() - 64));
    expectRejected(tmpPath("truncated.bin"), key, ErrorCode::Corruption,
                   "truncated");

    // Flipped payload byte: checksum mismatch.
    std::string corrupt = bytes;
    corrupt[bytes.size() / 2] =
        static_cast<char>(corrupt[bytes.size() / 2] ^ 0x01);
    writeFile(tmpPath("corrupt.bin"), corrupt);
    expectRejected(tmpPath("corrupt.bin"), key, ErrorCode::Corruption,
                   "checksum");

    // Valid file, wrong expected config: the caller wanted config#2.
    Workload ds2 = makeDs2Workload();
    SnapshotKey cfg2_key = snapshotKeyFor(
        ds2, Experiment::defaultOptions(), sim::GpuConfig::config2());
    expectRejected(path, cfg2_key, ErrorCode::Corruption,
                   "config signature mismatch");

    // Valid file, wrong expected run parameters (other seed).
    Workload variant = makeDs2Workload(31);
    SnapshotKey variant_key = snapshotKeyFor(
        variant, Experiment::defaultOptions(),
        sim::GpuConfig::config1());
    expectRejected(path, variant_key, ErrorCode::Corruption,
                   "run-parameter mismatch");

    // Valid file, wrong expected workload.
    SnapshotKey gnmt_key = key;
    gnmt_key.workload = "GNMT";
    expectRejected(path, gnmt_key, ErrorCode::Corruption,
                   "is for workload");

    // The pristine file itself still loads.
    EXPECT_TRUE(loadValid(path, key) != nullptr);
}

/** A double with the quiet-NaN exponent and the given payload bits. */
double
nanWithPayload(uint64_t payload)
{
    return std::bit_cast<double>(0x7ff8000000000000ull | payload);
}

TEST(SnapshotIo, NanRunParametersKeyBitExactly)
{
    // NaNs that differ only in their payload are different run
    // parameters, so they must never share a key: both doubles of the
    // run-parameter digest are rendered by bit pattern.
    const core::SeqPointOptions opts = Experiment::defaultOptions();
    const sim::GpuConfig cfg = sim::GpuConfig::config1();
    Workload a = makeDs2Workload();
    Workload b = makeDs2Workload();
    a.evalCostMultiplier = nanWithPayload(0);
    b.evalCostMultiplier = nanWithPayload(1);
    EXPECT_FALSE(snapshotKeyFor(a, opts, cfg) == snapshotKeyFor(b, opts, cfg));
    EXPECT_TRUE(snapshotKeyFor(a, opts, cfg) == snapshotKeyFor(a, opts, cfg));

    core::SeqPointOptions nan0 = opts, nan1 = opts;
    nan0.errorThreshold = nanWithPayload(0);
    nan1.errorThreshold = nanWithPayload(1);
    EXPECT_FALSE(snapshotKeyFor(a, nan0, cfg) == snapshotKeyFor(a, nan1, cfg));

    // A NaN-cost workload adopts its own snapshot (its key equals the
    // run's bit for bit), and the seeded state answers as the donor.
    Experiment donor(std::move(a));
    donor.setProfileThreads(1);
    auto snap = donor.snapshot(cfg);
    Workload same = makeDs2Workload();
    same.evalCostMultiplier = nanWithPayload(0);
    Experiment seeded(std::move(same));
    seeded.seedFrom(snap);
    const prof::TrainLog &log = seeded.epochLog(cfg);
    EXPECT_TRUE(std::isnan(log.evalSec));
    EXPECT_TRUE(log.identicalTo(snap->log));
}

TEST(SnapshotRegistry, MemoryThenDiskHits)
{
    std::string dir = tmpPath("store_hits");
    fs::remove_all(dir); // stale stores from earlier runs
    auto make = [] { return makeDs2Workload(); };
    auto cfg1 = sim::GpuConfig::config1();

    SnapshotRegistry reg(dir);
    auto first = reg.acquire(make, cfg1, 1);
    ASSERT_TRUE(first != nullptr);
    EXPECT_EQ(reg.stats().builds, 1u);

    // Second acquire: served from memory, same object.
    auto second = reg.acquire(make, cfg1, 1);
    EXPECT_EQ(second.get(), first.get());
    EXPECT_EQ(reg.stats().builds, 1u);
    EXPECT_EQ(reg.stats().memoryHits, 1u);

    // The build was persisted under the key's file name.
    Workload wl = make();
    SnapshotKey key =
        snapshotKeyFor(wl, Experiment::defaultOptions(), cfg1);
    EXPECT_TRUE(fs::exists(fs::path(dir) / key.fileName()));

    // A fresh registry on the same store loads instead of building,
    // and the loaded snapshot is byte-identical to the built one.
    SnapshotRegistry reg2(dir);
    auto from_disk = reg2.acquire(make, cfg1, 1);
    EXPECT_EQ(reg2.stats().builds, 0u);
    EXPECT_EQ(reg2.stats().diskHits, 1u);
    EXPECT_EQ(encodeSnapshotPayload(*from_disk),
              encodeSnapshotPayload(*first));

    // cached() is lookup-only: a key nobody built stays null.
    SnapshotKey cfg2_key = snapshotKeyFor(
        wl, Experiment::defaultOptions(), sim::GpuConfig::config2());
    EXPECT_EQ(reg2.cached(cfg2_key), nullptr);
    EXPECT_TRUE(reg2.cached(key) != nullptr);
}

TEST(SnapshotRegistry, SingleFlightBuildsOnce)
{
    auto snap = ds2Snapshot();
    SnapshotKey key = snapshotKeyOf(*snap);

    SnapshotRegistry reg; // memory-only
    std::atomic<int> builds{0};
    auto build = [&]() {
        ++builds;
        // Widen the race window so racing acquirers really overlap.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return snap;
    };

    std::vector<std::shared_ptr<const ModelSnapshot>> got(4);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < got.size(); ++i) {
        threads.emplace_back(
            [&, i] { got[i] = reg.acquire(key, build); });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(builds.load(), 1);
    for (const auto &g : got)
        EXPECT_EQ(g.get(), snap.get());
    EXPECT_EQ(reg.stats().builds, 1u);
    EXPECT_EQ(reg.stats().memoryHits, 3u);
}

/**
 * A minimal synthetic snapshot (empty caches/log/selections) whose
 * identity is just a workload name -- enough to exercise the store's
 * file lifecycle without paying real cold starts.
 */
std::shared_ptr<const ModelSnapshot>
tinySnapshot(const std::string &name)
{
    auto snap = std::make_shared<ModelSnapshot>();
    snap->workload = name;
    snap->config = sim::GpuConfig::config1();
    snap->dataset = "synthetic";
    snap->batchSize = 8;
    snap->policy = data::BatchPolicy::Shuffled;
    snap->seed = 1;
    snap->evalCostMultiplier = 1.0;
    snap->opts = Experiment::defaultOptions();
    return snap;
}

/** Acquire a tiny snapshot under its own key. */
std::shared_ptr<const ModelSnapshot>
putTiny(SnapshotRegistry &reg, const std::string &name)
{
    auto snap = tinySnapshot(name);
    return reg.acquire(snapshotKeyOf(*snap), [&] { return snap; });
}

/** Store path of a tiny snapshot's file. */
std::string
tinyPath(const std::string &dir, const std::string &name)
{
    return (fs::path(dir) / snapshotKeyOf(*tinySnapshot(name))
                                .fileName())
        .string();
}

/** Age a store file to a fixed point `hours_ago`. */
void
ageFile(const std::string &path, int hours_ago)
{
    fs::last_write_time(path,
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(hours_ago));
}

TEST(SnapshotRegistry, OpenDeletesOtherBuildsFiles)
{
    std::string dir = tmpPath("store_other_builds");
    fs::remove_all(dir);
    std::string own = tinyPath(dir, "wl-own");
    {
        SnapshotRegistry writer(dir);
        putTiny(writer, "wl-own");
    }
    ASSERT_TRUE(fs::exists(own));

    // The same name with another build identity, as an older build
    // of the source would have written it.
    const std::string own_name = fs::path(own).filename().string();
    std::string other_id = own_name.substr(5, 16);
    other_id[0] = other_id[0] == '0' ? '1' : '0';
    const std::string other = (fs::path(dir) / ("snap-" + other_id +
                                                own_name.substr(21)))
                                  .string();
    writeFile(other, fromOtherBuild(readFile(own)));
    // Names that are not another build's store files stay.
    const std::vector<std::string> keep = {
        other + ".tmp", other + ".corrupt", own + ".corrupt",
        (fs::path(dir) / "notes.txt").string(),
        (fs::path(dir) / ("snap-" + other_id + ".bin")).string(),
    };
    for (const std::string &path : keep)
        writeFile(path, "x");
    EXPECT_TRUE(otherBuildsStoreFile(fs::path(other).filename().string()));
    EXPECT_FALSE(otherBuildsStoreFile(own_name));

    SnapshotRegistry reg(dir);
    EXPECT_FALSE(fs::exists(other));
    for (const std::string &path : keep)
        EXPECT_TRUE(fs::exists(path)) << path;

    // This build's file survived and still hits.
    ASSERT_TRUE(fs::exists(own));
    auto snap = tinySnapshot("wl-own");
    auto got = reg.acquire(snapshotKeyOf(*snap), [&] { return snap; });
    ASSERT_TRUE(got != nullptr);
    EXPECT_EQ(reg.stats().diskHits, 1u);
    EXPECT_EQ(reg.stats().builds, 0u);
}

TEST(SnapshotRegistry, StrictToggleIsSafeDuringConcurrentLookups)
{
    // Regression: strict_ used to be a plain bool that the disk-load
    // classification path read while setStrict() wrote it from
    // another thread -- a data race under TSan. strict_ is atomic
    // now; this test recreates the overlap (a toggler thread racing
    // lookups that read the flag) so the sanitizer CI job keeps
    // proving the fix.
    SnapshotRegistry reg; // memory-only: a miss is never fatal
    auto snap = tinySnapshot("strict-race");
    SnapshotKey key = snapshotKeyOf(*snap);

    std::atomic<bool> stop{false};
    std::thread toggler([&] {
        bool v = true;
        while (!stop.load(std::memory_order_relaxed)) {
            reg.setStrict(v);
            v = !v;
        }
    });

    // Loop until both flag values have been observed so the assertion
    // below cannot flake on a single-core box; yield periodically to
    // guarantee the toggler gets scheduled.
    int seen[2] = {0, 0};
    for (int i = 0; i < 200000 && (seen[0] == 0 || seen[1] == 0);
         ++i) {
        ++seen[reg.strict() ? 1 : 0];
        EXPECT_EQ(reg.cached(key), nullptr);
        if ((i & 1023) == 0)
            std::this_thread::yield();
    }
    stop.store(true);
    toggler.join();
    reg.setStrict(false);

    // Both values were visible, so the toggler really raced the
    // lookups rather than finishing before them.
    EXPECT_GT(seen[0], 0);
    EXPECT_GT(seen[1], 0);
}

TEST(SnapshotRegistryEviction, CapsStoreLruByMtime)
{
    std::string dir = tmpPath("store_evict");
    fs::remove_all(dir);

    // One file's size, to pick a cap that holds two files.
    uint64_t one;
    {
        SnapshotRegistry sizing(dir);
        putTiny(sizing, "wl-a");
        one = fs::file_size(tinyPath(dir, "wl-a"));
        ASSERT_GT(one, 0u);
    }
    fs::remove_all(dir);

    SnapshotRegistry reg(dir, 2 * one + one / 2);
    putTiny(reg, "wl-a");
    putTiny(reg, "wl-b");
    EXPECT_TRUE(fs::exists(tinyPath(dir, "wl-a")));
    EXPECT_TRUE(fs::exists(tinyPath(dir, "wl-b")));
    EXPECT_EQ(reg.stats().storeEvictions, 0u);

    // Make "a" unambiguously the LRU file, then push past the cap:
    // "a" is evicted, the newer files survive.
    ageFile(tinyPath(dir, "wl-a"), 48);
    putTiny(reg, "wl-c");
    EXPECT_FALSE(fs::exists(tinyPath(dir, "wl-a")));
    EXPECT_TRUE(fs::exists(tinyPath(dir, "wl-b")));
    EXPECT_TRUE(fs::exists(tinyPath(dir, "wl-c")));
    EXPECT_EQ(reg.stats().storeEvictions, 1u);

    // The evicted key is still served from the in-process cache
    // (eviction only trims the disk copy).
    EXPECT_TRUE(putTiny(reg, "wl-a") != nullptr);
    EXPECT_EQ(reg.stats().builds, 3u);
    EXPECT_EQ(reg.stats().memoryHits, 1u);
}

TEST(SnapshotRegistryEviction, NeverEvictsTheFileJustWritten)
{
    std::string dir = tmpPath("store_evict_tiny_cap");
    fs::remove_all(dir);

    // A cap below a single file degrades to keep-latest-only.
    SnapshotRegistry reg(dir, 1);
    putTiny(reg, "wl-a");
    EXPECT_TRUE(fs::exists(tinyPath(dir, "wl-a")));
    EXPECT_EQ(reg.stats().storeEvictions, 0u);

    ageFile(tinyPath(dir, "wl-a"), 48);
    putTiny(reg, "wl-b");
    EXPECT_FALSE(fs::exists(tinyPath(dir, "wl-a")));
    EXPECT_TRUE(fs::exists(tinyPath(dir, "wl-b")));
    EXPECT_EQ(reg.stats().storeEvictions, 1u);
}

TEST(SnapshotRegistryEviction, DiskHitRefreshesRecency)
{
    std::string dir = tmpPath("store_evict_touch");
    fs::remove_all(dir);
    {
        SnapshotRegistry writer(dir);
        putTiny(writer, "wl-a");
    }
    ageFile(tinyPath(dir, "wl-a"), 48);
    auto stale = fs::last_write_time(tinyPath(dir, "wl-a"));

    // A fresh registry takes the disk hit and must bump the mtime so
    // a capped store ages by use, not by creation.
    SnapshotRegistry reader(dir);
    auto snap = tinySnapshot("wl-a");
    EXPECT_TRUE(reader.cached(snapshotKeyOf(*snap)) != nullptr);
    EXPECT_EQ(reader.stats().diskHits, 1u);
    EXPECT_GT(fs::last_write_time(tinyPath(dir, "wl-a")), stale);
}

TEST(SnapshotRegistryEviction, UncappedStoreKeepsEverything)
{
    std::string dir = tmpPath("store_evict_uncapped");
    fs::remove_all(dir);
    SnapshotRegistry reg(dir); // cap 0 = unbounded
    for (const char *name : {"wl-a", "wl-b", "wl-c", "wl-d"})
        putTiny(reg, name);
    for (const char *name : {"wl-a", "wl-b", "wl-c", "wl-d"})
        EXPECT_TRUE(fs::exists(tinyPath(dir, name))) << name;
    EXPECT_EQ(reg.stats().storeEvictions, 0u);
}

TEST(SnapshotRegistryDeathTest, StrictModeRejectsForeignFileUnderKey)
{
    // Plant a DS2 snapshot at the file name GNMT's key hashes to --
    // a corrupted shared store. In strict mode (the CI escape hatch)
    // the registry must reject it loudly, never hand GNMT cells DS2
    // state and never paper over it with a rebuild.
    std::string dir = tmpPath("store_foreign");
    fs::remove_all(dir); // stale stores from earlier runs
    fs::create_directories(dir);

    Workload gnmt = makeGnmtWorkload();
    SnapshotKey gnmt_key = snapshotKeyFor(
        gnmt, Experiment::defaultOptions(), sim::GpuConfig::config1());
    ASSERT_TRUE(saveSnapshot(
        *ds2Snapshot(),
        (fs::path(dir) / gnmt_key.fileName()).string()));

    SnapshotRegistry reg(dir);
    reg.setStrict(true);
    EXPECT_DEATH(
        (void)reg.acquire([] { return makeGnmtWorkload(); },
                          sim::GpuConfig::config1(), 1),
        "workload");
    EXPECT_DEATH((void)reg.cached(gnmt_key), "workload");
}

/** Header layout constants of a store file (see snapshot_io.cc). */
constexpr size_t kHeaderBytes = 28; // u32 magic, u64 build, u64 sz, u64 ck

/**
 * Rebuild a valid header over `payload` -- for crafting files whose
 * checksum passes but whose payload fails the structural decode.
 */
std::string
frameWithValidHeader(const std::string &payload)
{
    ByteWriter header;
    header.u32(0x53505153u); // "SQPS"
    header.u64(snapshotBuildId());
    header.u64(payload.size());
    header.u64(fnv1a64Words(payload));
    return header.data() + payload;
}

/** Every corruption of one good file the loader must classify. */
struct Corruption {
    const char *label;
    std::string bytes;      ///< File content to plant.
    ErrorCode expect;       ///< tryLoadSnapshot classification.
    const char *msg;        ///< Substring of the error message.
};

std::vector<Corruption>
corruptionsOf(const std::string &good)
{
    std::vector<Corruption> out;

    std::string bad_magic = good;
    bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x5a);
    out.push_back({"bad magic", bad_magic, ErrorCode::Corruption,
                   "not a snapshot"});

    out.push_back({"truncated header", good.substr(0, kHeaderBytes / 2),
                   ErrorCode::Corruption, "truncated"});

    out.push_back({"truncated payload", good.substr(0, good.size() - 8),
                   ErrorCode::Corruption, "truncated or corrupted"});

    std::string flipped = good;
    flipped[good.size() / 2] =
        static_cast<char>(flipped[good.size() / 2] ^ 0x01);
    out.push_back({"flipped payload byte", flipped,
                   ErrorCode::Corruption, "checksum mismatch"});

    // A checksum-valid frame over a structurally broken payload: the
    // recoverable decode path itself must classify it.
    std::string payload = good.substr(kHeaderBytes);
    out.push_back({"decode failure under valid checksum",
                   frameWithValidHeader(
                       payload.substr(0, payload.size() - 1)),
                   ErrorCode::Corruption, "truncated"});

    return out;
}

TEST(SnapshotIoTryLoad, ClassifiesEveryCorruption)
{
    auto snap = tinySnapshot("wl-try");
    SnapshotKey key = snapshotKeyOf(*snap);
    std::string path = tmpPath("tryload_victim.bin");
    ASSERT_TRUE(saveSnapshot(*snap, path));
    std::string good = readFile(path);
    ASSERT_GT(good.size(), kHeaderBytes);

    // The pristine file loads; a missing file is an OK miss.
    auto ok = tryLoadSnapshot(path, &key);
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(ok.value() != nullptr);
    auto missing = tryLoadSnapshot(tmpPath("tryload_nonexistent.bin"));
    ASSERT_TRUE(missing.ok());
    EXPECT_EQ(missing.value(), nullptr);

    for (const Corruption &c : corruptionsOf(good)) {
        writeFile(path, c.bytes);
        auto result = tryLoadSnapshot(path, &key);
        ASSERT_FALSE(result.ok()) << c.label;
        EXPECT_EQ(result.status().code(), c.expect) << c.label;
        EXPECT_NE(result.status().message().find(c.msg),
                  std::string::npos)
            << c.label << ": " << result.status().message();
    }

    // Another build's file is stale, not corrupt.
    writeFile(path, fromOtherBuild(good));
    auto stale = tryLoadSnapshot(path, &key);
    ASSERT_FALSE(stale.ok());
    EXPECT_EQ(stale.status().code(), ErrorCode::VersionMismatch);
    EXPECT_NE(stale.status().message().find("written by build"),
              std::string::npos)
        << stale.status().message();

    // Identity mismatches on a pristine file are Corruption: the
    // store handed back bytes that are not what the name promises.
    writeFile(path, good);
    SnapshotKey foreign = key;
    foreign.workload = "other";
    auto mismatch = tryLoadSnapshot(path, &foreign);
    ASSERT_FALSE(mismatch.ok());
    EXPECT_EQ(mismatch.status().code(), ErrorCode::Corruption);
}

TEST(SnapshotRegistryDegrade, QuarantinesEveryCorruptionAndRebuilds)
{
    std::string dir = tmpPath("store_degrade");
    setQuietLogging(true);
    auto snap = tinySnapshot("wl-degrade");
    SnapshotKey key = snapshotKeyOf(*snap);
    std::string path;
    std::string good;
    {
        fs::remove_all(dir);
        SnapshotRegistry writer(dir);
        writer.acquire(key, [&] { return snap; });
        path = tinyPath(dir, "wl-degrade");
        good = readFile(path);
    }

    uint64_t expected_quarantines = 0;
    for (const Corruption &c : corruptionsOf(good)) {
        fs::remove(path + ".corrupt");
        writeFile(path, c.bytes);

        // A fresh registry (no memory hit) must degrade: rebuild via
        // the builder, quarantine the bad file, and leave a clean
        // rewrite under the original name.
        SnapshotRegistry reg(dir);
        auto got = reg.acquire(key, [&] { return snap; });
        ASSERT_TRUE(got != nullptr) << c.label;
        EXPECT_EQ(encodeSnapshotPayload(*got),
                  encodeSnapshotPayload(*snap))
            << c.label;
        EXPECT_EQ(reg.stats().builds, 1u) << c.label;
        EXPECT_EQ(reg.stats().quarantines, 1u) << c.label;
        ++expected_quarantines;
        EXPECT_TRUE(fs::exists(path + ".corrupt")) << c.label;
        EXPECT_EQ(readFile(path + ".corrupt"), c.bytes) << c.label;
        EXPECT_EQ(readFile(path), good) << c.label;
    }
    ASSERT_GT(expected_quarantines, 0u);
    setQuietLogging(false);
}

TEST(SnapshotRegistryDegrade, ForeignFileIsQuarantinedNotFatal)
{
    std::string dir = tmpPath("store_degrade_foreign");
    fs::remove_all(dir);
    fs::create_directories(dir);
    setQuietLogging(true);

    // Plant wl-b's bytes under wl-a's name (a mis-assembled store).
    auto snap_a = tinySnapshot("wl-a");
    auto snap_b = tinySnapshot("wl-b");
    std::string path_a = tinyPath(dir, "wl-a");
    ASSERT_TRUE(saveSnapshot(*snap_b, path_a));

    SnapshotRegistry reg(dir);
    auto got = reg.acquire(snapshotKeyOf(*snap_a),
                           [&] { return snap_a; });
    ASSERT_TRUE(got != nullptr);
    EXPECT_EQ(got->workload, "wl-a");
    EXPECT_EQ(reg.stats().builds, 1u);
    EXPECT_EQ(reg.stats().quarantines, 1u);
    EXPECT_TRUE(fs::exists(path_a + ".corrupt"));
    setQuietLogging(false);
}

TEST(SnapshotRegistryDegrade, OtherBuildsFileIsDroppedNotQuarantined)
{
    std::string dir = tmpPath("store_other_build");
    fs::remove_all(dir);
    auto snap = tinySnapshot("wl-other");
    SnapshotKey key = snapshotKeyOf(*snap);
    std::string path = tinyPath(dir, "wl-other");
    std::string good;
    {
        SnapshotRegistry writer(dir);
        writer.acquire(key, [&] { return snap; });
        good = readFile(path);
    }

    // Stale, not corrupt: a plain miss in either mode. The file is
    // deleted (no .corrupt copy) and the rebuild's save replaces it.
    for (bool strict : {false, true}) {
        writeFile(path, fromOtherBuild(good));
        SnapshotRegistry reg(dir);
        reg.setStrict(strict);
        auto got = reg.acquire(key, [&] { return snap; });
        ASSERT_TRUE(got != nullptr) << strict;
        EXPECT_EQ(reg.stats().builds, 1u) << strict;
        EXPECT_EQ(reg.stats().quarantines, 0u) << strict;
        EXPECT_FALSE(fs::exists(path + ".corrupt")) << strict;
        EXPECT_EQ(readFile(path), good) << strict;
    }

    // A lookup that does not build leaves the name free.
    writeFile(path, fromOtherBuild(good));
    SnapshotRegistry reader(dir);
    EXPECT_TRUE(reader.cached(key) == nullptr);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_EQ(reader.stats().quarantines, 0u);
}

TEST(SnapshotRegistryDegrade, QuarantinedFilesAreInvisibleToTheCap)
{
    std::string dir = tmpPath("store_degrade_cap");
    fs::remove_all(dir);
    setQuietLogging(true);

    uint64_t one;
    {
        SnapshotRegistry sizing(dir);
        putTiny(sizing, "wl-a");
        one = fs::file_size(tinyPath(dir, "wl-a"));
    }
    fs::remove_all(dir);

    SnapshotRegistry reg(dir, 2 * one + one / 2);
    putTiny(reg, "wl-a");

    // Corrupt wl-a's file; re-acquiring through a fresh registry
    // quarantines it. The .corrupt file must neither count toward
    // the cap nor ever be evicted by it.
    std::string path_a = tinyPath(dir, "wl-a");
    std::string good = readFile(path_a);
    std::string bad = good;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 1);
    writeFile(path_a, bad);

    SnapshotRegistry reg2(dir, 2 * one + one / 2);
    putTiny(reg2, "wl-a");
    ASSERT_TRUE(fs::exists(path_a + ".corrupt"));

    ageFile(path_a, 24);
    ageFile(path_a + ".corrupt", 72); // oldest file in the store
    putTiny(reg2, "wl-b");
    putTiny(reg2, "wl-c");

    // wl-a (oldest .bin) was evicted to fit the cap; the older
    // .corrupt file was skipped entirely.
    EXPECT_FALSE(fs::exists(path_a));
    EXPECT_TRUE(fs::exists(path_a + ".corrupt"));
    EXPECT_TRUE(fs::exists(tinyPath(dir, "wl-b")));
    EXPECT_TRUE(fs::exists(tinyPath(dir, "wl-c")));
    EXPECT_GE(reg2.stats().storeEvictions, 1u);
    setQuietLogging(false);
}

TEST(SnapshotIoFaults, InjectedPartialWriteNeverCreatesTheFile)
{
    FaultInjector::instance().reset();
    setQuietLogging(true);
    std::string path = tmpPath("faulted_save.bin");
    fs::remove(path);
    auto snap = tinySnapshot("wl-faultsave");

    // First save hits the injected fault: the destination name must
    // never appear, only a partial temp file (the simulated corpse of
    // a writer that died mid-stream).
    FaultInjector::instance().armAt("snapshot_io.write", path, {1});
    EXPECT_FALSE(saveSnapshot(*snap, path));
    EXPECT_FALSE(fs::exists(path));
    bool tmp_corpse = false;
    for (const auto &entry :
         fs::directory_iterator(fs::path(path).parent_path())) {
        if (entry.path().string().find("faulted_save.bin.tmp") !=
            std::string::npos) {
            tmp_corpse = true;
            // The corpse is strictly smaller than a full file.
            EXPECT_LT(entry.file_size(),
                      frameWithValidHeader(
                          encodeSnapshotPayload(*snap)).size());
        }
    }
    EXPECT_TRUE(tmp_corpse);
    EXPECT_EQ(FaultInjector::instance().fired("snapshot_io.write"), 1u);

    // The rule is spent: the retry saves atomically and loads clean.
    EXPECT_TRUE(saveSnapshot(*snap, path));
    SnapshotKey key = snapshotKeyOf(*snap);
    auto loaded = tryLoadSnapshot(path, &key);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded.value() != nullptr);
    FaultInjector::instance().reset();
    setQuietLogging(false);
}

TEST(SnapshotIoFaults, InjectedReadFaultDegradesToRebuild)
{
    FaultInjector::instance().reset();
    setQuietLogging(true);
    std::string dir = tmpPath("store_fault_read");
    fs::remove_all(dir);
    auto snap = tinySnapshot("wl-faultread");
    SnapshotKey key = snapshotKeyOf(*snap);
    {
        SnapshotRegistry writer(dir);
        writer.acquire(key, [&] { return snap; });
    }

    // The first read of this file fails (injected IoError): a fresh
    // registry quarantines and rebuilds; the next fresh registry
    // (rule spent) takes a disk hit on the rewritten file.
    std::string path = tinyPath(dir, "wl-faultread");
    FaultInjector::instance().armAt("snapshot_io.read", path, {1});
    SnapshotRegistry reg(dir);
    auto got = reg.acquire(key, [&] { return snap; });
    ASSERT_TRUE(got != nullptr);
    EXPECT_EQ(reg.stats().builds, 1u);
    EXPECT_EQ(reg.stats().quarantines, 1u);

    SnapshotRegistry reg2(dir);
    EXPECT_TRUE(reg2.cached(key) != nullptr);
    EXPECT_EQ(reg2.stats().diskHits, 1u);
    FaultInjector::instance().reset();
    setQuietLogging(false);
}

TEST(SnapshotIoFaults, InjectedSaveFaultSkipsPersistOnly)
{
    FaultInjector::instance().reset();
    setQuietLogging(true);
    std::string dir = tmpPath("store_fault_save");
    fs::remove_all(dir);
    auto snap = tinySnapshot("wl-faultpersist");
    SnapshotKey key = snapshotKeyOf(*snap);

    FaultInjector::instance().armAt("registry.save", key.fileName(),
                                    {1});
    SnapshotRegistry reg(dir);
    auto got = reg.acquire(key, [&] { return snap; });
    ASSERT_TRUE(got != nullptr);
    EXPECT_EQ(reg.stats().builds, 1u);
    // The build was served but never persisted.
    EXPECT_FALSE(fs::exists(tinyPath(dir, "wl-faultpersist")));
    // In-process consumers still hit memory.
    EXPECT_TRUE(reg.cached(key) != nullptr);
    FaultInjector::instance().reset();
    setQuietLogging(false);
}

} // anonymous namespace
} // namespace harness
} // namespace seqpoint
