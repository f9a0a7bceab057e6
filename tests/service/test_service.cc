/**
 * @file
 * Tests for the deadline-aware query service: answer correctness
 * against a direct Experiment (bit-identical), warm-vs-cold
 * accounting, single-flight dedup of concurrent identical queries,
 * admission-control shedding, deadline and cancellation unwinds that
 * leave the service reusable, graceful drain (including persisting a
 * snapshot whose save a fault dropped), and a death-free chaos run
 * under the PR 6 fault storm.
 *
 * An 8-client x 8-worker cold round over six pairs, with duplicates
 * in flight together, must build each pair once and answer every
 * query bit-identically.
 *
 * Warm entries are checked too: every config field keys its own
 * entry, a NaN-valued config builds once and then answers warm, and
 * concurrent warm hits on pre-warmed pairs answer as their pre-warm
 * queries did.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "harness/experiment.hh"
#include "harness/workloads.hh"
#include "service/query_service.hh"

namespace seqpoint {
namespace service {
namespace {

namespace fs = std::filesystem;

std::string
tmpStore(const std::string &name)
{
    std::string dir = (fs::path(testing::TempDir()) / name).string();
    std::error_code ec;
    fs::remove_all(dir, ec);
    return dir;
}

/** The clean serial answer the service must reproduce exactly. */
QueryAnswer
directAnswer(harness::Workload wl, const sim::GpuConfig &cfg)
{
    harness::Experiment exp(std::move(wl));
    exp.setProfileThreads(1);
    QueryAnswer want;
    want.selection =
        exp.buildSelection(core::SelectorKind::SeqPoint, cfg);
    want.projectedSec = exp.projectedTrainSec(want.selection, cfg);
    want.actualSec = exp.actualTrainSec(cfg);
    return want;
}

bool
answersMatch(const QueryAnswer &a, const QueryAnswer &b)
{
    return a.selection == b.selection &&
        a.projectedSec == b.projectedSec && a.actualSec == b.actualSec;
}

QueryRequest
ds2Request(const sim::GpuConfig &cfg = sim::GpuConfig::config1())
{
    QueryRequest req;
    req.workload = "DS2";
    req.config = cfg;
    return req;
}

TEST(QueryService, AnswersBitIdenticalToDirectExperiment)
{
    ServiceConfig cfg;
    cfg.workers = 2;
    QueryService svc(cfg);
    svc.registerWorkload("DS2",
                         [] { return harness::makeDs2Workload(); });
    svc.start();

    QueryResult cold = svc.query(ds2Request());
    ASSERT_TRUE(cold.status.ok()) << cold.status.toString();
    EXPECT_TRUE(cold.coldBuild);

    QueryResult warm = svc.query(ds2Request());
    ASSERT_TRUE(warm.status.ok()) << warm.status.toString();
    EXPECT_FALSE(warm.coldBuild);

    QueryAnswer want = directAnswer(harness::makeDs2Workload(),
                                    sim::GpuConfig::config1());
    EXPECT_TRUE(answersMatch(cold.answer, want));
    EXPECT_TRUE(answersMatch(warm.answer, want));
    EXPECT_GT(cold.latencySec, 0.0);

    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.admitted, 2u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.coldBuilds, 1u);
    EXPECT_EQ(stats.warmHits, 1u);
    svc.drain();
    EXPECT_FALSE(svc.running());
}

TEST(QueryService, ConcurrentDuplicatesShareOneBuild)
{
    ServiceConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 32;
    QueryService svc(cfg);
    svc.registerWorkload("DS2",
                         [] { return harness::makeDs2Workload(); });
    svc.start();

    // Eight identical queries in flight together: the registry's
    // single-flight slot plus the warm entry must collapse them onto
    // exactly one underlying cold start.
    std::vector<PendingPtr> handles;
    for (int i = 0; i < 8; ++i)
        handles.push_back(svc.submit(ds2Request()));
    QueryAnswer want = directAnswer(harness::makeDs2Workload(),
                                    sim::GpuConfig::config1());
    unsigned cold_builds = 0;
    for (const PendingPtr &h : handles) {
        QueryResult r = h->wait();
        ASSERT_TRUE(r.status.ok()) << r.status.toString();
        EXPECT_TRUE(answersMatch(r.answer, want));
        cold_builds += r.coldBuild;
    }
    EXPECT_EQ(cold_builds, 1u);
    EXPECT_EQ(svc.registry().stats().builds, 1u);
    EXPECT_EQ(svc.stats().coldBuilds, 1u);
    EXPECT_EQ(svc.stats().warmHits, 7u);
}

TEST(QueryService, EightClientsColdRoundBuildsOncePerPair)
{
    // The heaviest interleaving the service sees: 8 clients on an
    // 8-worker service over a store directory, every one of 6
    // (workload, config) pairs asked three times in one interleaved
    // cold round, so duplicates of each pair are in flight together.
    // Every answer must be bit-identical to a direct Experiment, the
    // duplicates must ride exactly one build per pair, and a warm
    // round after it must answer from resident state.
    std::string dir = tmpStore("service_8x8_store");
    std::vector<std::pair<std::string, harness::WorkloadFactory>>
        workloads = {
            {"GNMT", [] { return harness::makeGnmtWorkload(); }},
            {"DS2", [] { return harness::makeDs2Workload(); }},
            {"Transformer",
             [] { return harness::makeTransformerWorkload(); }},
        };
    std::vector<QueryRequest> pairs;
    std::vector<QueryAnswer> want;
    for (const auto &[name, make] : workloads) {
        for (const sim::GpuConfig &c :
             {sim::GpuConfig::config1(), sim::GpuConfig::config2()}) {
            QueryRequest req;
            req.workload = name;
            req.config = c;
            pairs.push_back(req);
            want.push_back(directAnswer(make(), c));
        }
    }

    ServiceConfig cfg;
    cfg.workers = 8;
    cfg.queueCapacity = 64;
    cfg.storeDir = dir;
    QueryService svc(cfg);
    for (const auto &[name, make] : workloads)
        svc.registerWorkload(name, make);
    svc.start();

    // Each client loops synchronous queries over a shared index into
    // `mix`; result i answers mix[i], which is pairs[i % 6].
    auto round = [&svc, &pairs](unsigned repeats) {
        std::vector<QueryRequest> mix;
        for (unsigned d = 0; d < repeats; ++d)
            mix.insert(mix.end(), pairs.begin(), pairs.end());
        std::vector<QueryResult> results(mix.size());
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < 8; ++c) {
            clients.emplace_back([&] {
                for (;;) {
                    std::size_t i = next.fetch_add(1);
                    if (i >= mix.size())
                        return;
                    results[i] = svc.query(mix[i]);
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
        return results;
    };

    std::vector<QueryResult> cold = round(3);
    unsigned cold_builds = 0;
    for (std::size_t i = 0; i < cold.size(); ++i) {
        ASSERT_TRUE(cold[i].status.ok()) << cold[i].status.toString();
        EXPECT_TRUE(answersMatch(cold[i].answer, want[i % pairs.size()]))
            << "cold query " << i;
        cold_builds += cold[i].coldBuild;
    }
    EXPECT_EQ(cold_builds, pairs.size());
    EXPECT_EQ(svc.registry().stats().builds, pairs.size());
    EXPECT_EQ(svc.stats().coldBuilds, pairs.size());

    std::vector<QueryResult> warm = round(4);
    for (std::size_t i = 0; i < warm.size(); ++i) {
        ASSERT_TRUE(warm[i].status.ok()) << warm[i].status.toString();
        EXPECT_FALSE(warm[i].coldBuild) << "warm query " << i;
        EXPECT_TRUE(answersMatch(warm[i].answer, want[i % pairs.size()]))
            << "warm query " << i;
    }
    EXPECT_EQ(svc.registry().stats().builds, pairs.size());
    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.completed, cold.size() + warm.size());
    EXPECT_EQ(stats.coldBuilds, pairs.size());
    svc.drain();
    std::error_code ec;
    fs::remove_all(dir, ec);
}

TEST(QueryService, OverloadShedsClassified)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 1;
    QueryService svc(cfg);
    svc.registerWorkload("DS2",
                         [] { return harness::makeDs2Workload(); });
    svc.start();

    // While the single worker is inside the first cold build, the
    // one-slot queue fills and the rest of the burst sheds
    // immediately with a classified Overloaded.
    std::vector<PendingPtr> handles;
    for (int i = 0; i < 16; ++i)
        handles.push_back(svc.submit(ds2Request()));
    unsigned ok = 0, shed = 0;
    for (const PendingPtr &h : handles) {
        QueryResult r = h->wait();
        if (r.status.ok()) {
            ++ok;
        } else {
            ASSERT_EQ(r.status.code(), ErrorCode::Overloaded)
                << r.status.toString();
            EXPECT_FALSE(r.status.message().empty());
            ++shed;
        }
    }
    EXPECT_EQ(ok + shed, 16u);
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(svc.stats().shedOverload, shed);
    EXPECT_EQ(svc.stats().admitted, ok);

    // After drain the service refuses instead of wedging.
    svc.drain();
    QueryResult late = svc.query(ds2Request());
    EXPECT_EQ(late.status.code(), ErrorCode::Overloaded);
}

TEST(QueryService, ExpiredDeadlineClassifiedTimeout)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    QueryService svc(cfg);
    svc.registerWorkload("DS2",
                         [] { return harness::makeDs2Workload(); });
    svc.start();

    QueryRequest late = ds2Request();
    late.deadlineSec = 1e-9;
    QueryResult r = svc.query(late);
    ASSERT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.code(), ErrorCode::Timeout);
    EXPECT_EQ(svc.stats().deadlineMissed, 1u);

    // The shed request left the worker healthy: a normal query on
    // the same service still answers.
    EXPECT_TRUE(svc.query(ds2Request()).status.ok());
}

TEST(QueryService, CancelMidBuildLeavesServiceReusable)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    QueryService svc(cfg);
    svc.registerWorkload("DS2",
                         [] { return harness::makeDs2Workload(); });
    svc.start();

    PendingPtr p = svc.submit(ds2Request());
    p->cancel();
    QueryResult r = p->wait();
    // The cancel races the (slow, cold) build; either it unwound at
    // a checkpoint with a classified Cancelled, or the answer beat
    // the cancel. Both are legal; an unclassified failure is not.
    if (!r.status.ok())
        EXPECT_EQ(r.status.code(), ErrorCode::Cancelled)
            << r.status.toString();

    // Reusable either way: the next uncancelled query answers
    // bit-identically to a direct Experiment.
    QueryResult again = svc.query(ds2Request());
    ASSERT_TRUE(again.status.ok()) << again.status.toString();
    EXPECT_TRUE(answersMatch(again.answer,
                             directAnswer(harness::makeDs2Workload(),
                                          sim::GpuConfig::config1())));
}

TEST(QueryService, UnknownWorkloadClassifiedNotFatal)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    QueryService svc(cfg);
    svc.registerWorkload("DS2",
                         [] { return harness::makeDs2Workload(); });
    svc.start();

    QueryRequest bogus;
    bogus.workload = "NoSuchModel";
    bogus.config = sim::GpuConfig::config1();
    QueryResult r = svc.query(bogus);
    ASSERT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.code(), ErrorCode::CellFailed);
    EXPECT_EQ(svc.stats().failed, 1u);

    EXPECT_TRUE(svc.query(ds2Request()).status.ok());
}

TEST(QueryService, DrainPersistsDroppedSnapshotAndIsIdempotent)
{
    std::string dir = tmpStore("service_drain_store");
    auto &inj = FaultInjector::instance();
    inj.reset();
    // Drop the build-time persist: the store misses the snapshot the
    // service is holding in memory.
    inj.armAt("registry.save", "", {1});

    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.storeDir = dir;
    QueryService svc(cfg);
    svc.registerWorkload("DS2",
                         [] { return harness::makeDs2Workload(); });
    svc.start();

    setQuietLogging(true); // dropped-save + flush warnings expected
    EXPECT_TRUE(svc.query(ds2Request()).status.ok());
    EXPECT_EQ(inj.fired("registry.save"), 1u);
    std::error_code ec;
    std::size_t bins_before = 0;
    for (const auto &entry : fs::directory_iterator(dir, ec))
        bins_before += entry.path().extension() == ".bin";
    EXPECT_EQ(bins_before, 0u);

    // Drain's flush phase repairs the store; a second drain no-ops.
    svc.drain();
    svc.drain();
    setQuietLogging(false);
    inj.reset();

    std::size_t bins_after = 0;
    for (const auto &entry : fs::directory_iterator(dir, ec))
        bins_after += entry.path().extension() == ".bin";
    EXPECT_EQ(bins_after, 1u);

    // The flushed snapshot is adopted by a fresh registry: replay
    // without a build proves the bytes round-trip.
    harness::SnapshotRegistry reader(dir);
    auto snap = reader.acquire(
        [] { return harness::makeDs2Workload(); },
        sim::GpuConfig::config1(), 1);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(reader.stats().builds, 0u);
    EXPECT_EQ(reader.stats().diskHits, 1u);
    fs::remove_all(dir, ec);
}

TEST(QueryService, ChaosUnderLoadIsDeathFree)
{
    std::string dir = tmpStore("service_chaos_store");
    auto gnmt = [] { return harness::makeGnmtWorkload(); };
    auto ds2 = [] { return harness::makeDs2Workload(); };
    sim::GpuConfig c1 = sim::GpuConfig::config1();

    // Prime the store, then corrupt the first file (sorted:
    // deterministic choice) and arm seeded read/load faults -- the
    // PR 6 storm, now under concurrent service load.
    {
        harness::SnapshotRegistry prime(dir);
        (void)prime.acquire(gnmt, c1, 1);
        (void)prime.acquire(ds2, c1, 1);
    }
    std::error_code ec;
    std::vector<std::string> files;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".bin")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    {
        std::ifstream in(files[0], std::ios::binary);
        std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
        ASSERT_GT(bytes.size(), 32u);
        bytes[bytes.size() / 2] =
            static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
        std::ofstream out(files[0],
                          std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    auto &inj = FaultInjector::instance();
    inj.reset();
    inj.armSeeded("snapshot_io.read", "", 0xc4a05, 0.5, 2);
    inj.armSeeded("registry.load", "", 0x10adf, 0.5, 2);
    inj.armAt("registry.save", "", {1});
    inj.armSeeded("snapshot_io.write", "", 0x717e5, 0.5, 1);

    QueryAnswer want_gnmt =
        directAnswer(harness::makeGnmtWorkload(), c1);
    QueryAnswer want_ds2 = directAnswer(harness::makeDs2Workload(), c1);

    ServiceConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 16;
    cfg.storeDir = dir;
    QueryService svc(cfg);
    svc.registerWorkload("GNMT", gnmt);
    svc.registerWorkload("DS2", ds2);
    svc.start();

    setQuietLogging(true); // the storm's warnings are expected noise
    const unsigned per_client = 3, clients = 4;
    std::atomic<unsigned> identical{0}, classified{0}, unclassified{0};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (unsigned i = 0; i < per_client; ++i) {
                QueryRequest req;
                bool is_gnmt = (c + i) % 2 == 0;
                req.workload = is_gnmt ? "GNMT" : "DS2";
                req.config = c1;
                QueryResult r = svc.query(req);
                if (r.status.ok()) {
                    bool match = answersMatch(
                        r.answer, is_gnmt ? want_gnmt : want_ds2);
                    (match ? identical : unclassified)++;
                } else if (r.status.code() == ErrorCode::Overloaded ||
                           r.status.code() == ErrorCode::Timeout ||
                           r.status.code() == ErrorCode::Cancelled) {
                    classified++;
                } else {
                    unclassified++;
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    svc.drain();
    setQuietLogging(false);
    inj.reset();

    // Every request answered bit-identically or shed classified --
    // never an unclassified failure, a crash, or a stuck worker.
    EXPECT_EQ(identical.load() + classified.load(),
              clients * per_client);
    EXPECT_EQ(unclassified.load(), 0u);
    EXPECT_EQ(svc.stats().stuckReports, 0u);
    fs::remove_all(dir, ec);
}

TEST(QueryService, EveryConfigFieldKeysItsOwnEntry)
{
    // One config per GpuConfig field (the name included), each
    // differing from the base in that field only, plus a -0.0 / 0.0
    // pair that operator== calls equal but signature() keeps apart.
    const sim::GpuConfig base = sim::GpuConfig::config1();
    std::vector<sim::GpuConfig> variants;
    auto vary = [&](auto mutate) {
        sim::GpuConfig c = base;
        mutate(c);
        variants.push_back(c);
    };
    vary([](sim::GpuConfig &c) { c.name = "config#1b"; });
    vary([](sim::GpuConfig &c) { c.gclkHz *= 1.25; });
    vary([](sim::GpuConfig &c) { c.numCus = 32; });
    vary([](sim::GpuConfig &c) { c.simdsPerCu = 2; });
    vary([](sim::GpuConfig &c) { c.lanesPerSimd = 32; });
    vary([](sim::GpuConfig &c) { c.maxWavesPerCu = 20; });
    vary([](sim::GpuConfig &c) { c.waveSize = 32; });
    vary([](sim::GpuConfig &c) { c.l1SizeBytes *= 2; });
    vary([](sim::GpuConfig &c) { c.l1Assoc = 8; });
    vary([](sim::GpuConfig &c) { c.l2SizeBytes *= 2; });
    vary([](sim::GpuConfig &c) { c.l2Assoc = 8; });
    vary([](sim::GpuConfig &c) { c.lineBytes = 128; });
    vary([](sim::GpuConfig &c) { c.l1BytesPerCycle *= 0.5; });
    vary([](sim::GpuConfig &c) { c.l2BytesPerCycle *= 0.5; });
    vary([](sim::GpuConfig &c) { c.dramBandwidth *= 1.25; });
    vary([](sim::GpuConfig &c) { c.dramEfficiency = 0.7; });
    vary([](sim::GpuConfig &c) { c.launchOverheadSec *= 2.0; });
    vary([](sim::GpuConfig &c) { c.writeDrainFraction = 0.6; });
    vary([](sim::GpuConfig &c) { c.launchOverheadSec = 0.0; });
    vary([](sim::GpuConfig &c) { c.launchOverheadSec = -0.0; });
    ASSERT_TRUE(variants[variants.size() - 2] == variants.back());

    ServiceConfig cfg;
    cfg.workers = 1;
    QueryService svc(cfg);
    svc.registerWorkload("CNN",
                         [] { return harness::makeCnnWorkload(); });
    svc.start();

    auto ask = [&](const sim::GpuConfig &c) {
        QueryRequest req;
        req.workload = "CNN";
        req.config = c;
        return svc.query(req);
    };
    ASSERT_TRUE(ask(base).coldBuild);

    uint64_t builds = 1;
    for (const sim::GpuConfig &c : variants) {
        SCOPED_TRACE(c.signature());
        QueryAnswer want = directAnswer(harness::makeCnnWorkload(), c);
        QueryResult first = ask(c);
        ASSERT_TRUE(first.status.ok()) << first.status.toString();
        EXPECT_TRUE(first.coldBuild);
        EXPECT_EQ(svc.registry().stats().builds, ++builds);
        EXPECT_TRUE(answersMatch(first.answer, want));

        QueryResult again = ask(c);
        ASSERT_TRUE(again.status.ok()) << again.status.toString();
        EXPECT_FALSE(again.coldBuild);
        EXPECT_EQ(svc.registry().stats().builds, builds);
        EXPECT_TRUE(answersMatch(again.answer, want));
    }
    EXPECT_FALSE(ask(base).coldBuild);
    EXPECT_EQ(svc.stats().coldBuilds, variants.size() + 1);
    EXPECT_EQ(svc.stats().warmHits, variants.size() + 1);
}

TEST(QueryService, NanConfigBuildsOnceAndAnswersWarm)
{
    // A NaN field never equals itself under operator==; the service
    // and the Experiments behind it must still resolve the config to
    // one warm entry and one per-configuration state.
    sim::GpuConfig nan_cfg = sim::GpuConfig::config1();
    nan_cfg.writeDrainFraction = std::numeric_limits<double>::quiet_NaN();

    ServiceConfig cfg;
    cfg.workers = 1;
    QueryService svc(cfg);
    svc.registerWorkload("DS2",
                         [] { return harness::makeDs2Workload(); });
    svc.start();

    QueryResult cold = svc.query(ds2Request(nan_cfg));
    ASSERT_TRUE(cold.status.ok()) << cold.status.toString();
    EXPECT_TRUE(cold.coldBuild);
    EXPECT_EQ(svc.registry().stats().builds, 1u);
    EXPECT_FALSE(cold.answer.selection.points.empty());

    QueryResult warm = svc.query(ds2Request(nan_cfg));
    ASSERT_TRUE(warm.status.ok()) << warm.status.toString();
    EXPECT_FALSE(warm.coldBuild);
    EXPECT_EQ(svc.registry().stats().builds, 1u);
    EXPECT_TRUE(warm.answer.selection == cold.answer.selection);
    EXPECT_EQ(std::bit_cast<uint64_t>(warm.answer.projectedSec),
              std::bit_cast<uint64_t>(cold.answer.projectedSec));
    EXPECT_EQ(std::bit_cast<uint64_t>(warm.answer.actualSec),
              std::bit_cast<uint64_t>(cold.answer.actualSec));
    EXPECT_EQ(svc.stats().coldBuilds, 1u);
    EXPECT_EQ(svc.stats().warmHits, 1u);
    svc.drain();
}

TEST(QueryService, ConcurrentWarmHitsMatchPrewarmedAnswers)
{
    ServiceConfig cfg;
    cfg.workers = 4;
    QueryService svc(cfg);
    svc.registerWorkload("CNN",
                         [] { return harness::makeCnnWorkload(); });
    svc.registerWorkload("DS2",
                         [] { return harness::makeDs2Workload(); });
    svc.start();

    std::vector<QueryRequest> pairs;
    for (const char *wl : {"CNN", "DS2"}) {
        for (const sim::GpuConfig &c : sim::GpuConfig::table2()) {
            QueryRequest req;
            req.workload = wl;
            req.config = c;
            pairs.push_back(req);
        }
    }
    std::vector<QueryAnswer> prewarm;
    for (const QueryRequest &req : pairs) {
        QueryResult r = svc.query(req);
        ASSERT_TRUE(r.status.ok()) << r.status.toString();
        ASSERT_TRUE(r.coldBuild);
        prewarm.push_back(r.answer);
    }

    // Four clients hammer every warm pair at once; each answer must
    // be the pair's pre-warm answer and none may rebuild.
    const unsigned clients = 4, per_client = 1000;
    std::atomic<unsigned> mismatched{0};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (unsigned i = 0; i < per_client; ++i) {
                std::size_t k = (c * 3 + i) % pairs.size();
                QueryResult r = svc.query(pairs[k]);
                if (!r.status.ok() || r.coldBuild ||
                    !answersMatch(r.answer, prewarm[k]))
                    mismatched++;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(mismatched.load(), 0u);
    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.warmHits, uint64_t{clients} * per_client);
    EXPECT_EQ(stats.coldBuilds, pairs.size());
    EXPECT_EQ(svc.registry().stats().builds, pairs.size());
    svc.drain();
}

} // anonymous namespace
} // namespace service
} // namespace seqpoint
