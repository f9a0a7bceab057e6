/**
 * @file
 * Query-service load bench.
 *
 * Drives the deadline-aware SeqPoint query service the way a
 * multi-tenant sweep would: 8 client threads issuing a mixed stream
 * of (workload, configuration) queries against one shared service.
 *
 * Part 1 measures the latency split the service exists to create:
 * a cold round (every pair queried for the first time, duplicates
 * submitted concurrently to exercise the single-flight dedup) versus
 * a warm round (a 24-query mix answered entirely from resident
 * state). Every answer must be bit-identical to a direct serial
 * Experiment pass, the duplicate cold queries must ride exactly one
 * underlying build per pair, and the warm p50 must beat the cold p50
 * by >= 2x.
 *
 * Part 2 exercises admission control: a burst into a 1-worker,
 * 1-slot service must shed the overflow immediately with
 * ErrorCode::Overloaded (classified, never queued without bound),
 * and a request with an already-expired deadline must come back as a
 * classified Timeout instead of wedging a worker.
 *
 * Part 3 replays the PR 6 fault storm under concurrent load: store
 * files corrupted on disk, seeded read/load faults, a dropped
 * persist. The service must keep answering -- every request either
 * bit-identical to the clean serial pass or shed with a classified
 * Status -- with no unclassified failure, no stuck worker, and a
 * clean drain.
 *
 * The process exits non-zero if any gate is missed.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/stats_math.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "harness/workloads.hh"
#include "service/query_service.hh"
#include "support.hh"

using namespace seqpoint;

namespace {

double
now()
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now().time_since_epoch()).count();
}

/** One (workload name, factory, configuration) query target. */
struct Pair {
    std::string workload;
    harness::WorkloadFactory make;
    sim::GpuConfig config;
};

/** The clean serial answer for one pair (the identity reference). */
struct RefAnswer {
    core::SeqPointSet selection;
    double projectedSec = 0.0;
    double actualSec = 0.0;
};

bool
answersMatch(const service::QueryAnswer &got, const RefAnswer &want)
{
    return got.selection == want.selection &&
        got.projectedSec == want.projectedSec &&
        got.actualSec == want.actualSec;
}

/**
 * Run `mix` through the service from `clients` concurrent client
 * threads (shared work index; each client loops synchronous
 * query() calls) and return the per-query results in mix order.
 */
std::vector<service::QueryResult>
runClients(service::QueryService &svc,
           const std::vector<service::QueryRequest> &mix,
           unsigned clients, double *wall_sec)
{
    std::vector<service::QueryResult> results(mix.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    double t0 = now();
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= mix.size())
                    return;
                results[i] = svc.query(mix[i]);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    *wall_sec = now() - t0;
    return results;
}

/** Flip one payload byte of a snapshot store file in place. */
bool
corruptStoreFile(const std::string &path)
{
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in.good())
            return false;
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    if (bytes.size() < 32)
        return false;
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    return out.good();
}

std::filesystem::path
tempStoreDir(const char *tag)
{
    std::error_code ec;
    std::filesystem::path dir =
        std::filesystem::temp_directory_path(ec) /
        csprintf("seqpoint_service_%s.%ld", tag,
                 static_cast<long>(::getpid()));
    if (ec)
        dir = csprintf("service_%s_store.%ld", tag,
                       static_cast<long>(::getpid()));
    std::filesystem::remove_all(dir, ec);
    return dir;
}

} // anonymous namespace

int
main()
{
    const unsigned clients = 8;
    const unsigned workers = 8;

    // The query universe: 3 workloads x 2 configurations.
    std::vector<Pair> pairs = {
        {"GNMT", [] { return harness::makeGnmtWorkload(); },
         sim::GpuConfig::config1()},
        {"GNMT", [] { return harness::makeGnmtWorkload(); },
         sim::GpuConfig::config2()},
        {"DS2", [] { return harness::makeDs2Workload(); },
         sim::GpuConfig::config1()},
        {"DS2", [] { return harness::makeDs2Workload(); },
         sim::GpuConfig::config2()},
        {"Transformer",
         [] { return harness::makeTransformerWorkload(); },
         sim::GpuConfig::config1()},
        {"Transformer",
         [] { return harness::makeTransformerWorkload(); },
         sim::GpuConfig::config2()},
    };

    // ------------------------------------------------------------------
    // Serial reference: the clean single-threaded answers every
    // service result must match bit-for-bit. One Experiment per
    // workload, queried in the same order the service answers.
    // ------------------------------------------------------------------
    std::vector<RefAnswer> ref(pairs.size());
    double t0 = now();
    for (std::size_t i = 0; i < pairs.size(); i += 2) {
        harness::Experiment exp(pairs[i].make());
        for (std::size_t j = i; j < i + 2; ++j) {
            ref[j].selection = exp.buildSelection(
                core::SelectorKind::SeqPoint, pairs[j].config);
            ref[j].projectedSec = exp.projectedTrainSec(
                ref[j].selection, pairs[j].config);
            ref[j].actualSec = exp.actualTrainSec(pairs[j].config);
        }
    }
    double ref_sec = now() - t0;

    // ------------------------------------------------------------------
    // Part 1: cold round (with in-flight duplicates) + warm round.
    // ------------------------------------------------------------------
    std::filesystem::path store_dir = tempStoreDir("load");
    service::ServiceConfig scfg;
    scfg.workers = workers;
    scfg.queueCapacity = 64;
    scfg.storeDir = store_dir.string();
    service::QueryService svc(scfg);
    for (std::size_t i = 0; i < pairs.size(); i += 2)
        svc.registerWorkload(pairs[i].workload, pairs[i].make);
    svc.start();

    // Cold mix: every pair three times, interleaved so the duplicates
    // are in flight together and must dedup onto one build each.
    const unsigned cold_dups = 3;
    std::vector<service::QueryRequest> cold_mix;
    for (unsigned d = 0; d < cold_dups; ++d) {
        for (const Pair &p : pairs) {
            service::QueryRequest req;
            req.workload = p.workload;
            req.config = p.config;
            cold_mix.push_back(req);
        }
    }
    double cold_wall = 0.0;
    auto cold_results = runClients(svc, cold_mix, clients, &cold_wall);

    uint64_t builds_after_cold = svc.registry().stats().builds;

    // Warm mix: >= 24 queries over the same pairs, all answered from
    // resident state.
    const unsigned warm_rounds = 4;
    std::vector<service::QueryRequest> warm_mix;
    for (unsigned d = 0; d < warm_rounds; ++d) {
        for (const Pair &p : pairs) {
            service::QueryRequest req;
            req.workload = p.workload;
            req.config = p.config;
            warm_mix.push_back(req);
        }
    }
    double warm_wall = 0.0;
    auto warm_results = runClients(svc, warm_mix, clients, &warm_wall);

    service::ServiceStats load_stats = svc.stats();
    svc.drain();

    bool load_all_ok = true, load_identical = true;
    std::vector<double> cold_lat, warm_lat;
    auto check = [&](const std::vector<service::QueryResult> &results,
                     const std::vector<service::QueryRequest> &mix) {
        for (std::size_t i = 0; i < results.size(); ++i) {
            const service::QueryResult &r = results[i];
            load_all_ok = load_all_ok && r.status.ok();
            const RefAnswer &want = ref[i % pairs.size()];
            (void)mix;
            if (r.status.ok() && !answersMatch(r.answer, want))
                load_identical = false;
        }
    };
    check(cold_results, cold_mix);
    check(warm_results, warm_mix);
    for (const service::QueryResult &r : cold_results) {
        if (r.coldBuild)
            cold_lat.push_back(r.latencySec);
    }
    for (const service::QueryResult &r : warm_results)
        warm_lat.push_back(r.latencySec);

    bool dedup_single_build = builds_after_cold == pairs.size() &&
        load_stats.coldBuilds == pairs.size() &&
        cold_lat.size() == pairs.size();

    double cold_p50 = percentile(cold_lat, 50.0);
    double cold_p99 = percentile(cold_lat, 99.0);
    double warm_p50 = percentile(warm_lat, 50.0);
    double warm_p99 = percentile(warm_lat, 99.0);
    double warm_speedup_p50 = cold_p50 / std::max(warm_p50, 1e-12);
    const double warm_floor = 2.0;
    double total_queries =
        static_cast<double>(cold_mix.size() + warm_mix.size());
    double qps = total_queries / std::max(cold_wall + warm_wall, 1e-12);
    double warm_qps = static_cast<double>(warm_mix.size()) /
        std::max(warm_wall, 1e-12);

    Table lat({"round", "queries", "wall", "p50", "p99"});
    lat.addRow({csprintf("cold (%zu builds)", cold_lat.size()),
                csprintf("%zu", cold_mix.size()),
                csprintf("%.3fs", cold_wall),
                csprintf("%.1fms", 1e3 * cold_p50),
                csprintf("%.1fms", 1e3 * cold_p99)});
    lat.addRow({"warm", csprintf("%zu", warm_mix.size()),
                csprintf("%.3fs", warm_wall),
                csprintf("%.3fms", 1e3 * warm_p50),
                csprintf("%.3fms", 1e3 * warm_p99)});
    std::printf("%s\n", lat.render(csprintf(
        "Query service: %u clients x %u workers over %zu pairs "
        "(%.1f qps overall, %.0f qps warm; serial reference %.3fs)",
        clients, workers, pairs.size(), qps, warm_qps,
        ref_sec)).c_str());
    std::printf("all queries answered OK: %s\n",
                load_all_ok ? "yes" : "NO -- BUG");
    std::printf("answers bit-identical to serial Experiment pass: %s\n",
                load_identical ? "yes" : "NO -- BUG");
    std::printf("in-flight duplicates deduped to one build per pair: "
                "%s\n",
                dedup_single_build ? "yes" : "NO -- BUG");
    std::printf("warm p50 vs cold p50: %.0fx (floor %.1fx)\n\n",
                warm_speedup_p50, warm_floor);

    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);

    // ------------------------------------------------------------------
    // Part 2: admission control -- overload shed + expired deadline.
    // ------------------------------------------------------------------
    std::filesystem::path shed_dir = tempStoreDir("shed");
    service::ServiceConfig shed_cfg;
    shed_cfg.workers = 1;
    shed_cfg.queueCapacity = 1;
    shed_cfg.storeDir = shed_dir.string();
    service::QueryService shed_svc(shed_cfg);
    shed_svc.registerWorkload("GNMT",
                              [] { return harness::makeGnmtWorkload(); });
    shed_svc.start();

    // A burst into the 1-slot queue while the single worker is inside
    // the first request's cold build: the overflow must shed
    // immediately, classified Overloaded.
    const unsigned burst = 32;
    std::vector<service::PendingPtr> handles;
    for (unsigned i = 0; i < burst; ++i) {
        service::QueryRequest req;
        req.workload = "GNMT";
        req.config = sim::GpuConfig::config1();
        handles.push_back(shed_svc.submit(req));
    }
    unsigned shed_count = 0, shed_classified = 0, burst_ok = 0;
    for (const service::PendingPtr &h : handles) {
        service::QueryResult r = h->wait();
        if (r.status.ok()) {
            ++burst_ok;
        } else if (r.status.code() == ErrorCode::Overloaded) {
            ++shed_count;
            shed_classified += !r.status.message().empty();
        }
    }
    bool shed_all_classified = shed_count == shed_classified &&
        burst_ok + shed_count == burst && shed_count > 0;

    // An already-expired deadline: shed at dequeue as a classified
    // Timeout, before any expensive work.
    service::QueryRequest late;
    late.workload = "GNMT";
    late.config = sim::GpuConfig::config1();
    late.deadlineSec = 1e-9;
    service::QueryResult late_r = shed_svc.query(late);
    bool deadline_timeout = !late_r.status.ok() &&
        late_r.status.code() == ErrorCode::Timeout;

    shed_svc.drain();
    std::filesystem::remove_all(shed_dir, ec);

    std::printf("overload burst: %u submitted, %u served, %u shed "
                "(all classified Overloaded: %s)\n",
                burst, burst_ok, shed_count,
                shed_all_classified ? "yes" : "NO -- BUG");
    std::printf("expired deadline classified Timeout: %s\n\n",
                deadline_timeout ? "yes" : "NO -- BUG");

    // ------------------------------------------------------------------
    // Part 3: the PR 6 fault storm under concurrent load.
    // ------------------------------------------------------------------
    std::vector<Pair> chaos_pairs(pairs.begin(), pairs.begin() + 4);

    // Prime a store so the storm has files to corrupt, then flip one
    // byte in every other file (sorted: deterministic choice).
    std::filesystem::path chaos_dir = tempStoreDir("chaos");
    {
        harness::SnapshotRegistry prime(chaos_dir.string());
        for (const Pair &p : chaos_pairs)
            (void)prime.acquire(p.make, p.config, 1);
    }
    std::vector<std::string> chaos_files;
    for (const auto &entry :
         std::filesystem::directory_iterator(chaos_dir, ec)) {
        if (entry.path().extension() == ".bin")
            chaos_files.push_back(entry.path().string());
    }
    std::sort(chaos_files.begin(), chaos_files.end());
    std::size_t chaos_corrupted = 0;
    for (std::size_t i = 0; i < chaos_files.size(); i += 2)
        chaos_corrupted += corruptStoreFile(chaos_files[i]);

    auto &inj = FaultInjector::instance();
    inj.reset();
    inj.armSeeded("snapshot_io.read", "", 0xc4a05, 0.5, 2);
    inj.armSeeded("registry.load", "", 0x10adf, 0.5, 2);
    inj.armAt("registry.save", "", {1});
    inj.armSeeded("snapshot_io.write", "", 0x717e5, 0.5, 1);

    service::ServiceConfig chaos_cfg;
    chaos_cfg.workers = workers;
    chaos_cfg.queueCapacity = 64;
    chaos_cfg.storeDir = chaos_dir.string();
    service::QueryService chaos_svc(chaos_cfg);
    chaos_svc.registerWorkload("GNMT",
                               [] { return harness::makeGnmtWorkload(); });
    chaos_svc.registerWorkload("DS2",
                               [] { return harness::makeDs2Workload(); });
    chaos_svc.start();

    const unsigned chaos_rounds = 6; // 6 x 4 pairs = 24 queries
    std::vector<service::QueryRequest> chaos_mix;
    for (unsigned d = 0; d < chaos_rounds; ++d) {
        for (const Pair &p : chaos_pairs) {
            service::QueryRequest req;
            req.workload = p.workload;
            req.config = p.config;
            chaos_mix.push_back(req);
        }
    }
    setQuietLogging(true); // the storm's warnings are expected noise
    double chaos_wall = 0.0;
    auto chaos_results =
        runClients(chaos_svc, chaos_mix, clients, &chaos_wall);
    setQuietLogging(false);

    std::size_t chaos_answered = 0, chaos_identical = 0,
        chaos_shed_classified = 0, chaos_unclassified = 0;
    for (std::size_t i = 0; i < chaos_results.size(); ++i) {
        const service::QueryResult &r = chaos_results[i];
        if (r.status.ok()) {
            ++chaos_answered;
            chaos_identical +=
                answersMatch(r.answer,
                             ref[i % chaos_pairs.size()]);
        } else if ((r.status.code() == ErrorCode::Overloaded ||
                    r.status.code() == ErrorCode::Timeout ||
                    r.status.code() == ErrorCode::Cancelled) &&
                   !r.status.message().empty()) {
            ++chaos_shed_classified;
        } else {
            ++chaos_unclassified;
        }
    }
    uint64_t chaos_quarantines = chaos_svc.registry().stats().quarantines;
    uint64_t read_fired = inj.fired("snapshot_io.read");
    uint64_t load_fired = inj.fired("registry.load");
    uint64_t save_fired = inj.fired("registry.save");
    uint64_t write_fired = inj.fired("snapshot_io.write");

    setQuietLogging(true); // drain's flush warning is expected too
    chaos_svc.drain();
    setQuietLogging(false);
    service::ServiceStats chaos_stats = chaos_svc.stats();
    inj.reset();
    std::filesystem::remove_all(chaos_dir, ec);

    bool chaos_completed =
        chaos_answered + chaos_shed_classified + chaos_unclassified ==
        chaos_mix.size();
    bool chaos_clean = chaos_unclassified == 0 &&
        chaos_identical == chaos_answered &&
        chaos_stats.stuckReports == 0;

    std::printf("chaos storm: %zu queries under %llu read / %llu load "
                "/ %llu save / %llu write fault(s), %zu corrupted "
                "file(s), %llu quarantine(s); %.3fs\n",
                chaos_mix.size(),
                static_cast<unsigned long long>(read_fired),
                static_cast<unsigned long long>(load_fired),
                static_cast<unsigned long long>(save_fired),
                static_cast<unsigned long long>(write_fired),
                chaos_corrupted,
                static_cast<unsigned long long>(chaos_quarantines),
                chaos_wall);
    std::printf("every chaos query answered bit-identically or shed "
                "classified: %s (%zu identical, %zu shed, "
                "%zu unclassified)\n",
                chaos_completed && chaos_clean ? "yes" : "NO -- BUG",
                chaos_identical, chaos_shed_classified,
                chaos_unclassified);
    std::printf("no stuck workers reported: %s\n\n",
                chaos_stats.stuckReports == 0 ? "yes" : "NO -- BUG");

    // Load contract: every query answered, bit-identical to the
    // serial pass, one build per pair despite in-flight duplicates,
    // and warm answers at least 2x faster than cold at the median.
    if (!load_all_ok || !load_identical || !dedup_single_build ||
        warm_speedup_p50 < warm_floor) {
        std::fprintf(stderr, "FAIL: service load: ok=%d identical=%d "
                     "dedup=%d warm_speedup_p50=%.2fx (need >= %.1fx)\n",
                     load_all_ok, load_identical, dedup_single_build,
                     warm_speedup_p50, warm_floor);
        return 1;
    }

    // Admission contract: the burst sheds (classified Overloaded,
    // nothing lost or unclassified) and an expired deadline comes
    // back as a classified Timeout.
    if (!shed_all_classified || !deadline_timeout) {
        std::fprintf(stderr, "FAIL: admission control: burst=%u "
                     "served=%u shed=%u classified=%d "
                     "deadline_timeout=%d\n", burst, burst_ok,
                     shed_count, shed_all_classified, deadline_timeout);
        return 1;
    }

    // Chaos contract: under the fault storm every request is either
    // answered bit-identically to the clean pass or shed with a
    // classified Status -- no unclassified failure, no stuck worker,
    // and the service drained cleanly (reaching here proves no crash
    // or hang).
    if (!chaos_completed || !chaos_clean) {
        std::fprintf(stderr, "FAIL: chaos: answered=%zu identical=%zu "
                     "shed=%zu unclassified=%zu stuck=%llu\n",
                     chaos_answered, chaos_identical,
                     chaos_shed_classified, chaos_unclassified,
                     static_cast<unsigned long long>(
                         chaos_stats.stuckReports));
        return 1;
    }
    return 0;
}
