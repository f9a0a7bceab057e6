/**
 * @file
 * Epoch-replay engine bench.
 *
 * Part 1 measures epochLog-equivalent work (a multi-epoch GNMT
 * profile sweep) across engine generations:
 *
 *   - "serial uncached": the PR 1 baseline -- no per-SL memo, no
 *     kernel-timing cache, every iteration re-simulated in full;
 *   - "PR 1 memoized": per-SL memoization with a fresh profiler per
 *     epoch and a per-iteration memo probe (the PR 1 engine);
 *   - "unique-SL replay": the epoch-replay engine -- a persistent
 *     profiler whose memo carries across epochs, each unique SL
 *     profiled once (records-free execution) and the SL schedule
 *     replayed as flat-table lookups;
 *   - "replay + parallel": the same with the parallel per-SL sweep.
 *
 * Iteration logs, times and counters must be bit-identical across
 * all engines; the replay engine must beat the baseline by >= 5x.
 *
 * Part 2 drives the parallel experiment scheduler over a
 * 3-workload x 4-config sweep and checks the parallel merge is
 * byte-identical to the serial sweep.
 *
 * Part 3 measures the scheduler-backed figure pipeline: producing
 * the DS2 figure pair (the Fig 11 time-error grid and the Fig 15
 * speedup-error grid) serially -- one cold Experiment per figure,
 * exactly as the serial fig benches pay for it -- versus one
 * snapshot-shared scheduler pass that yields both grids. The
 * scheduled sweep must be byte-identical to the serial one and, on
 * multi-core hosts, >= 2x faster.
 *
 * Part 4 measures the persistent snapshot registry on the fig11 +
 * fig13 + fig15 bench trio: each bench standalone (its own cold
 * start, as separate binaries pay it) versus the same trio replayed
 * from a primed on-disk snapshot store -- the cross-bench/cross-run
 * reuse CI gets from caching the store. Warmed results must be
 * byte-identical to cold ones, replay without a single build, and
 * clear a 1.5x speedup floor (~2x measured on the CI container).
 *
 * Part 5 measures fault containment: a registry-backed 2x2 epoch
 * sweep runs under a deterministic fault storm -- store files
 * corrupted on disk, a snapshot read failing, a persist dropped, and
 * two of the four cells throwing on their first attempt -- with a
 * per-cell retry budget. The sweep must complete, no cell may end
 * failed, the faulted cells must recompute cold and converge, and
 * every result must be bit-identical to a clean serial sweep.
 *
 * Results are written to a JSON report (default BENCH_epoch.json,
 * argv[1] overrides); the process fails if any gate is missed.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "harness/scheduler.hh"
#include "support.hh"

using namespace seqpoint;

namespace {

double
now()
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now().time_since_epoch()).count();
}

/** One engine mode of the multi-epoch sweep. */
struct SweepResult {
    double wallSec = 0.0;             ///< Measured wall time.
    std::vector<prof::TrainLog> logs; ///< One log per epoch.
};

/** Engine selector for runSweep(). */
enum class Engine {
    SerialUncached, ///< PR 1 baseline: re-simulate everything.
    Pr1Memoized,    ///< PR 1 engine: fresh profiler, memo probes.
    Replay,         ///< Persistent profiler + unique-SL replay.
    ReplayParallel, ///< Replay + parallel per-SL sweep.
};

SweepResult
runSweep(const harness::Workload &wl, unsigned epochs, Engine engine,
         unsigned threads)
{
    bool memoize = engine != Engine::SerialUncached;
    sim::Gpu gpu(sim::GpuConfig::config1(), /*timing_cache=*/memoize);

    prof::TrainConfig tc;
    tc.batchSize = wl.batchSize;
    tc.policy = wl.policy;
    tc.evalCostMultiplier = wl.evalCostMultiplier;
    tc.memoizeProfiles = memoize;
    tc.uniqueSlReplay = engine == Engine::Replay ||
        engine == Engine::ReplayParallel;
    tc.profileThreads = engine == Engine::ReplayParallel ? threads : 1;

    bool persistent = engine == Engine::Replay ||
        engine == Engine::ReplayParallel;
    nn::Autotuner tuner(tc.tunerMode, &gpu);
    prof::Profiler profiler(gpu, wl.model, tuner, wl.batchSize,
                            memoize);

    SweepResult res;
    double start = now();
    for (unsigned e = 0; e < epochs; ++e) {
        tc.seed = wl.seed + e;
        res.logs.push_back(persistent
            ? prof::runTrainingEpoch(profiler, wl.dataset, tc)
            : prof::runTrainingEpoch(gpu, wl.model, wl.dataset, tc));
    }
    res.wallSec = now() - start;
    return res;
}

/**
 * Bit-exact comparison of iteration logs, times and counters
 * (TrainLog::identicalTo; autotuneSec is excluded -- the persistent
 * engines legitimately pay the one-time tuning cost once instead of
 * once per epoch).
 */
bool
sweepsIdentical(const SweepResult &a, const SweepResult &b)
{
    if (a.logs.size() != b.logs.size())
        return false;
    for (size_t e = 0; e < a.logs.size(); ++e) {
        if (!a.logs[e].identicalTo(b.logs[e]))
            return false;
    }
    return true;
}

size_t
uniqueSls(const SweepResult &r)
{
    std::set<int64_t> sls;
    for (const prof::TrainLog &log : r.logs)
        for (const prof::IterationLog &it : log.iterations)
            sls.insert(it.seqLen);
    return sls.size();
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

/** Minimal JSON string escaping (quotes and backslashes). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

bool
cellsIdentical(const std::vector<harness::EpochCellResult> &a,
               const std::vector<harness::EpochCellResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].workload != b[i].workload ||
            a[i].config != b[i].config ||
            a[i].iterations != b[i].iterations ||
            a[i].trainSec != b[i].trainSec ||
            a[i].evalSec != b[i].evalSec ||
            a[i].throughput != b[i].throughput ||
            !(a[i].counters == b[i].counters))
            return false;
    }
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const char *json_path = argc > 1 ? argv[1] : "BENCH_epoch.json";
    const unsigned epochs = 6;
    const unsigned threads = std::max(2u,
        std::thread::hardware_concurrency());
    harness::Workload wl = harness::makeGnmtWorkload();

    // ------------------------------------------------------------------
    // Part 1: epochLog engine generations.
    // ------------------------------------------------------------------
    SweepResult baseline = runSweep(wl, epochs, Engine::SerialUncached,
                                    1);
    SweepResult pr1 = runSweep(wl, epochs, Engine::Pr1Memoized, 1);
    SweepResult replay = runSweep(wl, epochs, Engine::Replay, 1);
    SweepResult replay_par = runSweep(wl, epochs,
                                      Engine::ReplayParallel, threads);

    bool identical = sweepsIdentical(baseline, pr1) &&
        sweepsIdentical(baseline, replay) &&
        sweepsIdentical(baseline, replay_par);

    size_t total_iters = 0;
    for (const prof::TrainLog &log : baseline.logs)
        total_iters += log.numIterations();

    double sp_pr1 = baseline.wallSec / pr1.wallSec;
    double sp_replay = baseline.wallSec / replay.wallSec;
    double sp_replay_par = baseline.wallSec / replay_par.wallSec;

    Table engine({"engine", "wall time", "speedup vs PR 1 baseline"});
    engine.addRow({"serial uncached (PR 1 baseline)",
                   csprintf("%.3fs", baseline.wallSec), "1.0x"});
    engine.addRow({"PR 1 memoized",
                   csprintf("%.3fs", pr1.wallSec),
                   csprintf("%.1fx", sp_pr1)});
    engine.addRow({"unique-SL replay",
                   csprintf("%.3fs", replay.wallSec),
                   csprintf("%.1fx", sp_replay)});
    engine.addRow({"replay + parallel sweep",
                   csprintf("%.3fs", replay_par.wallSec),
                   csprintf("%.1fx", sp_replay_par)});
    std::printf("%s\n", engine.render(csprintf(
        "Epoch-replay engine: GNMT x%u epochs (%zu iterations, %zu "
        "unique SLs), %u sweep threads", epochs, total_iters,
        uniqueSls(baseline), threads)).c_str());

    std::printf("epoch logs bit-identical across engines: %s\n\n",
                identical ? "yes" : "NO -- BUG");

    // ------------------------------------------------------------------
    // Part 2: parallel experiment scheduler, 3 workloads x 4 configs.
    // ------------------------------------------------------------------
    std::vector<harness::WorkloadFactory> workloads = {
        [] { return harness::makeGnmtWorkload(); },
        [] { return harness::makeDs2Workload(); },
        [] { return harness::makeTransformerWorkload(); },
    };
    std::vector<sim::GpuConfig> configs = {
        sim::GpuConfig::config1(), sim::GpuConfig::config2(),
        sim::GpuConfig::config3(), sim::GpuConfig::config4(),
    };

    std::vector<harness::CellTiming> serial_times, parallel_times;
    double t0 = now();
    auto serial_cells =
        harness::ExperimentScheduler(1).epochSweep(workloads, configs,
                                                   {}, &serial_times);
    double serial_sec = now() - t0;

    t0 = now();
    auto parallel_cells =
        harness::ExperimentScheduler(threads).epochSweep(
            workloads, configs, {}, &parallel_times);
    double parallel_sec = now() - t0;

    bool sweep_identical = cellsIdentical(serial_cells, parallel_cells);
    double sp_sched = serial_sec / parallel_sec;

    Table sched({"scheduler", "wall time", "speedup"});
    sched.addRow({"serial", csprintf("%.3fs", serial_sec), "1.0x"});
    sched.addRow({csprintf("parallel (%u threads)", threads),
                  csprintf("%.3fs", parallel_sec),
                  csprintf("%.1fx", sp_sched)});
    std::printf("%s\n", sched.render(csprintf(
        "Experiment scheduler: %zu workloads x %zu configs",
        workloads.size(), configs.size())).c_str());
    std::printf("parallel sweep byte-identical to serial: %s\n\n",
                sweep_identical ? "yes" : "NO -- BUG");

    // Per-cell wall-time breakdown: where the scheduler's time goes
    // (serial vs parallel, and setup vs eval inside a parallel
    // cell). Exported to the JSON so regressions in the parallel
    // speedup can be localised from the CI artifact alone.
    Table cell_table({"cell", "serial", "parallel", "par setup",
                      "par eval", "slowdown"});
    for (size_t i = 0; i < parallel_cells.size(); ++i) {
        cell_table.addRow({
            csprintf("%s/%s", parallel_cells[i].workload.c_str(),
                     parallel_cells[i].config.c_str()),
            csprintf("%.3fs", serial_times[i].totalSec),
            csprintf("%.3fs", parallel_times[i].totalSec),
            csprintf("%.3fs", parallel_times[i].setupSec),
            csprintf("%.3fs", parallel_times[i].evalSec()),
            csprintf("%.2fx", parallel_times[i].totalSec /
                                  std::max(serial_times[i].totalSec,
                                           1e-9))});
    }
    std::printf("%s\n", cell_table.render(
        "Scheduler cells: per-cell wall-time breakdown").c_str());

    // ------------------------------------------------------------------
    // Part 3: scheduler-backed figure pipeline (DS2 figs 11 + 15).
    // ------------------------------------------------------------------
    auto make_ds2 = [] { return harness::makeDs2Workload(); };

    // Serial baseline: each figure bench pays its own full cold start
    // (one fresh Experiment per binary), so producing the DS2 figure
    // pair costs two complete 5-config sweeps.
    t0 = now();
    harness::FigureSweep fig_time = harness::runFigureSweepSerial(
        make_ds2);
    harness::FigureSweep fig_speedup = harness::runFigureSweepSerial(
        make_ds2);
    double fig_serial_sec = now() - t0;

    // Scheduler pipeline: one snapshot-shared pass yields both grids.
    t0 = now();
    harness::FigureSweep fig_sched = harness::runFigureSweepScheduled(
        make_ds2, threads);
    double fig_sched_sec = now() - t0;

    bool fig_identical = fig_sched.identicalTo(fig_time) &&
        fig_sched.identicalTo(fig_speedup);
    double sp_fig = fig_serial_sec / fig_sched_sec;

    // Speedup floor: >= 2x on multi-core hosts; the snapshot saves
    // one of the pair's two cold starts even with a single core, but
    // the remaining margin there is scheduling, so single-core
    // runners gate at the work-sharing floor (1.5x) instead. The
    // floor is exported in the JSON so the CI guard applies the same
    // contract.
    double fig_floor =
        std::thread::hardware_concurrency() > 1 ? 2.0 : 1.5;

    Table fig({"figure pipeline (DS2 figs 11+15)", "wall time",
               "speedup"});
    fig.addRow({"serial (one Experiment per figure)",
                csprintf("%.3fs", fig_serial_sec), "1.0x"});
    fig.addRow({csprintf("scheduler + snapshot (%u threads)", threads),
                csprintf("%.3fs", fig_sched_sec),
                csprintf("%.1fx", sp_fig)});
    std::printf("%s\n", fig.render(
        "Figure pipeline: serial pair vs snapshot-shared scheduler "
        "pass").c_str());
    std::printf("figure sweep byte-identical to serial pipeline: %s\n\n",
                fig_identical ? "yes" : "NO -- BUG");

    // ------------------------------------------------------------------
    // Part 4: persistent snapshot registry (figs 11 + 13 + 15 trio).
    // ------------------------------------------------------------------
    auto make_gnmt = [] { return harness::makeGnmtWorkload(); };
    const int64_t sens_lo = 10, sens_hi = 210, sens_step = 10;

    // Cold baseline: each bench binary pays its own cold start (two
    // DS2 figure sweeps for fig11/fig15, the GNMT sensitivity series
    // for fig13), nothing shared between them.
    t0 = now();
    harness::FigureSweep f11_cold =
        harness::runFigureSweepScheduled(make_ds2, threads);
    harness::SensitivitySweep f13_cold =
        harness::runSensitivitySweepScheduled(make_gnmt, sens_lo,
                                              sens_hi, sens_step,
                                              threads);
    harness::FigureSweep f15_cold =
        harness::runFigureSweepScheduled(make_ds2, threads);
    double reg_cold_sec = now() - t0;

    // Prime the store: one DS2 figure sweep persists DS2 on all five
    // configurations; the GNMT per-config snapshots stand in for the
    // fig12/fig16 sweeps that share the store in a full bench run
    // (fig13's sensitivity cells are lookup-only and never build).
    // Per-process store path: concurrent bench invocations on one
    // host (parallel CI jobs, two developers) must not clobber each
    // other's files mid-measurement.
    std::error_code store_ec;
    std::filesystem::path store_dir =
        std::filesystem::temp_directory_path(store_ec) /
        csprintf("seqpoint_bench_snapshot_store.%ld",
                 static_cast<long>(::getpid()));
    if (store_ec)
        store_dir = csprintf("bench_snapshot_store.%ld",
                             static_cast<long>(::getpid()));
    std::filesystem::remove_all(store_dir, store_ec);
    double prime_sec;
    {
        harness::SnapshotRegistry prime(store_dir.string());
        t0 = now();
        (void)harness::runFigureSweepScheduled(make_ds2, threads,
                                               &prime);
        for (const auto &cfg : sim::GpuConfig::table2())
            (void)prime.acquire(make_gnmt, cfg, threads);
        prime_sec = now() - t0;
    }

    // Warmed trio: fresh registries on the primed store (a new
    // process per bench, as CI runs them); every cell replays from
    // disk, byte-identical to the cold runs.
    t0 = now();
    harness::SnapshotRegistry warm11(store_dir.string());
    harness::FigureSweep f11_warm =
        harness::runFigureSweepScheduled(make_ds2, threads, &warm11);
    harness::SnapshotRegistry warm13(store_dir.string());
    harness::SensitivitySweep f13_warm =
        harness::runSensitivitySweepScheduled(make_gnmt, sens_lo,
                                              sens_hi, sens_step,
                                              threads, &warm13);
    harness::SnapshotRegistry warm15(store_dir.string());
    harness::FigureSweep f15_warm =
        harness::runFigureSweepScheduled(make_ds2, threads, &warm15);
    double reg_warm_sec = now() - t0;

    bool reg_identical = f11_warm.identicalTo(f11_cold) &&
        f13_warm.identicalTo(f13_cold) &&
        f15_warm.identicalTo(f15_cold);
    bool reg_no_builds = warm11.stats().builds == 0 &&
        warm13.stats().builds == 0 && warm15.stats().builds == 0;
    double sp_reg = reg_cold_sec / reg_warm_sec;
    // Floor: warmed runs replace every simulation with store loads
    // and measure ~2x on the CI container, but the cold side is
    // already the memoized scheduled pipeline, so the margin is
    // load-bound; gate at 1.5x to keep the guard robust on noisy
    // shared runners (exported so CI applies the same contract).
    double reg_floor = 1.5;

    // Count only real snapshot files (.bin), skipping anything that
    // fails to stat and any leftover .tmp from an interrupted writer;
    // file_size(ec) returns uintmax_t(-1) on error, which would
    // otherwise poison store_bytes.
    size_t store_files = 0;
    uintmax_t store_bytes = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(store_dir, store_ec)) {
        if (entry.path().extension() != ".bin")
            continue;
        std::error_code size_ec;
        uintmax_t bytes = entry.file_size(size_ec);
        if (size_ec)
            continue;
        ++store_files;
        store_bytes += bytes;
    }

    Table reg_table({"fig11+13+15 trio", "wall time", "speedup"});
    reg_table.addRow({"cold (one cold start per bench)",
                      csprintf("%.3fs", reg_cold_sec), "1.0x"});
    reg_table.addRow({"store primed (fig11 + GNMT snapshots)",
                      csprintf("%.3fs", prime_sec), "--"});
    reg_table.addRow({csprintf("registry-warmed (%u threads)", threads),
                      csprintf("%.3fs", reg_warm_sec),
                      csprintf("%.1fx", sp_reg)});
    std::printf("%s\n", reg_table.render(csprintf(
        "Snapshot registry: cold benches vs a primed on-disk store "
        "(%zu file(s), %.1f KiB)", store_files,
        static_cast<double>(store_bytes) / 1024.0)).c_str());
    std::printf("registry-warmed results byte-identical to cold: %s\n",
                reg_identical ? "yes" : "NO -- BUG");
    std::printf("warmed pass built nothing (all store hits): %s\n\n",
                reg_no_builds ? "yes" : "NO -- BUG");

    std::filesystem::remove_all(store_dir, store_ec);

    // ------------------------------------------------------------------
    // Part 5: fault containment under a deterministic fault storm.
    // ------------------------------------------------------------------
    // A 2x2 registry-backed sweep (GNMT + DS2 on configs #1/#2) runs
    // with half its store files corrupted on disk, one snapshot read
    // failing, one persist dropped, and cells (0,1) and (1,0) each
    // throwing on their first attempt. A budget of two retries per
    // cell plus the registry's quarantine-and-rebuild degradation
    // must absorb all of it: the sweep completes with no failed
    // cells, and every result is bit-identical to a clean serial run.
    std::vector<harness::WorkloadFactory> fc_workloads = {
        [] { return harness::makeGnmtWorkload(); },
        [] { return harness::makeDs2Workload(); },
    };
    std::vector<sim::GpuConfig> fc_configs = {
        sim::GpuConfig::config1(), sim::GpuConfig::config2(),
    };

    auto fc_clean = harness::ExperimentScheduler(1).epochSweep(
        fc_workloads, fc_configs);

    // Warm a dedicated store so the storm has files to lose.
    std::filesystem::path fc_store =
        std::filesystem::temp_directory_path(store_ec) /
        csprintf("seqpoint_bench_fault_store.%ld",
                 static_cast<long>(::getpid()));
    if (store_ec)
        fc_store = csprintf("bench_fault_store.%ld",
                            static_cast<long>(::getpid()));
    std::filesystem::remove_all(fc_store, store_ec);
    {
        harness::SnapshotRegistry fc_warm(fc_store.string());
        (void)harness::ExperimentScheduler(threads).epochSweep(
            fc_workloads, fc_configs, fc_warm);
    }

    // Corrupt every other store file (sorted: deterministic choice).
    std::vector<std::string> fc_files;
    for (const auto &entry :
         std::filesystem::directory_iterator(fc_store, store_ec)) {
        if (entry.path().extension() == ".bin")
            fc_files.push_back(entry.path().string());
    }
    std::sort(fc_files.begin(), fc_files.end());
    size_t fc_corrupted = 0;
    for (size_t i = 0; i < fc_files.size(); i += 2)
        fc_corrupted += corruptStoreFile(fc_files[i]);

    auto &fc_inj = FaultInjector::instance();
    fc_inj.reset();
    fc_inj.armAt("scheduler.cell", "0/1", {1}, ErrorCode::Timeout);
    fc_inj.armAt("scheduler.cell", "1/0", {1}, ErrorCode::IoError);
    fc_inj.armAt("snapshot_io.read", "", {1});
    fc_inj.armAt("registry.save", "", {1});

    harness::SnapshotRegistry fc_reg(fc_store.string());
    harness::ExperimentScheduler fc_sched(threads);
    fc_sched.setCellRetries(2);
    fc_sched.setRetryBackoff(0.0);
    std::vector<harness::CellTiming> fc_timings;
    setQuietLogging(true); // the storm's warnings are expected noise
    t0 = now();
    auto fc_storm = fc_sched.epochSweep(fc_workloads, fc_configs,
                                        fc_reg, &fc_timings);
    double fc_sec = now() - t0;
    setQuietLogging(false);

    bool fc_completed =
        fc_storm.size() == fc_workloads.size() * fc_configs.size();
    size_t fc_failed = 0, fc_retried = 0;
    for (const harness::CellTiming &t : fc_timings) {
        fc_failed += t.outcome.failed;
        fc_retried += t.outcome.attempts > 1;
    }
    bool fc_identical = cellsIdentical(fc_storm, fc_clean);
    uint64_t fc_quarantines = fc_reg.stats().quarantines;
    uint64_t fc_cell_fired = fc_inj.fired("scheduler.cell");
    uint64_t fc_read_fired = fc_inj.fired("snapshot_io.read");
    uint64_t fc_save_fired = fc_inj.fired("registry.save");
    fc_inj.reset();

    Table fc_table({"cell", "attempts", "outcome"});
    for (size_t i = 0; i < fc_storm.size(); ++i) {
        fc_table.addRow({
            csprintf("%s/%s", fc_storm[i].workload.c_str(),
                     fc_storm[i].config.c_str()),
            csprintf("%u", fc_timings[i].outcome.attempts),
            fc_timings[i].outcome.failed
                ? csprintf("FAILED: %s",
                           fc_timings[i].outcome.error.c_str())
                : std::string("ok")});
    }
    std::printf("%s\n", fc_table.render(csprintf(
        "Fault containment: 2x2 sweep under a fault storm "
        "(%zu store file(s) corrupted, %llu cell fault(s), "
        "%llu read fault(s), %llu dropped persist(s); %.3fs)",
        fc_corrupted,
        static_cast<unsigned long long>(fc_cell_fired),
        static_cast<unsigned long long>(fc_read_fired),
        static_cast<unsigned long long>(fc_save_fired),
        fc_sec)).c_str());
    std::printf("faulted sweep completed with no failed cells: %s\n",
                fc_completed && fc_failed == 0 ? "yes" : "NO -- BUG");
    std::printf("faulted sweep bit-identical to clean serial run: %s\n",
                fc_identical ? "yes" : "NO -- BUG");
    std::printf("corrupted store files quarantined and rebuilt: %s\n\n",
                fc_quarantines >= fc_corrupted ? "yes" : "NO -- BUG");

    std::filesystem::remove_all(fc_store, store_ec);

    // ------------------------------------------------------------------
    // JSON report.
    // ------------------------------------------------------------------
    FILE *f = std::fopen(json_path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path);
        return 1;
    }
    // The CI bench guard gates on the keys below; the markers keep
    // the guard and this export mirrored (seqpoint_lint rule 4).
    // BENCH_GATE: bit_identical speedup_replay speedup_replay_parallel
    // BENCH_GATE: identical hw_threads speedup speedup_floor
    // BENCH_GATE: warmed_without_builds
    // BENCH_GATE: completed failed_cells quarantines corrupted_files
    // BENCH_GATE: retried_cells
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"workload\": \"%s\",\n", wl.name.c_str());
    std::fprintf(f, "  \"epochs\": %u,\n", epochs);
    std::fprintf(f, "  \"iterations\": %zu,\n", total_iters);
    std::fprintf(f, "  \"unique_sls\": %zu,\n", uniqueSls(baseline));
    std::fprintf(f, "  \"sweep_threads\": %u,\n", threads);
    std::fprintf(f, "  \"baseline_sec\": %.6f,\n", baseline.wallSec);
    std::fprintf(f, "  \"pr1_memoized_sec\": %.6f,\n", pr1.wallSec);
    std::fprintf(f, "  \"replay_sec\": %.6f,\n", replay.wallSec);
    std::fprintf(f, "  \"replay_parallel_sec\": %.6f,\n",
                 replay_par.wallSec);
    std::fprintf(f, "  \"speedup_pr1_memoized\": %.2f,\n", sp_pr1);
    std::fprintf(f, "  \"speedup_replay\": %.2f,\n", sp_replay);
    std::fprintf(f, "  \"speedup_replay_parallel\": %.2f,\n",
                 sp_replay_par);
    std::fprintf(f, "  \"bit_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(f, "  \"scheduler\": {\n");
    std::fprintf(f, "    \"hw_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "    \"workloads\": %zu,\n", workloads.size());
    std::fprintf(f, "    \"configs\": %zu,\n", configs.size());
    std::fprintf(f, "    \"serial_sec\": %.6f,\n", serial_sec);
    std::fprintf(f, "    \"parallel_sec\": %.6f,\n", parallel_sec);
    std::fprintf(f, "    \"speedup\": %.2f,\n", sp_sched);
    std::fprintf(f, "    \"identical\": %s,\n",
                 sweep_identical ? "true" : "false");
    std::fprintf(f, "    \"cells\": [\n");
    for (size_t i = 0; i < parallel_cells.size(); ++i) {
        std::fprintf(f,
                     "      {\"workload\": \"%s\", \"config\": \"%s\", "
                     "\"serial_sec\": %.6f, \"parallel_sec\": %.6f, "
                     "\"parallel_setup_sec\": %.6f, "
                     "\"parallel_eval_sec\": %.6f, "
                     "\"outcome\": {\"failed\": %s, \"attempts\": %u, "
                     "\"error\": \"%s\"}}%s\n",
                     parallel_cells[i].workload.c_str(),
                     parallel_cells[i].config.c_str(),
                     serial_times[i].totalSec,
                     parallel_times[i].totalSec,
                     parallel_times[i].setupSec,
                     parallel_times[i].evalSec(),
                     parallel_times[i].outcome.failed ? "true"
                                                     : "false",
                     parallel_times[i].outcome.attempts,
                     jsonEscape(parallel_times[i].outcome.error).c_str(),
                     i + 1 < parallel_cells.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"fig_sweep\": {\n");
    std::fprintf(f, "    \"workload\": \"DS2\",\n");
    std::fprintf(f, "    \"figures\": \"fig11+fig15\",\n");
    std::fprintf(f, "    \"configs\": 5,\n");
    std::fprintf(f, "    \"threads\": %u,\n", threads);
    std::fprintf(f, "    \"serial_sec\": %.6f,\n", fig_serial_sec);
    std::fprintf(f, "    \"scheduled_sec\": %.6f,\n", fig_sched_sec);
    std::fprintf(f, "    \"speedup\": %.2f,\n", sp_fig);
    std::fprintf(f, "    \"speedup_floor\": %.2f,\n", fig_floor);
    std::fprintf(f, "    \"identical\": %s\n",
                 fig_identical ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"snapshot_registry\": {\n");
    std::fprintf(f, "    \"benches\": \"fig11+fig13+fig15\",\n");
    std::fprintf(f, "    \"format_version\": %u,\n",
                 harness::kSnapshotFormatVersion);
    std::fprintf(f, "    \"threads\": %u,\n", threads);
    std::fprintf(f, "    \"cold_sec\": %.6f,\n", reg_cold_sec);
    std::fprintf(f, "    \"prime_sec\": %.6f,\n", prime_sec);
    std::fprintf(f, "    \"warmed_sec\": %.6f,\n", reg_warm_sec);
    std::fprintf(f, "    \"speedup\": %.2f,\n", sp_reg);
    std::fprintf(f, "    \"speedup_floor\": %.2f,\n", reg_floor);
    std::fprintf(f, "    \"store_files\": %zu,\n", store_files);
    std::fprintf(f, "    \"store_bytes\": %llu,\n",
                 static_cast<unsigned long long>(store_bytes));
    std::fprintf(f, "    \"warmed_without_builds\": %s,\n",
                 reg_no_builds ? "true" : "false");
    std::fprintf(f, "    \"bit_identical\": %s\n",
                 reg_identical ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"fault_containment\": {\n");
    std::fprintf(f, "    \"grid\": \"GNMT+DS2 x config1+config2\",\n");
    std::fprintf(f, "    \"cell_retries\": 2,\n");
    std::fprintf(f, "    \"corrupted_files\": %zu,\n", fc_corrupted);
    std::fprintf(f, "    \"quarantines\": %llu,\n",
                 static_cast<unsigned long long>(fc_quarantines));
    std::fprintf(f, "    \"cell_faults_fired\": %llu,\n",
                 static_cast<unsigned long long>(fc_cell_fired));
    std::fprintf(f, "    \"read_faults_fired\": %llu,\n",
                 static_cast<unsigned long long>(fc_read_fired));
    std::fprintf(f, "    \"dropped_persists\": %llu,\n",
                 static_cast<unsigned long long>(fc_save_fired));
    std::fprintf(f, "    \"retried_cells\": %zu,\n", fc_retried);
    std::fprintf(f, "    \"failed_cells\": %zu,\n", fc_failed);
    std::fprintf(f, "    \"storm_sec\": %.6f,\n", fc_sec);
    std::fprintf(f, "    \"completed\": %s,\n",
                 fc_completed ? "true" : "false");
    std::fprintf(f, "    \"bit_identical\": %s,\n",
                 fc_identical ? "true" : "false");
    std::fprintf(f, "    \"cells\": [\n");
    for (size_t i = 0; i < fc_storm.size(); ++i) {
        std::fprintf(f,
                     "      {\"workload\": \"%s\", \"config\": \"%s\", "
                     "\"failed\": %s, \"attempts\": %u, "
                     "\"error\": \"%s\"}%s\n",
                     fc_storm[i].workload.c_str(),
                     fc_storm[i].config.c_str(),
                     fc_timings[i].outcome.failed ? "true" : "false",
                     fc_timings[i].outcome.attempts,
                     jsonEscape(fc_timings[i].outcome.error).c_str(),
                     i + 1 < fc_storm.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);

    // The engine contract: the unique-SL replay engine must beat the
    // PR 1 baseline by at least 5x with bit-identical logs, and the
    // parallel scheduler merge must match the serial sweep. Gate on
    // the better replay mode: on single-core or heavily shared
    // runners the sweep pool adds overhead it cannot recoup, which
    // says nothing about the engine.
    double best = std::max(sp_replay, sp_replay_par);
    if (!identical || !sweep_identical || best < 5.0) {
        std::fprintf(stderr, "FAIL: replay speedup %.2fx (need >= 5x), "
                     "identical=%d, scheduler identical=%d\n", best,
                     identical, sweep_identical);
        return 1;
    }

    // Figure-pipeline contract: byte-identity always; speedup at or
    // above the host's floor (computed above, exported in the JSON).
    if (!fig_identical || sp_fig < fig_floor) {
        std::fprintf(stderr, "FAIL: figure-pipeline speedup %.2fx "
                     "(need >= %.1fx), identical=%d\n", sp_fig,
                     fig_floor, fig_identical);
        return 1;
    }

    // Snapshot-registry contract: the warmed trio is byte-identical
    // to the cold one, replays entirely from the store (no builds),
    // and beats the cold trio by the floor (warmed runs skip every
    // epoch/autotune/timing simulation, so this holds on any core
    // count).
    if (!reg_identical || !reg_no_builds || sp_reg < reg_floor) {
        std::fprintf(stderr, "FAIL: snapshot-registry speedup %.2fx "
                     "(need >= %.1fx), identical=%d, no_builds=%d\n",
                     sp_reg, reg_floor, reg_identical, reg_no_builds);
        return 1;
    }

    // Fault-containment contract: the storm-ridden sweep completes
    // with every cell converged (no failures after retries), its
    // results bit-identical to the clean serial run, the corrupted
    // store files quarantined instead of adopted or fatal, and both
    // injected cell faults actually absorbed by retries.
    if (!fc_completed || fc_failed != 0 || !fc_identical ||
        fc_quarantines < fc_corrupted || fc_retried < 2) {
        std::fprintf(stderr, "FAIL: fault containment: completed=%d, "
                     "failed_cells=%zu, identical=%d, quarantines=%llu "
                     "(corrupted %zu), retried_cells=%zu (need >= 2)\n",
                     fc_completed, fc_failed, fc_identical,
                     static_cast<unsigned long long>(fc_quarantines),
                     fc_corrupted, fc_retried);
        return 1;
    }

    return 0;
}
