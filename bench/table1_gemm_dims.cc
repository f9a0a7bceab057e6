/**
 * @file
 * Regenerates Table I: the classifier GEMM dimensions (M, K, N) of
 * GNMT and DS2 at two sequence lengths, showing that the same logical
 * operation runs with different shapes across iterations.
 */

#include <cstdio>

#include "common/table.hh"
#include "models/ds2.hh"
#include "models/gnmt.hh"
#include "nn/autotune.hh"
#include "support.hh"

using namespace seqpoint;

namespace {

/** First GEMM whose name starts with the prefix. */
const sim::KernelDesc *
findGemm(const std::vector<sim::KernelDesc> &ks, const std::string &pfx)
{
    for (const auto &k : ks)
        if (k.klass == sim::KernelClass::Gemm &&
            k.name().rfind(pfx, 0) == 0)
            return &k;
    return nullptr;
}

void
addRows(Table &table, const char *net, nn::Model &model, int64_t sl1,
        int64_t sl2)
{
    nn::Autotuner tuner(nn::Autotuner::Mode::Heuristic);
    auto row = [&](const char *op, const char *prefix) {
        auto ks1 = model.lowerIteration(64, sl1, tuner);
        auto ks2 = model.lowerIteration(64, sl2, tuner);
        const sim::KernelDesc *a = findGemm(ks1, prefix);
        const sim::KernelDesc *b = findGemm(ks2, prefix);
        table.addRow({net, op,
                      csprintf("%lld", (long long)a->gemmM),
                      csprintf("%lld", (long long)a->gemmK),
                      csprintf("%lld", (long long)a->gemmN),
                      csprintf("%lld", (long long)b->gemmN)});
    };
    row("GEMM-a (classifier fwd)", "classifier_fwd");
    row("GEMM-b (classifier bwd-data)", "classifier_bwd_data");
}

} // anonymous namespace

int
main()
{
    Table table({"network", "operation", "M", "K", "N (sl-1)",
                 "N (sl-2)"});

    nn::Model gnmt = models::buildGnmt();
    addRows(table, "GNMT", gnmt, 99, 9);

    nn::Model ds2 = models::buildDs2();
    addRows(table, "DS2", ds2, 402, 59);

    std::printf("%s\n", table.render(
        "Table I: dimensions of the same GEMM operation across two "
        "iterations").c_str());

    bench::paperNote("GNMT GEMM-a: M=36549 K=1024 N=6016/576; "
                     "GEMM-b: M=1024 K=36549 (same N).");
    bench::paperNote("DS2 GEMM-a: M=29 K=1600 N=25728/3776; "
                     "GEMM-b: M=1600 K=29 (same N).");
    return 0;
}
