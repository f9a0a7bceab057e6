/**
 * @file
 * Tests for the interned kernel-name stem table: handle identity, and
 * concurrent model builds resolving names while other threads intern
 * (run under TSan in CI). The name recipes themselves are pinned in
 * test_kernel_gen and test_autotune.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/strutil.hh"
#include "models/cnn.hh"
#include "models/ds2.hh"
#include "models/gnmt.hh"
#include "models/transformer.hh"
#include "nn/autotune.hh"
#include "nn/model.hh"
#include "sim/kernel.hh"

namespace seqpoint {
namespace nn {
namespace {

TEST(KernelStem, EqualTextsShareOneHandle)
{
    sim::KernelStem a("stem_test_fwd");
    sim::KernelStem b(std::string("stem_test") + "_fwd");
    sim::KernelStem c("stem_test_bwd");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a.view(), "stem_test_fwd");
    EXPECT_EQ(a.view().data(), b.view().data());
}

TEST(KernelStem, DefaultIsEmpty)
{
    EXPECT_EQ(sim::KernelStem().view(), "");
    EXPECT_EQ(sim::KernelDesc().name(), "");
}

/** Every kernel name of one training + inference lowering. */
std::vector<std::string>
loweredNames(const Model &m, int64_t sl)
{
    Autotuner tuner(Autotuner::Mode::Heuristic);
    std::vector<std::string> names;
    for (const sim::KernelDesc &k : m.lowerIteration(8, sl, tuner))
        names.push_back(k.name());
    for (const sim::KernelDesc &k : m.lowerInference(8, sl, tuner))
        names.push_back(k.name());
    return names;
}

Model
buildModel(unsigned which)
{
    switch (which % 4) {
      case 0: return models::buildGnmt();
      case 1: return models::buildDs2();
      case 2: return models::buildCnn();
      default: return models::buildTransformer();
    }
}

TEST(KernelName, ConcurrentBuildsAndResolvesAgree)
{
    constexpr unsigned kThreads = 8;
    constexpr unsigned kRounds = 24;
    constexpr int64_t kSl = 11;

    std::vector<std::vector<std::string>> expected;
    for (unsigned w = 0; w < 4; ++w)
        expected.push_back(loweredNames(buildModel(w), kSl));

    // Each thread builds models (interning their layer stems), lowers
    // them and resolves every name, while interning stems no other
    // thread has seen -- the table grows under concurrent readers.
    std::vector<unsigned> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &expected, &mismatches] {
            for (unsigned r = 0; r < kRounds; ++r) {
                unsigned which = t + r;
                if (loweredNames(buildModel(which), kSl) !=
                    expected[which % 4])
                    ++mismatches[t];
                std::string text = csprintf("thread_%u_round_%u", t, r);
                if (sim::KernelStem(text).view() != text)
                    ++mismatches[t];
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

} // anonymous namespace
} // namespace nn
} // namespace seqpoint
