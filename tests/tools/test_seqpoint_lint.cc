/**
 * @file
 * seqpoint_lint tests: the scanner primitives, both committed
 * fixture trees (one clean, one tripping every rule), and the
 * --update-pins ratchet semantics on a generated temp tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "seqpoint_lint/lint.hh"

namespace fs = std::filesystem;
using namespace seqlint;

namespace {

const std::string kFixtures =
    std::string(SEQPOINT_SOURCE_DIR) + "/tools/seqpoint_lint/fixtures";

std::set<std::string>
rulesOf(const std::vector<Violation> &vs)
{
    std::set<std::string> rules;
    for (const Violation &v : vs)
        rules.insert(v.rule);
    return rules;
}

void
writeFile(const fs::path &path, const std::string &content)
{
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::trunc);
    out << content;
    ASSERT_TRUE(out.good()) << path;
}

} // namespace

TEST(Fnv1a64, KnownVectors)
{
    // FNV-1a offset basis and a published test vector.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(hashHex(0xaf63dc4c8601ec8cull), "af63dc4c8601ec8c");
}

TEST(StripComments, RemovesCommentsKeepsLines)
{
    std::string src = "a; // trailing\n/* block\nspans */b;\n";
    std::string out = stripComments(src, false);
    EXPECT_EQ(out, "a; \n\nb;\n");
}

TEST(StripComments, StringContentsOptionallyBlanked)
{
    std::string src = "f(\"{ not a brace\");";
    EXPECT_EQ(stripComments(src, true), "f(\"\");");
    EXPECT_EQ(stripComments(src, false), src);
}

TEST(StripComments, CommentMarkersInsideStringsSurvive)
{
    std::string src = "g(\"// not a comment\"); h();";
    EXPECT_EQ(stripComments(src, false), src);
}

TEST(StripComments, DigitSeparatorIsNotACharLiteral)
{
    std::string src = "x = 1'000'000; y(); // tail\n";
    EXPECT_EQ(stripComments(src, true), "x = 1'000'000; y(); \n");
}

TEST(FindLoops, ChecksBodyAndEnclosingLoop)
{
    std::string src =
        "void f(int n) {\n"
        "    for (int i = 0; i < n; ++i) {\n"
        "        cancelCheckpoint(\"x\");\n"
        "        for (int j = 0; j < n; ++j)\n"
        "            g(j);\n"
        "    }\n"
        "    while (n > 0)\n"
        "        --n;\n"
        "}\n";
    auto loops = findLoops(stripComments(src, true));
    ASSERT_EQ(loops.size(), 3u);
    EXPECT_TRUE(loops[0].checked);  // own checkpoint
    EXPECT_TRUE(loops[1].checked);  // enclosing loop checked
    EXPECT_FALSE(loops[2].checked); // bare while
    EXPECT_EQ(loops[2].header, "while (n > 0)");
    EXPECT_EQ(loops[2].line, 7);
}

TEST(FindLoops, DoWhileTailIsNotADuplicateLoop)
{
    std::string src = "do {\n    f();\n} while (g());\n";
    auto loops = findLoops(stripComments(src, true));
    EXPECT_TRUE(loops.empty());
}

TEST(LoopKey, StableUnderReformatting)
{
    std::string a = "for (int i = 0; i < n; ++i) f();";
    std::string b = "for (int i = 0;\n     i < n; ++i) f();";
    auto la = findLoops(a), lb = findLoops(b);
    ASSERT_EQ(la.size(), 1u);
    ASSERT_EQ(lb.size(), 1u);
    EXPECT_EQ(loopKey("x.cc", la[0]), loopKey("x.cc", lb[0]));
}

TEST(LintFixtures, CleanTreePasses)
{
    Options opts;
    opts.root = kFixtures + "/clean_tree";
    std::vector<Violation> vs;
    EXPECT_TRUE(runLint(opts, vs));
    for (const Violation &v : vs)
        ADD_FAILURE() << v.rule << " " << v.file << ":" << v.line
                      << " " << v.message;
}

TEST(LintFixtures, ViolationsTreeTripsEveryRule)
{
    Options opts;
    opts.root = kFixtures + "/violations_tree";
    std::vector<Violation> vs;
    EXPECT_TRUE(runLint(opts, vs));
    std::set<std::string> rules = rulesOf(vs);
    EXPECT_TRUE(rules.count("checkpoint"));
    EXPECT_TRUE(rules.count("status-discard"));
    EXPECT_TRUE(rules.count("codec-pin"));
    EXPECT_TRUE(rules.count("error-code"));
    EXPECT_TRUE(rules.count("unordered-iter"));
    EXPECT_TRUE(rules.count("nondeterminism"));
    EXPECT_TRUE(rules.count("float-reduce"));
    EXPECT_TRUE(rules.count("fuzz-coverage"));
}

TEST(LintFixtures, ViolationsRenderAsJson)
{
    Options opts;
    opts.root = kFixtures + "/violations_tree";
    std::vector<Violation> vs;
    ASSERT_TRUE(runLint(opts, vs));
    ASSERT_FALSE(vs.empty());

    std::string json = violationsJson(vs);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), '\n');
    EXPECT_NE(json.find("\"rule\": \"unordered-iter\""), std::string::npos);
    EXPECT_NE(json.find("\"file\": \"src/det.cc\""), std::string::npos);
    EXPECT_NE(json.find("\"line\": "), std::string::npos);
    // Messages quote source (e.g. 'for (...)') and must be escaped.
    EXPECT_EQ(json.find('\t'), std::string::npos);

    EXPECT_EQ(violationsJson({}), "[]\n");

    Violation hostile;
    hostile.rule = "x";
    hostile.file = "a\"b";
    hostile.line = 1;
    hostile.message = "quote \" slash \\ newline \n tab \t end";
    std::string escaped = violationsJson({hostile});
    EXPECT_NE(escaped.find("a\\\"b"), std::string::npos);
    EXPECT_NE(escaped.find("\\\\ newline \\n tab \\t end"),
              std::string::npos);
}

TEST(LintFixtures, ViolationsTreeFlagsBothDiscardShapes)
{
    Options opts;
    opts.root = kFixtures + "/violations_tree";
    std::vector<Violation> vs;
    ASSERT_TRUE(runLint(opts, vs));
    int plain = 0, laundered = 0;
    for (const Violation &v : vs) {
        if (v.rule != "status-discard")
            continue;
        if (v.message.find("(void)") != std::string::npos)
            ++laundered;
        else
            ++plain;
    }
    EXPECT_EQ(plain, 1);
    EXPECT_EQ(laundered, 1);
}

class UpdatePins : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = fs::temp_directory_path() /
                ("seqlint_pins_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
        fs::remove_all(root_);
        writeFile(root_ / "src/harness/snapshot_io.hh",
                  "constexpr unsigned kSnapshotFormatVersion = 2;\n");
        writeFile(root_ / "src/codec.cc", "int codec() { return 1; }\n");
        writeFile(root_ / "tools/seqpoint_lint/codec_files.txt",
                  "src/codec.cc\n");
        opts_.root = root_.string();
    }

    void TearDown() override { fs::remove_all(root_); }

    fs::path root_;
    Options opts_;
};

TEST_F(UpdatePins, GeneratesPinsAndLintAcceptsThem)
{
    std::string error;
    ASSERT_TRUE(updateCodecPins(opts_, error)) << error;

    // Rule 3 in isolation needs the rest of the config; a comment-only
    // edit must still pass (hashes skip comments).
    writeFile(root_ / "src/codec.cc",
              "// new comment\nint codec() { return 1; }\n");
    ASSERT_TRUE(updateCodecPins(opts_, error)) << error;
}

TEST_F(UpdatePins, RefusesRepinWithoutVersionBump)
{
    std::string error;
    ASSERT_TRUE(updateCodecPins(opts_, error)) << error;

    writeFile(root_ / "src/codec.cc", "int codec() { return 2; }\n");
    EXPECT_FALSE(updateCodecPins(opts_, error));
    EXPECT_NE(error.find("bump"), std::string::npos) << error;

    // Bumping the format version unlocks the re-pin.
    writeFile(root_ / "src/harness/snapshot_io.hh",
              "constexpr unsigned kSnapshotFormatVersion = 3;\n");
    error.clear();
    EXPECT_TRUE(updateCodecPins(opts_, error)) << error;
}

/**
 * Determinism-rule ratchet semantics: start from a copy of the clean
 * fixture tree and verify that removing an escape hatch (annotation,
 * allowlist pin) or adding an uncovered decoder re-trips the rule.
 */
class DeterminismRules : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = fs::temp_directory_path() /
                ("seqlint_det_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
        fs::remove_all(root_);
        fs::copy(kFixtures + "/clean_tree", root_,
                 fs::copy_options::recursive);
        opts_.root = root_.string();
    }

    void TearDown() override { fs::remove_all(root_); }

    // Replaces `from` with `to` in the tree-relative file `rel`.
    void
    patchFile(const std::string &rel, const std::string &from,
              const std::string &to)
    {
        std::ifstream in(root_ / rel);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        auto at = text.find(from);
        ASSERT_NE(at, std::string::npos) << rel << ": " << from;
        text.replace(at, from.size(), to);
        writeFile(root_ / rel, text);
    }

    std::set<std::string>
    lintRules()
    {
        std::vector<Violation> vs;
        EXPECT_TRUE(runLint(opts_, vs));
        return rulesOf(vs);
    }

    fs::path root_;
    Options opts_;
};

TEST_F(DeterminismRules, CopiedCleanTreeStartsClean)
{
    EXPECT_TRUE(lintRules().empty());
}

TEST_F(DeterminismRules, RemovingCanonicalOrderAnnotationTrips)
{
    patchFile("src/det.cc", "seqlint:canonical-order", "(removed)");
    EXPECT_TRUE(lintRules().count("unordered-iter"));
}

TEST_F(DeterminismRules, AnnotationMoreThanTwoLinesAwayDoesNotCount)
{
    // Push the tag out of the recognised window (flagged line plus the
    // two lines above it).
    patchFile("src/det.cc", "output. seqlint:canonical-order\n",
              "output. seqlint:canonical-order\n    //\n    //\n");
    EXPECT_TRUE(lintRules().count("unordered-iter"));
}

TEST_F(DeterminismRules, StaleDeterminismPinTrips)
{
    patchFile("tools/seqpoint_lint/determinism_allowlist.txt",
              "src/det.cc#", "src/det.cc#ffffffffffffffff ");
    EXPECT_TRUE(lintRules().count("unordered-iter"));
}

TEST_F(DeterminismRules, UnlistedClockTokenTrips)
{
    patchFile("tools/seqpoint_lint/nondeterminism_allowlist.txt",
              "src/det.cc:steady_clock", "# (pin retired)");
    EXPECT_TRUE(lintRules().count("nondeterminism"));
}

TEST_F(DeterminismRules, RemovingReduceAnnotationTrips)
{
    patchFile("src/det.cc", "seqlint:deterministic-reduce", "(removed)");
    EXPECT_TRUE(lintRules().count("float-reduce"));
}

TEST_F(DeterminismRules, PerSlotWritesStayExempt)
{
    // The slots[i] compound assignments are single-writer-per-index and
    // must not need an annotation: retire every escape hatch except the
    // ones covering the two named reductions.
    patchFile("src/det.cc", "slots[i] += 1.0;", "slots[i] += 3.0;");
    EXPECT_FALSE(lintRules().count("float-reduce"));
}

TEST_F(DeterminismRules, NewDecoderWithoutHarnessTrips)
{
    patchFile("src/codec2.cc", "struct ByteReader;",
              "struct ByteReader;\nint decodeOther(ByteReader &r);\n");
    EXPECT_TRUE(lintRules().count("fuzz-coverage"));
}

TEST_F(DeterminismRules, MissingRegistryIsAConfigError)
{
    fs::remove(root_ / "tools/seqpoint_lint/fuzz_harnesses.txt");
    std::vector<Violation> vs;
    EXPECT_FALSE(runLint(opts_, vs));
}

TEST(LintTree, RepositoryIsClean)
{
    // The merged tree must satisfy its own invariants. (Also enforced
    // as a standalone ctest via the seqpoint_lint binary; kept here so
    // a lint regression points at the rule that fired.)
    Options opts;
    opts.root = SEQPOINT_SOURCE_DIR;
    std::vector<Violation> vs;
    EXPECT_TRUE(runLint(opts, vs));
    for (const Violation &v : vs)
        ADD_FAILURE() << v.rule << " " << v.file << ":" << v.line
                      << " " << v.message;
}
