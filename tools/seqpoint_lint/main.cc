/**
 * @file
 * seqpoint_lint CLI. Exit codes: 0 clean, 1 violations, 2 usage or
 * configuration error.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "seqpoint_lint/lint.hh"

int
main(int argc, char **argv)
{
    seqlint::Options opts;
    opts.root = ".";
    bool list_loops = false;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--root") && i + 1 < argc) {
            opts.root = argv[++i];
        } else if (!std::strcmp(argv[i], "--list-loops")) {
            list_loops = true;
        } else if (!std::strcmp(argv[i], "--format=json")) {
            json = true;
        } else if (!std::strcmp(argv[i], "--format=text")) {
            json = false;
        } else {
            std::fprintf(stderr,
                         "usage: seqpoint_lint [--root DIR] "
                         "[--format=text|json] [--list-loops]\n");
            return 2;
        }
    }

    if (list_loops) {
        std::string out;
        if (!seqlint::listLoops(opts, out)) {
            std::fprintf(stderr, "seqpoint_lint: cannot read "
                         "checkpoint_paths.txt under %s\n",
                         opts.root.c_str());
            return 2;
        }
        std::fputs(out.c_str(), stdout);
        return 0;
    }

    std::vector<seqlint::Violation> violations;
    bool ok = seqlint::runLint(opts, violations);
    if (json) {
        // Machine-readable: the JSON array is the whole stdout, so a
        // CI step can pipe it straight into an annotation emitter.
        std::fputs(seqlint::violationsJson(violations).c_str(),
                   stdout);
    } else {
        for (const auto &v : violations) {
            std::fprintf(stderr, "%s:%d: [%s] %s\n", v.file.c_str(),
                         v.line, v.rule.c_str(), v.message.c_str());
        }
    }
    if (!ok)
        return 2;
    if (!violations.empty()) {
        if (!json) {
            std::fprintf(stderr, "seqpoint_lint: %zu violation(s)\n",
                         violations.size());
        }
        return 1;
    }
    if (!json)
        std::printf("seqpoint_lint: clean\n");
    return 0;
}
