/**
 * @file
 * Repo-invariant linter implementation. Plain-std, no dependency on
 * the seqpoint library (the linter must build and run even when the
 * tree it checks does not).
 */

#include "seqpoint_lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace seqlint {

namespace fs = std::filesystem;

namespace {

/** Read a whole file; false when it cannot be opened. */
bool
readFile(const fs::path &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

/**
 * Read a config list file: one entry per line, blank lines and '#'
 * comments skipped. A '#' marks a comment only at line start or
 * after whitespace -- allowlist keys embed '#' as a separator.
 * False when the file cannot be opened.
 *
 * @param lines When non-null, receives each entry's 1-based line.
 */
bool
readListFile(const fs::path &path, std::vector<std::string> &out,
             std::vector<int> *lines = nullptr)
{
    std::string text;
    if (!readFile(path, text))
        return false;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        for (std::size_t i = 0; i < line.size(); ++i) {
            if (line[i] != '#')
                continue;
            if (i == 0 || line[i - 1] == ' ' || line[i - 1] == '\t') {
                line = line.substr(0, i);
                break;
            }
        }
        line = trim(line);
        if (line.empty())
            continue;
        out.push_back(line);
        if (lines)
            lines->push_back(line_no);
    }
    return true;
}

/**
 * A rule's committed allowlist (optional: a missing file is empty).
 * The rule asks allows() only for a site it would otherwise flag, so
 * a pin it never matched sanctions nothing in today's tree -- it
 * would only silently sanction a future site -- and reportUnused()
 * flags it.
 */
class Allowlist
{
  public:
    Allowlist(const Options &opts, const std::string &name)
        : rel_("tools/seqpoint_lint/" + name)
    {
        std::vector<std::string> keys;
        std::vector<int> lines;
        readListFile(fs::path(opts.root) / rel_, keys, &lines);
        for (std::size_t i = 0; i < keys.size(); ++i)
            pins_.emplace(keys[i], lines[i]);
    }

    /** @return True when `key` is pinned; records the pin as used. */
    bool
    allows(const std::string &key)
    {
        if (!pins_.count(key))
            return false;
        used_.insert(key);
        return true;
    }

    /** Append a "stale-pin" violation for every pin never used. */
    void
    reportUnused(const std::string &rule,
                 std::vector<Violation> &out) const
    {
        for (const auto &[key, line] : pins_) {
            if (used_.count(key))
                continue;
            out.push_back(
                {"stale-pin", rel_, line,
                 "pin '" + key + "' matches no site the " + rule +
                 " rule flags; remove it"});
        }
    }

  private:
    std::string rel_;
    std::map<std::string, int> pins_; ///< Key -> first line.
    std::set<std::string> used_;
};

/** 1-based line number of `pos` in `text`. */
int
lineOf(const std::string &text, std::size_t pos)
{
    return 1 + static_cast<int>(
        std::count(text.begin(), text.begin() + pos, '\n'));
}

/** Collapse whitespace runs to single spaces and trim. */
std::string
normalizeWs(const std::string &s)
{
    std::string out;
    bool in_ws = true; // swallow leading whitespace
    for (char c : s) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            if (!in_ws)
                out.push_back(' ');
            in_ws = true;
        } else {
            out.push_back(c);
            in_ws = false;
        }
    }
    while (!out.empty() && out.back() == ' ')
        out.pop_back();
    return out;
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Index of the brace matching `open` ('{' at text[open]); npos if
 *  unbalanced. */
std::size_t
matchBrace(const std::string &text, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '{')
            ++depth;
        else if (text[i] == '}' && --depth == 0)
            return i;
    }
    return std::string::npos;
}

/** Index of the paren matching `open` ('(' at text[open]). */
std::size_t
matchParen(const std::string &text, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '(')
            ++depth;
        else if (text[i] == ')' && --depth == 0)
            return i;
    }
    return std::string::npos;
}

std::size_t
skipWs(const std::string &text, std::size_t i)
{
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
        ++i;
    return i;
}

} // namespace

uint64_t
fnv1a64(const std::string &data)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hashHex(uint64_t h)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[i] = digits[h & 0xf];
        h >>= 4;
    }
    return out;
}

std::string
stripComments(const std::string &src, bool strip_strings)
{
    std::string out;
    out.reserve(src.size());
    enum { Code, Line, Block, Str, Chr } state = Code;
    for (std::size_t i = 0; i < src.size(); ++i) {
        char c = src[i];
        char next = i + 1 < src.size() ? src[i + 1] : '\0';
        switch (state) {
          case Code:
            if (c == '/' && next == '/') {
                state = Line;
                ++i;
            } else if (c == '/' && next == '*') {
                state = Block;
                ++i;
            } else if (c == '"') {
                state = Str;
                out.push_back(c);
            } else if (c == '\'') {
                // Distinguish a char literal from a C++14 digit
                // separator (1'000'000): separators sit between
                // alphanumerics.
                bool sep = i > 0 && isIdentChar(src[i - 1]) &&
                           isIdentChar(next);
                if (sep)
                    out.push_back(c);
                else {
                    state = Chr;
                    out.push_back(c);
                }
            } else {
                out.push_back(c);
            }
            break;
          case Line:
            if (c == '\n') {
                state = Code;
                out.push_back(c);
            }
            break;
          case Block:
            if (c == '*' && next == '/') {
                state = Code;
                ++i;
            } else if (c == '\n') {
                out.push_back(c);
            }
            break;
          case Str:
            if (c == '\\' && next != '\0') {
                if (!strip_strings) {
                    out.push_back(c);
                    out.push_back(next);
                }
                ++i;
            } else if (c == '"') {
                state = Code;
                out.push_back(c);
            } else if (!strip_strings || c == '\n') {
                out.push_back(c);
            }
            break;
          case Chr:
            if (c == '\\' && next != '\0') {
                if (!strip_strings) {
                    out.push_back(c);
                    out.push_back(next);
                }
                ++i;
            } else if (c == '\'') {
                state = Code;
                out.push_back(c);
            } else if (!strip_strings) {
                out.push_back(c);
            }
            break;
        }
    }
    return out;
}

std::vector<LoopSite>
findLoops(const std::string &stripped)
{
    struct Raw {
        std::size_t kw, bodyBegin, bodyEnd;
        int line;
        std::string header;
        bool own = false;
    };
    std::vector<Raw> raw;

    for (std::size_t i = 0; i < stripped.size(); ++i) {
        if (!isIdentChar(stripped[i]))
            continue;
        std::size_t start = i;
        while (i < stripped.size() && isIdentChar(stripped[i]))
            ++i;
        std::string word = stripped.substr(start, i - start);
        if (word != "for" && word != "while")
            continue;
        std::size_t open = skipWs(stripped, i);
        if (open >= stripped.size() || stripped[open] != '(')
            continue;
        std::size_t close = matchParen(stripped, open);
        if (close == std::string::npos)
            continue;
        // A do-while tail ("} while (cond);") is the same loop as
        // its do body; skip the duplicate.
        std::size_t after = skipWs(stripped, close + 1);
        if (word == "while" && after < stripped.size() &&
            stripped[after] == ';')
            continue;

        Raw r;
        r.kw = start;
        r.line = lineOf(stripped, start);
        r.header = normalizeWs(stripped.substr(start, close + 1 - start));
        if (after < stripped.size() && stripped[after] == '{') {
            std::size_t end = matchBrace(stripped, after);
            if (end == std::string::npos)
                continue;
            r.bodyBegin = after + 1;
            r.bodyEnd = end;
        } else {
            // Brace-less body: one statement, up to the ';' at
            // paren/brace depth zero (a nested loop header's inner
            // semicolons sit at depth > 0).
            int depth = 0;
            std::size_t j = after;
            for (; j < stripped.size(); ++j) {
                char c = stripped[j];
                if (c == '(' || c == '{')
                    ++depth;
                else if (c == ')' || c == '}')
                    --depth;
                else if (c == ';' && depth == 0)
                    break;
            }
            r.bodyBegin = after;
            r.bodyEnd = j;
        }
        raw.push_back(r);
        i = close; // resume after the header
    }

    for (Raw &r : raw) {
        std::string range =
            stripped.substr(r.kw, r.bodyEnd - r.kw);
        r.own = range.find("cancelCheckpoint") != std::string::npos ||
                range.find("checkpoint(") != std::string::npos;
    }

    std::vector<LoopSite> out;
    for (const Raw &r : raw) {
        LoopSite site;
        site.line = r.line;
        site.header = r.header;
        site.bodyBegin = r.bodyBegin;
        site.bodyEnd = r.bodyEnd;
        site.checked = r.own;
        if (!site.checked) {
            for (const Raw &outer : raw) {
                if (outer.own && outer.bodyBegin <= r.kw &&
                    r.bodyEnd <= outer.bodyEnd) {
                    site.checked = true;
                    break;
                }
            }
        }
        out.push_back(site);
    }
    return out;
}

std::string
loopKey(const std::string &relpath, const LoopSite &loop)
{
    return relpath + "#" + hashHex(fnv1a64(loop.header));
}

namespace {

// ---------------------------------------------------------------
// Rule 1: checkpoint coverage.
// ---------------------------------------------------------------

bool
ruleCheckpoint(const Options &opts, std::vector<Violation> &out)
{
    fs::path cfg = fs::path(opts.root) / "tools" / "seqpoint_lint";
    std::vector<std::string> paths;
    if (!readListFile(cfg / "checkpoint_paths.txt", paths)) {
        out.push_back({"config", "tools/seqpoint_lint/checkpoint_paths.txt",
                       0, "cannot read checkpoint path registry"});
        return false;
    }
    Allowlist allowed(opts, "checkpoint_allowlist.txt");

    for (const std::string &rel : paths) {
        std::string src;
        if (!readFile(fs::path(opts.root) / rel, src)) {
            out.push_back({"config", rel, 0,
                           "checkpoint_paths.txt names a missing file"});
            return false;
        }
        std::string stripped = stripComments(src, true);
        for (const LoopSite &loop : findLoops(stripped)) {
            if (loop.checked)
                continue;
            std::string key = loopKey(rel, loop);
            if (allowed.allows(key))
                continue;
            out.push_back(
                {"checkpoint", rel, loop.line,
                 "loop '" + loop.header + "' on a cancellable path "
                 "neither polls cancelCheckpoint nor appears in "
                 "checkpoint_allowlist.txt (key " + key + "; see "
                 "seqpoint_lint --list-loops)"});
        }
    }
    allowed.reportUnused("checkpoint", out);
    return true;
}

// ---------------------------------------------------------------
// Rule 2: discarded Status/Result.
// ---------------------------------------------------------------

/** Collect names of functions declared to return Status/Result<T>. */
void
collectStatusFunctions(const std::string &stripped,
                       std::set<std::string> &names)
{
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        if (!isIdentChar(stripped[i]))
            continue;
        std::size_t start = i;
        while (i < stripped.size() && isIdentChar(stripped[i]))
            ++i;
        std::string word = stripped.substr(start, i - start);
        std::size_t j = i;
        if (word == "Result") {
            j = skipWs(stripped, j);
            if (j >= stripped.size() || stripped[j] != '<')
                continue;
            int depth = 0;
            for (; j < stripped.size(); ++j) {
                if (stripped[j] == '<')
                    ++depth;
                else if (stripped[j] == '>' && --depth == 0) {
                    ++j;
                    break;
                }
            }
        } else if (word != "Status") {
            continue;
        }
        j = skipWs(stripped, j);
        std::size_t name_start = j;
        while (j < stripped.size() && isIdentChar(stripped[j]))
            ++j;
        if (j == name_start)
            continue;
        std::string name = stripped.substr(name_start, j - name_start);
        std::size_t k = skipWs(stripped, j);
        if (k < stripped.size() && stripped[k] == '(')
            names.insert(name);
        i = j - 1;
    }
}

/**
 * Walk a call chain backwards from the called identifier's start
 * ("FaultInjector::instance().check" from "check") and return the
 * chain's first character.
 */
std::size_t
chainStart(const std::string &text, std::size_t ident_start)
{
    std::size_t p = ident_start;
    for (;;) {
        std::size_t q = p;
        while (q > 0 &&
               std::isspace(static_cast<unsigned char>(text[q - 1])))
            --q;
        if (q >= 2 && text[q - 2] == ':' && text[q - 1] == ':')
            q -= 2;
        else if (q >= 2 && text[q - 2] == '-' && text[q - 1] == '>')
            q -= 2;
        else if (q >= 1 && text[q - 1] == '.')
            q -= 1;
        else
            return q;
        while (q > 0 &&
               std::isspace(static_cast<unsigned char>(text[q - 1])))
            --q;
        if (q > 0 && text[q - 1] == ')') {
            int depth = 0;
            while (q > 0) {
                char c = text[--q];
                if (c == ')')
                    ++depth;
                else if (c == '(' && --depth == 0)
                    break;
            }
        }
        while (q > 0 &&
               std::isspace(static_cast<unsigned char>(text[q - 1])))
            --q;
        while (q > 0 && isIdentChar(text[q - 1]))
            --q;
        p = q;
    }
}

void
scanDiscards(const std::string &stripped,
             const std::set<std::string> &names,
             const std::string &rel, Allowlist &allowed,
             std::vector<Violation> &out)
{
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        if (!isIdentChar(stripped[i]))
            continue;
        std::size_t start = i;
        while (i < stripped.size() && isIdentChar(stripped[i]))
            ++i;
        std::string word = stripped.substr(start, i - start);
        if (!names.count(word))
            continue;
        std::size_t open = skipWs(stripped, i);
        if (open >= stripped.size() || stripped[open] != '(')
            continue;

        std::size_t cs = chainStart(stripped, start);
        std::size_t r = cs;
        while (r > 0 &&
               std::isspace(static_cast<unsigned char>(stripped[r - 1])))
            --r;
        bool void_cast =
            r >= 6 && stripped.compare(r - 6, 6, "(void)") == 0;
        char prev = r > 0 ? stripped[r - 1] : ';';
        bool stmt = r == 0 || prev == ';' || prev == '{' ||
                    prev == '}' || prev == ')';
        if (prev == ')' && !void_cast) {
            // `if (cond) discard();` is a discard, but a preceding
            // `)` can also close an expression; only the control
            // headers make it statement position.
            std::size_t open_hdr = cs;
            int depth = 0;
            while (open_hdr > 0) {
                char c = stripped[--open_hdr];
                if (c == ')')
                    ++depth;
                else if (c == '(' && --depth == 0)
                    break;
            }
            std::size_t w_end = open_hdr;
            while (w_end > 0 && std::isspace(
                       static_cast<unsigned char>(stripped[w_end - 1])))
                --w_end;
            std::size_t w_start = w_end;
            while (w_start > 0 && isIdentChar(stripped[w_start - 1]))
                --w_start;
            std::string kw = stripped.substr(w_start, w_end - w_start);
            stmt = kw == "if" || kw == "for" || kw == "while";
        }
        if (!stmt && prev != ')' && r > 0 &&
            std::isalpha(static_cast<unsigned char>(prev))) {
            std::size_t w_start = r;
            while (w_start > 0 && isIdentChar(stripped[w_start - 1]))
                --w_start;
            std::string kw = stripped.substr(w_start, r - w_start);
            stmt = kw == "else" || kw == "do";
        }
        if (!stmt && !void_cast)
            continue;
        if (allowed.allows(rel + ":" + word))
            continue;
        out.push_back(
            {"status-discard", rel, lineOf(stripped, start),
             std::string(void_cast ? "(void)-discarded" : "discarded") +
             " call to Status/Result-returning '" + word +
             "' (handle the status, or allowlist '" + rel + ":" +
             word + "' in status_discard_allowlist.txt)"});
    }
}

bool
ruleStatusDiscard(const Options &opts, std::vector<Violation> &out)
{
    Allowlist allowed(opts, "status_discard_allowlist.txt");

    fs::path src_root = fs::path(opts.root) / "src";
    std::error_code ec;
    if (!fs::is_directory(src_root, ec)) {
        out.push_back({"config", "src", 0, "no src/ directory"});
        return false;
    }

    // Pass 1: which function names return Status/Result?
    std::vector<std::pair<std::string, std::string>> files; // rel, text
    for (const auto &entry :
         fs::recursive_directory_iterator(src_root, ec)) {
        if (!entry.is_regular_file())
            continue;
        fs::path p = entry.path();
        if (p.extension() != ".cc" && p.extension() != ".hh")
            continue;
        std::string text;
        if (!readFile(p, text))
            continue;
        std::string rel =
            fs::relative(p, opts.root).generic_string();
        files.emplace_back(rel, stripComments(text, true));
    }
    std::sort(files.begin(), files.end());
    std::set<std::string> names;
    for (const auto &f : files)
        collectStatusFunctions(f.second, names);

    // Pass 2: statement-position and (void) discards of those names.
    for (const auto &f : files)
        scanDiscards(f.second, names, f.first, allowed, out);
    allowed.reportUnused("status-discard", out);
    return true;
}

// ---------------------------------------------------------------
// Rule 3: ErrorCode classification strings.
// ---------------------------------------------------------------

bool
ruleErrorCodes(const Options &opts, std::vector<Violation> &out)
{
    std::string text;
    if (!readFile(fs::path(opts.root) / "src/common/status.hh",
                  text)) {
        out.push_back({"config", "src/common/status.hh", 0,
                       "cannot read the Status layer"});
        return false;
    }
    std::string stripped = stripComments(text, false);

    std::size_t pos = stripped.find("enum class ErrorCode");
    if (pos == std::string::npos) {
        out.push_back({"error-code", "src/common/status.hh", 0,
                       "enum class ErrorCode not found"});
        return true;
    }
    std::size_t open = stripped.find('{', pos);
    std::size_t close = matchBrace(stripped, open);
    if (open == std::string::npos || close == std::string::npos)
        return true;
    std::vector<std::string> enumerators;
    std::istringstream body(stripped.substr(open + 1, close - open - 1));
    std::string item;
    while (std::getline(body, item, ',')) {
        std::size_t eq = item.find('=');
        if (eq != std::string::npos)
            item = item.substr(0, eq);
        item = trim(item);
        if (!item.empty())
            enumerators.push_back(item);
    }

    std::size_t fn = stripped.find("errorCodeName", close);
    std::size_t fn_body = fn == std::string::npos
        ? std::string::npos : stripped.find('{', fn);
    if (fn_body == std::string::npos) {
        out.push_back({"error-code", "src/common/status.hh", 0,
                       "errorCodeName() not found"});
        return true;
    }
    std::size_t fn_end = matchBrace(stripped, fn_body);
    std::string norm = normalizeWs(
        stripped.substr(fn_body, fn_end - fn_body));

    for (const std::string &e : enumerators) {
        std::string want = "case ErrorCode::" + e + ": return \"";
        if (norm.find(want) != std::string::npos)
            continue;
        out.push_back(
            {"error-code", "src/common/status.hh",
             lineOf(stripped, fn), "ErrorCode::" + e +
             " has no classification string in errorCodeName()"});
    }
    return true;
}

// ---------------------------------------------------------------
// Shared helpers for rules 4-7.
// ---------------------------------------------------------------

/** Whether `word` occurs in `text` with identifier boundaries. */
bool
containsWord(const std::string &text, const std::string &word)
{
    std::size_t pos = 0;
    while ((pos = text.find(word, pos)) != std::string::npos) {
        bool lb = pos == 0 || !isIdentChar(text[pos - 1]);
        bool rb = pos + word.size() >= text.size() ||
                  !isIdentChar(text[pos + word.size()]);
        if (lb && rb)
            return true;
        ++pos;
    }
    return false;
}

/**
 * Whether the raw (unstripped) source carries the escape-hatch
 * annotation `tag` on the flagged line or within the two lines above
 * it. Annotations are comments, so they must be checked against the
 * raw text -- the rule scans run on stripped text.
 */
bool
hasAnnotation(const std::string &raw, int line, const char *tag)
{
    std::istringstream in(raw);
    std::string l;
    int n = 0;
    while (std::getline(in, l)) {
        ++n;
        if (n > line)
            break;
        if (n >= line - 2 && l.find(tag) != std::string::npos)
            return true;
    }
    return false;
}

/** Every .cc/.hh file under src/ and bench/, sorted, as
 *  (relpath, raw text) pairs. */
std::vector<std::pair<std::string, std::string>>
sourceFiles(const Options &opts)
{
    std::vector<std::pair<std::string, std::string>> files;
    std::error_code ec;
    for (const char *top : {"src", "bench"}) {
        fs::path dir = fs::path(opts.root) / top;
        if (!fs::is_directory(dir, ec))
            continue;
        for (const auto &entry :
             fs::recursive_directory_iterator(dir, ec)) {
            if (!entry.is_regular_file())
                continue;
            fs::path p = entry.path();
            if (p.extension() != ".cc" && p.extension() != ".hh")
                continue;
            std::string text;
            if (!readFile(p, text))
                continue;
            files.emplace_back(
                fs::relative(p, opts.root).generic_string(),
                std::move(text));
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

// ---------------------------------------------------------------
// Rule 4: unordered-container iteration on determinism-critical
// paths.
// ---------------------------------------------------------------

/** Collect identifiers declared with an unordered container type. */
void
collectUnorderedNames(const std::string &stripped,
                      std::set<std::string> &names)
{
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        if (!isIdentChar(stripped[i]))
            continue;
        std::size_t start = i;
        while (i < stripped.size() && isIdentChar(stripped[i]))
            ++i;
        std::string word = stripped.substr(start, i - start);
        if (word != "unordered_map" && word != "unordered_set" &&
            word != "unordered_multimap" &&
            word != "unordered_multiset")
            continue;
        std::size_t j = skipWs(stripped, i);
        if (j >= stripped.size() || stripped[j] != '<')
            continue;
        int depth = 0;
        for (; j < stripped.size(); ++j) {
            if (stripped[j] == '<')
                ++depth;
            else if (stripped[j] == '>' && --depth == 0) {
                ++j;
                break;
            }
        }
        j = skipWs(stripped, j);
        // A qualified use (::iterator, ::value_type) is not a
        // declaration.
        if (j + 1 < stripped.size() && stripped[j] == ':' &&
            stripped[j + 1] == ':')
            continue;
        while (j < stripped.size() &&
               (stripped[j] == '&' || stripped[j] == '*'))
            j = skipWs(stripped, j + 1);
        std::size_t name_start = j;
        while (j < stripped.size() && isIdentChar(stripped[j]))
            ++j;
        if (j > name_start)
            names.insert(stripped.substr(name_start, j - name_start));
        if (j > i)
            i = j - 1;
    }
}

bool
ruleUnorderedIter(const Options &opts, std::vector<Violation> &out)
{
    fs::path cfg = fs::path(opts.root) / "tools" / "seqpoint_lint";
    std::vector<std::string> paths;
    if (!readListFile(cfg / "determinism_paths.txt", paths)) {
        out.push_back({"config",
                       "tools/seqpoint_lint/determinism_paths.txt", 0,
                       "cannot read determinism path registry"});
        return false;
    }
    Allowlist allowed(opts, "determinism_allowlist.txt");

    for (const std::string &rel : paths) {
        std::string src;
        fs::path p = fs::path(opts.root) / rel;
        if (!readFile(p, src)) {
            out.push_back({"config", rel, 0,
                           "determinism_paths.txt names a missing "
                           "file"});
            return false;
        }
        std::string stripped = stripComments(src, true);

        std::set<std::string> names;
        collectUnorderedNames(stripped, names);
        // A .cc file's unordered members usually live in its header.
        if (p.extension() == ".cc") {
            std::string hdr;
            if (readFile(fs::path(p).replace_extension(".hh"), hdr))
                collectUnorderedNames(stripComments(hdr, true), names);
        }
        if (names.empty())
            continue;

        for (const LoopSite &loop : findLoops(stripped)) {
            const std::string *hit = nullptr;
            for (const std::string &n : names) {
                if (containsWord(loop.header, n)) {
                    hit = &n;
                    break;
                }
            }
            if (!hit)
                continue;
            if (hasAnnotation(src, loop.line,
                              "seqlint:canonical-order"))
                continue;
            std::string key = loopKey(rel, loop);
            if (allowed.allows(key))
                continue;
            out.push_back(
                {"unordered-iter", rel, loop.line,
                 "loop '" + loop.header + "' iterates unordered "
                 "container '" + *hit + "' on a determinism-critical "
                 "path; canonicalise the order downstream and "
                 "annotate the loop with 'seqlint:canonical-order', "
                 "or pin key " + key +
                 " in determinism_allowlist.txt"});
        }
    }
    allowed.reportUnused("unordered-iter", out);
    return true;
}

// ---------------------------------------------------------------
// Rule 5: unseeded randomness / wall-clock in measured paths.
// ---------------------------------------------------------------

bool
ruleNondeterminism(const Options &opts, std::vector<Violation> &out)
{
    Allowlist allowed(opts, "nondeterminism_allowlist.txt");

    static const char *const tokens[] = {
        "rand",          "srand",        "drand48",
        "lrand48",       "random_device", "steady_clock",
        "system_clock",  "high_resolution_clock",
        "clock_gettime", "gettimeofday",
    };

    for (const auto &[rel, text] : sourceFiles(opts)) {
        // The sanctioned seeded-RNG wrapper is the one place allowed
        // to touch raw entropy primitives.
        if (rel == "src/common/rng.hh" || rel == "src/common/rng.cc")
            continue;
        std::string stripped = stripComments(text, true);
        for (const char *token : tokens) {
            std::size_t pos = 0;
            std::string tok(token);
            while ((pos = stripped.find(tok, pos)) !=
                   std::string::npos) {
                bool lb = pos == 0 || !isIdentChar(stripped[pos - 1]);
                std::size_t end = pos + tok.size();
                bool rb = end >= stripped.size() ||
                          !isIdentChar(stripped[end]);
                // A pin sanctions every use of its token in its file.
                if (lb && rb && allowed.allows(rel + ":" + tok))
                    break;
                if (lb && rb) {
                    out.push_back(
                        {"nondeterminism", rel,
                         lineOf(stripped, pos),
                         "'" + tok + "' in a measured path: route "
                         "randomness through common/rng.hh (seeded) "
                         "and timing through the harness clock, or "
                         "allowlist '" + rel + ":" + tok +
                         "' in nondeterminism_allowlist.txt"});
                }
                pos = end;
            }
        }
    }
    allowed.reportUnused("nondeterminism", out);
    return true;
}

// ---------------------------------------------------------------
// Rule 6: float-reduction order in parallelFor lambdas.
// ---------------------------------------------------------------

/**
 * The loop-variable name of the first lambda in a parallelFor
 * argument list: the last identifier of the lambda's parameter list
 * ("i" in "[&](std::size_t i)"). Empty when there is no inline
 * lambda (the body is a named callable).
 */
std::string
lambdaIndexName(const std::string &args)
{
    std::size_t lb = args.find('[');
    if (lb == std::string::npos)
        return "";
    std::size_t rb = args.find(']', lb);
    if (rb == std::string::npos)
        return "";
    std::size_t open = skipWs(args, rb + 1);
    if (open >= args.size() || args[open] != '(')
        return "";
    std::size_t close = matchParen(args, open);
    if (close == std::string::npos)
        return "";
    std::string params = args.substr(open + 1, close - open - 1);
    std::size_t end = params.size();
    while (end > 0 && !isIdentChar(params[end - 1]))
        --end;
    std::size_t start = end;
    while (start > 0 && isIdentChar(params[start - 1]))
        --start;
    return params.substr(start, end - start);
}

bool
ruleFloatReduce(const Options &opts, std::vector<Violation> &out)
{
    Allowlist allowed(opts, "float_reduce_allowlist.txt");

    static const char *const ops[] = {"+=", "-=", "*="};

    for (const auto &[rel, text] : sourceFiles(opts)) {
        std::string stripped = stripComments(text, true);
        std::size_t pos = 0;
        while ((pos = stripped.find("parallelFor", pos)) !=
               std::string::npos) {
            std::size_t at = pos;
            pos += 11;
            bool lb = at == 0 || !isIdentChar(stripped[at - 1]);
            bool rb = pos >= stripped.size() ||
                      !isIdentChar(stripped[pos]);
            if (!lb || !rb)
                continue;
            std::size_t open = skipWs(stripped, pos);
            if (open >= stripped.size() || stripped[open] != '(')
                continue;
            std::size_t close = matchParen(stripped, open);
            if (close == std::string::npos)
                continue;
            std::string args =
                stripped.substr(open + 1, close - open - 1);
            std::string index = lambdaIndexName(args);

            for (const char *op : ops) {
                std::size_t p = 0;
                while ((p = args.find(op, p)) != std::string::npos) {
                    std::size_t op_at = p;
                    p += 2;
                    // Statement: previous ';'/'{'/'}' to next ';'.
                    std::size_t sb = op_at;
                    while (sb > 0 && args[sb - 1] != ';' &&
                           args[sb - 1] != '{' && args[sb - 1] != '}')
                        --sb;
                    std::size_t se = args.find(';', op_at);
                    if (se == std::string::npos)
                        se = args.size();
                    std::string stmt = normalizeWs(
                        args.substr(sb, se - sb));
                    std::string lhs = trim(args.substr(sb, op_at - sb));
                    // A per-slot write indexed by the lambda's own
                    // index is deterministic: each slot has exactly
                    // one writer.
                    if (!index.empty() &&
                        lhs.size() >= index.size() + 2 &&
                        lhs.back() == ']' &&
                        lhs.compare(lhs.size() - index.size() - 2,
                                    index.size() + 2,
                                    "[" + index + "]") == 0)
                        continue;
                    int line = lineOf(stripped, open + 1 + op_at);
                    if (hasAnnotation(text, line,
                                      "seqlint:deterministic-reduce"))
                        continue;
                    std::string key =
                        rel + "#" + hashHex(fnv1a64(stmt));
                    if (allowed.allows(key))
                        continue;
                    out.push_back(
                        {"float-reduce", rel, line,
                         "accumulation '" + stmt + "' inside a "
                         "parallelFor lambda commits to the thread "
                         "schedule's summation order; write one slot "
                         "per index and fold the slots serially "
                         "afterwards, annotate the statement with "
                         "'seqlint:deterministic-reduce', or pin "
                         "key " + key +
                         " in float_reduce_allowlist.txt"});
                }
            }
        }
    }
    allowed.reportUnused("float-reduce", out);
    return true;
}

// ---------------------------------------------------------------
// Rule 7: fuzz-entry coverage of the snapshot codec.
// ---------------------------------------------------------------

/** One codec entry point that must be reachable from a harness. */
struct FuzzEntry {
    std::string name; ///< Function name ("decodeCounters", "u64").
    std::string rel;  ///< File that defines/declares it.
    int line = 0;
    bool method = false; ///< ByteReader method vs free decode*().
};

/**
 * Collect fuzzable entry points from a codec file: free functions
 * named decode* taking a ByteReader (or ByteReader::OnError), and
 * out-of-line ByteReader method definitions.
 */
void
collectFuzzEntries(const std::string &stripped, const std::string &rel,
                   std::map<std::string, FuzzEntry> &entries)
{
    for (std::size_t i = 0; i < stripped.size(); ++i) {
        if (!isIdentChar(stripped[i]))
            continue;
        std::size_t start = i;
        while (i < stripped.size() && isIdentChar(stripped[i]))
            ++i;
        std::string word = stripped.substr(start, i - start);

        if (word.rfind("decode", 0) == 0 && word.size() > 6) {
            std::size_t open = skipWs(stripped, i);
            if (open >= stripped.size() || stripped[open] != '(')
                continue;
            std::size_t close = matchParen(stripped, open);
            if (close == std::string::npos)
                continue;
            std::string params =
                stripped.substr(open + 1, close - open - 1);
            if (params.find("ByteReader") == std::string::npos)
                continue;
            entries.emplace(word,
                            FuzzEntry{word, rel,
                                      lineOf(stripped, start), false});
        } else if (word == "ByteReader") {
            std::size_t j = skipWs(stripped, i);
            if (j + 1 >= stripped.size() || stripped[j] != ':' ||
                stripped[j + 1] != ':')
                continue;
            j = skipWs(stripped, j + 2);
            std::size_t name_start = j;
            while (j < stripped.size() && isIdentChar(stripped[j]))
                ++j;
            std::string name =
                stripped.substr(name_start, j - name_start);
            std::size_t open = skipWs(stripped, j);
            if (name.empty() || name == "ByteReader" ||
                open >= stripped.size() || stripped[open] != '(')
                continue;
            entries.emplace("ByteReader::" + name,
                            FuzzEntry{name, rel,
                                      lineOf(stripped, name_start),
                                      true});
        }
    }
}

bool
ruleFuzzCoverage(const Options &opts, std::vector<Violation> &out)
{
    fs::path cfg = fs::path(opts.root) / "tools" / "seqpoint_lint";
    std::vector<std::string> codec_files, harnesses;
    if (!readListFile(cfg / "fuzz_codec_files.txt", codec_files)) {
        out.push_back({"config",
                       "tools/seqpoint_lint/fuzz_codec_files.txt", 0,
                       "cannot read fuzz codec-file registry"});
        return false;
    }
    if (!readListFile(cfg / "fuzz_harnesses.txt", harnesses)) {
        out.push_back({"config",
                       "tools/seqpoint_lint/fuzz_harnesses.txt", 0,
                       "cannot read fuzz harness registry"});
        return false;
    }
    Allowlist allowed(opts, "fuzz_coverage_allowlist.txt");

    std::map<std::string, FuzzEntry> entries;
    for (const std::string &rel : codec_files) {
        std::string text;
        if (!readFile(fs::path(opts.root) / rel, text)) {
            out.push_back({"config", rel, 0,
                           "fuzz_codec_files.txt names a missing "
                           "file"});
            return false;
        }
        collectFuzzEntries(stripComments(text, true), rel, entries);
    }

    std::string harness_all;
    for (const std::string &rel : harnesses) {
        std::string text;
        if (!readFile(fs::path(opts.root) / rel, text)) {
            out.push_back({"config", rel, 0,
                           "fuzz_harnesses.txt names a missing file"});
            return false;
        }
        harness_all += stripComments(text, true);
        harness_all += '\n';
    }

    for (const auto &[ident, e] : entries) {
        std::string key = e.rel + ":" +
            (e.method ? "ByteReader::" + e.name : e.name);
        bool covered = e.method
            ? (harness_all.find("." + e.name + "(") !=
                   std::string::npos ||
               harness_all.find("->" + e.name + "(") !=
                   std::string::npos)
            : containsWord(harness_all, e.name);
        if (covered || allowed.allows(key))
            continue;
        out.push_back(
            {"fuzz-coverage", e.rel, e.line,
             "codec entry point '" + ident + "' is not exercised by "
             "any harness in fuzz_harnesses.txt; extend a harness in "
             "tools/fuzz/, or pin '" + key +
             "' in fuzz_coverage_allowlist.txt"});
    }
    allowed.reportUnused("fuzz-coverage", out);
    return true;
}

} // namespace

bool
runLint(const Options &opts, std::vector<Violation> &out)
{
    bool ok = true;
    ok &= ruleCheckpoint(opts, out);
    ok &= ruleStatusDiscard(opts, out);
    ok &= ruleErrorCodes(opts, out);
    ok &= ruleUnorderedIter(opts, out);
    ok &= ruleNondeterminism(opts, out);
    ok &= ruleFloatReduce(opts, out);
    ok &= ruleFuzzCoverage(opts, out);
    return ok;
}

namespace {

/** JSON string escaping (quotes, backslashes, control bytes). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (c < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

} // namespace

std::string
violationsJson(const std::vector<Violation> &violations)
{
    std::ostringstream ss;
    ss << "[";
    for (std::size_t i = 0; i < violations.size(); ++i) {
        const Violation &v = violations[i];
        if (i)
            ss << ",";
        ss << "\n  {\"rule\": \"" << jsonEscape(v.rule)
           << "\", \"file\": \"" << jsonEscape(v.file)
           << "\", \"line\": " << v.line << ", \"message\": \""
           << jsonEscape(v.message) << "\"}";
    }
    ss << (violations.empty() ? "]\n" : "\n]\n");
    return ss.str();
}

bool
listLoops(const Options &opts, std::string &out)
{
    std::vector<std::string> paths;
    if (!readListFile(fs::path(opts.root) /
                      "tools/seqpoint_lint/checkpoint_paths.txt",
                      paths))
        return false;
    std::ostringstream ss;
    for (const std::string &rel : paths) {
        std::string src;
        if (!readFile(fs::path(opts.root) / rel, src))
            continue;
        for (const LoopSite &loop :
             findLoops(stripComments(src, true))) {
            ss << (loop.checked ? "checked   " : "UNCHECKED ")
               << loopKey(rel, loop) << "  line " << loop.line
               << "  " << loop.header << "\n";
        }
    }
    out = ss.str();
    return true;
}

} // namespace seqlint
