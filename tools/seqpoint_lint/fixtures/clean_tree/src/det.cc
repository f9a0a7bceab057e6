// Fixture: rules 4 (unordered-iter), 5 (nondeterminism) and
// 6 (float-reduce) satisfied via annotation, pin, allowlist and the
// per-slot exemption.
#include <unordered_map>

std::unordered_map<int, int> table;
std::unordered_map<int, int> pinnedTable;

int
exportThing()
{
    int sum = 0;
    // Consumers sort this output. seqlint:canonical-order
    for (const auto &[k, v] : table)
        sum += v;
    // Pinned iteration (see determinism_allowlist.txt).
    for (const auto &[k, v] : pinnedTable)
        sum += v;
    return sum;
}

long
stamp()
{
    // Allowlisted wall-clock read (see nondeterminism_allowlist.txt).
    return std::chrono::steady_clock::now().time_since_epoch().count();
}

void
reduces(int n)
{
    double slots[8] = {};
    parallelFor(n, [&](std::size_t i) {
        slots[i] = 1.0;
        slots[i] += 1.0; // per-slot: one writer per index
    });
    double sum = 0.0;
    parallelFor(n, [&](std::size_t i) {
        // Guarded reduction. seqlint:deterministic-reduce
        sum += static_cast<double>(i);
    });
    double pinned = 0.0;
    parallelFor(n, [&](std::size_t i) {
        pinned += 2.0; // pinned in float_reduce_allowlist.txt
    });
    (void)sum;
    (void)pinned;
}
