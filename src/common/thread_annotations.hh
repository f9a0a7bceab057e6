/**
 * @file
 * Portable shims for Clang's Thread Safety Analysis attributes
 * (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
 *
 * The concurrent core (ThreadPool, BoundedQueue, SnapshotRegistry,
 * QueryService, FaultInjector, KernelTimingCache, Autotuner, a Model's
 * program memo and resolved-op table list, each nn::ResolvedOps
 * table's chunk directory, and the cancellation layer) annotates
 * which mutex guards which member and which functions
 * require/acquire/release which locks. Under Clang
 * with -Wthread-safety (CMake option SEQPOINT_THREAD_SAFETY) these
 * expand to the real attributes and every lock-discipline violation
 * is a compile error; under any other compiler they expand to
 * nothing, so the annotations are free documentation.
 *
 * Only the SEQ_-prefixed macros below are part of the repo's
 * vocabulary; use them (not raw __attribute__ spellings) so the
 * non-Clang build stays clean.
 */

#ifndef SEQPOINT_COMMON_THREAD_ANNOTATIONS_HH
#define SEQPOINT_COMMON_THREAD_ANNOTATIONS_HH

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by) && __has_attribute(capability)
#define SEQ_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif

#ifndef SEQ_THREAD_ANNOTATION
#define SEQ_THREAD_ANNOTATION(x) // expands to nothing off-Clang
#endif

/** Marks a type as a lockable capability (e.g. a mutex wrapper). */
#define SEQ_CAPABILITY(x) SEQ_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type that acquires in its ctor, releases in dtor. */
#define SEQ_SCOPED_CAPABILITY SEQ_THREAD_ANNOTATION(scoped_lockable)

/** Member is readable/writable only while holding the given mutex. */
#define SEQ_GUARDED_BY(x) SEQ_THREAD_ANNOTATION(guarded_by(x))

/** Pointee (not the pointer) is guarded by the given mutex. */
#define SEQ_PT_GUARDED_BY(x) SEQ_THREAD_ANNOTATION(pt_guarded_by(x))

/** Caller must hold the listed mutexes (exclusively). */
#define SEQ_REQUIRES(...) \
    SEQ_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the listed mutexes and returns holding them. */
#define SEQ_ACQUIRE(...) \
    SEQ_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the listed mutexes it was called holding. */
#define SEQ_RELEASE(...) \
    SEQ_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires the mutex iff it returns the given value. */
#define SEQ_TRY_ACQUIRE(...) \
    SEQ_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Caller must NOT hold the listed mutexes (deadlock documentation). */
#define SEQ_EXCLUDES(...) \
    SEQ_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Lock-ordering declaration: this mutex is acquired before `...`. */
#define SEQ_ACQUIRED_BEFORE(...) \
    SEQ_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/** Lock-ordering declaration: this mutex is acquired after `...`. */
#define SEQ_ACQUIRED_AFTER(...) \
    SEQ_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/** Function returns a reference to the given capability. */
#define SEQ_RETURN_CAPABILITY(x) \
    SEQ_THREAD_ANNOTATION(lock_returned(x))

/**
 * Escape hatch: disables the analysis for one function. Every use
 * must carry a comment justifying why the discipline cannot be
 * expressed (the seqpoint_lint CI pass rejects undocumented ones, and
 * the repo target is zero uses outside the Mutex wrapper itself).
 */
#define SEQ_NO_THREAD_SAFETY_ANALYSIS \
    SEQ_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif // SEQPOINT_COMMON_THREAD_ANNOTATIONS_HH
