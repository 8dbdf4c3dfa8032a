// Clang thread-safety-analysis attribute macros (no-ops on GCC and MSVC).
// The simulator core is single-threaded: one event loop owns the harvest
// pools, container pools and scheduler state, so they carry no lock. State
// shared across threads (the log sink) is guarded by util::Mutex, and these
// macros let `clang -Wthread-safety` prove that lock discipline at compile
// time instead of trusting comments: fields carry LIBRA_GUARDED_BY(mu_),
// helpers that expect the lock held carry LIBRA_REQUIRES(mu_), and any
// drift (a new call site touching guarded state without the lock) breaks
// the LIBRA_ANALYZE=ON build.
//
// Modeled on abseil's base/thread_annotations.h; see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#if defined(__clang__)
#define LIBRA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define LIBRA_THREAD_ANNOTATION(x)  // no-op: GCC has no -Wthread-safety
#endif

/// Declares a type as a lockable capability (see util::Mutex).
#define LIBRA_CAPABILITY(x) LIBRA_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires a capability for its lifetime.
#define LIBRA_SCOPED_CAPABILITY LIBRA_THREAD_ANNOTATION(scoped_lockable)

/// The field may only be read or written while holding `x`.
#define LIBRA_GUARDED_BY(x) LIBRA_THREAD_ANNOTATION(guarded_by(x))

/// The pointee may only be accessed while holding `x`.
#define LIBRA_PT_GUARDED_BY(x) LIBRA_THREAD_ANNOTATION(pt_guarded_by(x))

/// The function may only be called while holding `...` (for helpers split
/// out of public entry points that take the lock).
#define LIBRA_REQUIRES(...) \
  LIBRA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// The function must NOT be called while holding `...` (public entry points
/// that take the lock themselves; catches self-deadlock).
#define LIBRA_EXCLUDES(...) \
  LIBRA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// The function acquires the capability and holds it on return.
#define LIBRA_ACQUIRE(...) \
  LIBRA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// The function releases a held capability.
#define LIBRA_RELEASE(...) \
  LIBRA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns the given value.
#define LIBRA_TRY_ACQUIRE(...) \
  LIBRA_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// The function returns a reference to the capability guarding it.
#define LIBRA_RETURN_CAPABILITY(x) LIBRA_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code the analysis cannot model (e.g. moving a
/// mutex-protected object while holding the source's lock).
#define LIBRA_NO_THREAD_SAFETY_ANALYSIS \
  LIBRA_THREAD_ANNOTATION(no_thread_safety_analysis)
