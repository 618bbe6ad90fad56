// Clang Thread Safety Analysis annotation macros.
//
// These wrap the attributes documented in
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html so the lock
// protocol of the concurrent pieces (QueryBroker, LiveStore,
// ThreadPool, RunContext) is machine-checked at compile time under
// `clang++ -Wthread-safety` — for every interleaving, not just the ones
// a sanitizer happens to execute. On compilers without the attributes
// (GCC, MSVC) every macro expands to nothing, so annotated code builds
// identically everywhere.
//
// Conventions in this repo:
//   * lock-protected members carry SEPDC_GUARDED_BY(mu_);
//   * methods that take a lock internally carry SEPDC_EXCLUDES(mu_)
//     (calling them with the lock held would self-deadlock);
//   * methods that expect the caller to hold the lock carry
//     SEPDC_REQUIRES(mu_);
//   * the annotated wrappers live in support/mutex.hpp — raw std::mutex
//     outside that file is rejected by tools/lint_sepdc.py.
#pragma once

#if defined(__clang__)
#define SEPDC_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SEPDC_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

// On a class: this type is a capability (a lock) named `x` in diagnostics.
#define SEPDC_CAPABILITY(x) SEPDC_THREAD_ANNOTATION(capability(x))

// On a class: RAII object that acquires in the ctor, releases in the dtor.
#define SEPDC_SCOPED_CAPABILITY SEPDC_THREAD_ANNOTATION(scoped_lockable)

// On a member: reads and writes require holding the given capability.
#define SEPDC_GUARDED_BY(x) SEPDC_THREAD_ANNOTATION(guarded_by(x))

// On a pointer member: the *pointee* is protected by the capability.
#define SEPDC_PT_GUARDED_BY(x) SEPDC_THREAD_ANNOTATION(pt_guarded_by(x))

// On a function: the caller must hold the capabilities on entry (and
// still holds them on exit).
#define SEPDC_REQUIRES(...) \
  SEPDC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

// On a function: acquires the capabilities; they are held on return.
#define SEPDC_ACQUIRE(...) \
  SEPDC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

// On a function: releases the capabilities held on entry.
#define SEPDC_RELEASE(...) \
  SEPDC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// On a function: acquires the capability iff the return value equals the
// first argument.
#define SEPDC_TRY_ACQUIRE(...) \
  SEPDC_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// On a function: the caller must NOT hold the capabilities (the function
// acquires them itself; holding them would self-deadlock).
#define SEPDC_EXCLUDES(...) SEPDC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// On a member mutex: documents (and checks) lock-ordering constraints.
#define SEPDC_ACQUIRED_BEFORE(...) \
  SEPDC_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define SEPDC_ACQUIRED_AFTER(...) \
  SEPDC_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// On a function returning a reference to a guarded member: the result is
// protected by the given capability.
#define SEPDC_RETURN_CAPABILITY(x) SEPDC_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch for code the analysis cannot model (e.g. handing a locked
// mutex to std::condition_variable). Use sparingly and say why.
#define SEPDC_NO_THREAD_SAFETY_ANALYSIS \
  SEPDC_THREAD_ANNOTATION(no_thread_safety_analysis)

// Marker for tools/semalyze.py (check sepdc-guarded-by-completeness): a
// deliberately unguarded member of a mutex-owning class. Clang's
// -Wthread-safety only checks members that carry an annotation, so a
// member with none escapes silently; the analyzer closes that gap by
// requiring every mutable member of a class that owns a sepdc::Mutex to
// be SEPDC_GUARDED_BY, atomic, const, or carry this marker with a
// written justification (e.g. "written once before any thread exists").
// Expands to nothing on every compiler — it is documentation the
// analyzer can see, not an attribute.
#define SEPDC_UNGUARDED_OK(reason)
