// thread_annotations.hpp — Clang Thread Safety Analysis attribute macros.
//
// The engine's reproducibility contract (byte-identical CSVs across
// --threads values) rests on data-race freedom in the shared surfaces:
// core::Registry, engine::CampaignCache, the Runner's serialized onJobDone.
// These macros let the compiler *prove* every access to a guarded member
// happens under its lock: build with Clang and -Wthread-safety (the
// XGFT_THREAD_SAFETY CMake option turns it into -Werror=thread-safety in
// CI) and deleting a lock acquisition becomes a compile error, not a
// latent race for TSan to hopefully catch.
//
// Off Clang every macro expands to nothing, so GCC builds are unaffected.
// Annotate new shared state like this (see DESIGN.md §11):
//
//   class Cache {
//     core::Mutex mu_;
//     std::map<K, V> entries_ XGFT_GUARDED_BY(mu_);
//   public:
//     V get(const K& k) {
//       core::LockGuard lock(mu_);   // scoped: analysis sees acquire+release
//       return entries_[k];
//     }
//   };
//
// Naming and semantics follow the canonical mutex.h from the Clang docs
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
#pragma once

#if defined(__clang__)
#define XGFT_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define XGFT_THREAD_ANNOTATION__(x)  // no-op off Clang
#endif

/// Marks a class as a lockable capability ("mutex", "shared_mutex").
#define XGFT_CAPABILITY(x) XGFT_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define XGFT_SCOPED_CAPABILITY XGFT_THREAD_ANNOTATION__(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define XGFT_GUARDED_BY(x) XGFT_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the given capability.
#define XGFT_PT_GUARDED_BY(x) XGFT_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function requires the capability held exclusively (not acquired by it).
#define XGFT_REQUIRES(...) \
  XGFT_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function requires the capability held at least shared.
#define XGFT_REQUIRES_SHARED(...) \
  XGFT_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability exclusively and does not release it.
#define XGFT_ACQUIRE(...) \
  XGFT_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function acquires the capability shared.
#define XGFT_ACQUIRE_SHARED(...) \
  XGFT_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (exclusive or shared).
#define XGFT_RELEASE(...) \
  XGFT_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function releases a shared hold on the capability.
#define XGFT_RELEASE_SHARED(...) \
  XGFT_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// Function attempts the acquisition; first argument is the success value.
#define XGFT_TRY_ACQUIRE(...) \
  XGFT_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (non-reentrant lock deadlock guard).
#define XGFT_EXCLUDES(...) XGFT_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define XGFT_RETURN_CAPABILITY(x) XGFT_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: turns the analysis off for one function.  Every use needs
/// a comment explaining why the access is safe (DESIGN.md §11 policy).
#define XGFT_NO_THREAD_SAFETY_ANALYSIS \
  XGFT_THREAD_ANNOTATION__(no_thread_safety_analysis)
