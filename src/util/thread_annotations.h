// Thread-safety annotation vocabulary.
//
// The fleet simulator's correctness rests on shard code and merge code
// running in their own roles: shard workers never call merge-side code, and
// merges run only after every shard has joined.  This header turns that into
// a *declared* contract: under clang the macros expand to the
// -Wthread-safety attribute family, so `-DHIB_THREAD_SAFETY=ON` (which adds
// -Wthread-safety -Wthread-safety-beta) makes the compiler enforce it.
// Everywhere else they expand to nothing.
//
// Vocabulary:
//
//   HIB_CAPABILITY(name)      Declares a capability class (a "role" such as
//                             being inside a shard worker), checkable by
//                             clang's capability analysis.
//   HIB_THREAD_CONTEXT(ctx)   The function may only run while `ctx` is held
//                             (requires_capability).  Callers must hold the
//                             context or establish it with a scope below.
//   HIB_EXCLUDES_CONTEXT(ctx) The function must NOT run while `ctx` is held
//                             (locks_excluded) — e.g. spec-order merges that
//                             must happen after every shard has joined.
//   HIB_GUARDED_BY(ctx)       Member may only be touched while `ctx` is held.
//   HIB_ACQUIRE_CONTEXT(ctx) / HIB_RELEASE_CONTEXT(ctx)
//                             Functions that enter / leave a context.
//   HIB_SCOPED_CONTEXT        RAII class that holds a context for its scope.
//
// The capability tokens live at the bottom of this header: `kShardContext`
// is held exactly while a worker thread executes one shard's universe
// (src/harness/parallel.cc acquires it via ShardContextScope).
#ifndef HIBERNATOR_SRC_UTIL_THREAD_ANNOTATIONS_H_
#define HIBERNATOR_SRC_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define HIB_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define HIB_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op outside clang
#endif

#define HIB_CAPABILITY(name) HIB_THREAD_ANNOTATION_ATTRIBUTE_(capability(name))
#define HIB_THREAD_CONTEXT(...) \
  HIB_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))
#define HIB_EXCLUDES_CONTEXT(...) \
  HIB_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))
#define HIB_GUARDED_BY(x) HIB_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))
#define HIB_ACQUIRE_CONTEXT(...) \
  HIB_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))
#define HIB_RELEASE_CONTEXT(...) \
  HIB_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))
#define HIB_SCOPED_CONTEXT HIB_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)
#define HIB_NO_THREAD_SAFETY_ANALYSIS \
  HIB_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

namespace hib {

// A thread context is a capability with no lock inside: holding it means
// "this code is running in that role", nothing more.  Acquire/Release exist
// so ShardContextScope can tell the analysis when a worker enters a shard.
class HIB_CAPABILITY("context") ThreadContext {
 public:
  constexpr ThreadContext() = default;
  ThreadContext(const ThreadContext&) = delete;
  ThreadContext& operator=(const ThreadContext&) = delete;
  void Acquire() const HIB_ACQUIRE_CONTEXT() {}
  void Release() const HIB_RELEASE_CONTEXT() {}
};

// Held exactly while a worker executes one shard's deterministic universe
// (one RunExperiment call inside RunAll / FleetSimulator::Run).  Functions
// annotated HIB_THREAD_CONTEXT(kShardContext) may only be called from shard
// workers; HIB_EXCLUDES_CONTEXT(kShardContext) marks merge-side code that
// must wait for every shard to join.
inline constexpr ThreadContext kShardContext;

// RAII context holder for thread entry points.
class HIB_SCOPED_CONTEXT ThreadContextScope {
 public:
  explicit ThreadContextScope(const ThreadContext& ctx) HIB_ACQUIRE_CONTEXT(ctx)
      : ctx_(ctx) {
    ctx_.Acquire();
  }
  ~ThreadContextScope() HIB_RELEASE_CONTEXT() { ctx_.Release(); }
  ThreadContextScope(const ThreadContextScope&) = delete;
  ThreadContextScope& operator=(const ThreadContextScope&) = delete;

 private:
  const ThreadContext& ctx_;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_UTIL_THREAD_ANNOTATIONS_H_
