#ifndef FLEXPATH_EXEC_RESULT_CACHE_H_
#define FLEXPATH_EXEC_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/lru_cache.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "xml/corpus.h"

namespace flexpath {

/// One intermediate tuple of the join pipeline: the bindings of the plan
/// steps evaluated so far, plus the violation mask / penalty accumulated
/// from optional predicates. Lives here (rather than inside evaluator.cc)
/// so cached step results can share it.
struct ExecTuple {
  std::vector<NodeRef> bindings;
  uint64_t mask = 0;     ///< Violated optional predicates.
  double penalty = 0.0;  ///< Σ π over the mask.
};

/// The cached output of one plan step: the tuple set alive after the
/// step's extend + dominance prune — the exact state the evaluator's
/// pipeline carries between steps, so execution can resume from any
/// cached prefix as if the prefix had just been computed.
struct CachedStepResult {
  std::vector<ExecTuple> tuples;
  size_t bytes = 0;  ///< Approximate footprint, the LRU charge.

  static size_t ApproxBytes(const std::vector<ExecTuple>& tuples);
};

/// Builds the cache key of one step's output. Only unpruned kExact step
/// outputs are cached, and those are pure functions of the plan prefix
/// (the step fingerprint) and the corpus it ran over (the generation):
/// no threshold bound, and therefore no k, scheme or plan suffix, enters
/// them (DESIGN.md §12).
uint64_t StepCacheKey(uint64_t step_fingerprint, uint64_t corpus_generation);

/// The sub-plan result cache of one DPO run (DESIGN.md §12): a
/// thread-safe, byte-budgeted LRU from step cache keys to immutable step
/// results, letting round i+1 resume from round i's shared plan prefix.
/// Thread-safe because speculative DPO waves evaluate several rounds at
/// once; entries are shared-const, so a reader keeps its result alive
/// across a concurrent eviction.
class ResultCache {
 public:
  /// Byte budget of one run's cache; it dies with the run.
  static constexpr size_t kBudgetBytes = size_t{64} << 20;

  ResultCache() : lru_(kBudgetBytes) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the entry for `key` (marking it most-recently-used), or null.
  std::shared_ptr<const CachedStepResult> Get(uint64_t key);

  /// Inserts `entry`, charged at entry->bytes, evicting LRU entries to
  /// stay within budget. Oversized entries are dropped silently.
  void Put(uint64_t key, std::shared_ptr<const CachedStepResult> entry);

 private:
  Mutex mu_;
  LruByteCache<uint64_t, CachedStepResult> lru_ GUARDED_BY(mu_);
};

/// Cache context for one kExact PlanEvaluator::Evaluate call of a DPO
/// round; a null context disables caching (the default — the cached and
/// uncached paths produce byte-identical answers, penalties and
/// relaxation metadata, enforced by tests/result_cache_test.cc).
struct EvalCacheContext {
  ResultCache* cache = nullptr;  ///< Required: the run's cache.
  uint64_t corpus_generation = 0;
  /// Answers already produced by earlier rounds. Tuples whose
  /// distinguished binding is in this set are dropped as soon as the
  /// distinguished variable binds — the round evaluates only its delta
  /// (the paper's "reusing prior results", Section 5.1). Sound because
  /// the DPO merge deduplicates answers by first (= best-scored) round
  /// anyway, the distinguished step is always in every dominance live set
  /// (so exclusion removes whole dominance groups and never changes
  /// surviving ones), and the set only grows within a run.
  const std::unordered_set<NodeRef, NodeRefHash>* exclude = nullptr;
};

}  // namespace flexpath

#endif  // FLEXPATH_EXEC_RESULT_CACHE_H_
