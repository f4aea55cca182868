#include "exec/result_cache.h"

#include "common/hash.h"

namespace flexpath {

size_t CachedStepResult::ApproxBytes(const std::vector<ExecTuple>& tuples) {
  size_t bytes = sizeof(CachedStepResult) + tuples.size() * sizeof(ExecTuple);
  for (const ExecTuple& t : tuples) {
    bytes += t.bindings.capacity() * sizeof(NodeRef);
  }
  return bytes;
}

uint64_t StepCacheKey(uint64_t step_fingerprint, uint64_t corpus_generation) {
  return HashCombine(step_fingerprint, corpus_generation);
}

std::shared_ptr<const CachedStepResult> ResultCache::Get(uint64_t key) {
  MutexLock lock(mu_);
  return lru_.Get(key);
}

void ResultCache::Put(uint64_t key,
                      std::shared_ptr<const CachedStepResult> entry) {
  const size_t bytes = entry->bytes;
  MutexLock lock(mu_);
  lru_.Put(key, std::move(entry), bytes);
}

}  // namespace flexpath
