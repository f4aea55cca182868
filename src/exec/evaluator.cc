#include "exec/evaluator.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "rank/scheme_registry.h"

namespace flexpath {

namespace {

/// Binding placeholder for a deleted (null) variable.
constexpr NodeRef kNullRef{UINT32_MAX, UINT32_MAX};

bool IsNull(NodeRef ref) { return ref == kNullRef; }

using Tuple = ExecTuple;

/// Exact dominance pruning: tuples that agree on every live binding have
/// identical futures (same remaining predicate outcomes, same keyword
/// chains), so only the lowest-penalty one can contribute a top answer.
/// This keeps independent pattern branches from multiplying the
/// intermediate result — without it, a query with b branches of m
/// matches each materializes m^b tuples per answer instead of b*m.
void DominancePrune(const std::vector<int>& live_steps,
                    std::vector<Tuple>* tuples) {
  if (tuples->size() < 2) return;
  struct KeyHash {
    const std::vector<Tuple>* tuples;
    const std::vector<int>* live;
    size_t operator()(size_t idx) const {
      size_t h = 0xcbf29ce484222325ULL;
      for (int s : *live) {
        const NodeRef r = (*tuples)[idx].bindings[static_cast<size_t>(s)];
        h ^= NodeRefHash()(r) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      return h;
    }
  };
  struct KeyEq {
    const std::vector<Tuple>* tuples;
    const std::vector<int>* live;
    bool operator()(size_t a, size_t b) const {
      for (int s : *live) {
        if (!((*tuples)[a].bindings[static_cast<size_t>(s)] ==
              (*tuples)[b].bindings[static_cast<size_t>(s)])) {
          return false;
        }
      }
      return true;
    }
  };
  std::unordered_map<size_t, size_t, KeyHash, KeyEq> best(
      16, KeyHash{tuples, &live_steps}, KeyEq{tuples, &live_steps});
  for (size_t i = 0; i < tuples->size(); ++i) {
    auto [it, inserted] = best.emplace(i, i);
    if (!inserted && (*tuples)[i].penalty < (*tuples)[it->second].penalty) {
      it->second = i;
    }
  }
  if (best.size() == tuples->size()) return;
  std::vector<Tuple> kept;
  kept.reserve(best.size());
  // Preserve document order by scanning in order and keeping winners.
  std::vector<bool> keep(tuples->size(), false);
  for (const auto& [key, idx] : best) keep[idx] = true;
  for (size_t i = 0; i < tuples->size(); ++i) {
    if (keep[i]) kept.push_back(std::move((*tuples)[i]));
  }
  *tuples = std::move(kept);
}

/// Runs `body(begin, end, out, ctr)` over [0, n) in contiguous chunks on
/// the pool, then concatenates per-chunk outputs and folds per-chunk
/// counters *in chunk-index order*. Because chunk boundaries are a pure
/// function of (n, grain, pool size) and concatenation order equals
/// iteration order, the merged output and counters are byte-identical to
/// one serial body(0, n) pass at any thread count.
///
/// `worker_cpu_ms` accumulates the thread-CPU time chunks burned on pool
/// workers (nothing when the split stays inline — that CPU is already the
/// calling thread's and the caller accounts for it).
template <typename Body>
void ChunkedExtend(ThreadPool* pool, size_t n, size_t grain,
                   std::vector<Tuple>* out, ExecCounters* ctr,
                   double* worker_cpu_ms, const Body& body) {
  const std::vector<std::pair<size_t, size_t>> ranges =
      ChunkRanges(pool, n, grain);
  if (ranges.empty()) return;
  if (ranges.size() == 1) {
    body(ranges[0].first, ranges[0].second, out, ctr);
    return;
  }
  std::vector<std::vector<Tuple>> outs(ranges.size());
  std::vector<ExecCounters> ctrs(ranges.size());
  TaskGroup group(pool);
  for (size_t c = 0; c < ranges.size(); ++c) {
    group.Run([&ranges, &outs, &ctrs, &body, c] {
      body(ranges[c].first, ranges[c].second, &outs[c], &ctrs[c]);
    });
  }
  group.Wait();
  *worker_cpu_ms += group.WorkerCpuMs();
  for (size_t c = 0; c < ranges.size(); ++c) {
    ctr->Add(ctrs[c]);
    out->reserve(out->size() + outs[c].size());
    std::move(outs[c].begin(), outs[c].end(), std::back_inserter(*out));
  }
}

}  // namespace

ResourceUsage UsageFromCounters(const ExecCounters& c) {
  ResourceUsage u;
  u.tuples_scanned = c.candidates_probed;
  u.tuples_produced = c.tuples_created;
  // An estimate, not an allocator count: each probe reads one Element
  // record; each materialized tuple copies its bindings vector (a handful
  // of NodeRefs) plus the tuple header. 64 bytes is the round figure for
  // the common 3-5 step plans; the point is comparability across queries,
  // not byte-exactness.
  u.bytes_touched =
      c.candidates_probed * sizeof(Element) + c.tuples_created * 64;
  u.rounds_executed = c.plan_passes;
  u.rounds_pruned = c.rounds_pruned_static;
  return u;
}

void ExecCounters::Add(const ExecCounters& other) {
  // Zip the two VisitFields traversals: both walk in declaration order,
  // so src[i] is the `other` field matching this object's i-th field.
  std::array<const uint64_t*, kFieldCount> src{};
  size_t filled = 0;
  VisitFields(other, [&](const char* /*name*/, const uint64_t& value,
                         Agg /*agg*/) {
    assert(filled < kFieldCount);
    src[filled++] = &value;
  });
  size_t applied = 0;
  VisitFields(*this, [&](const char* /*name*/, uint64_t& value, Agg agg) {
    assert(applied < filled);
    const uint64_t s = *src[applied++];
    value = agg == Agg::kMax ? std::max(value, s) : value + s;
  });
  // The differential half of the accounting lint: the static_assert in
  // the header pins the field count, this pins the visitor to it.
  assert(filled == kFieldCount && applied == kFieldCount &&
         "ExecCounters::VisitFields does not visit every field");
  (void)filled;
  (void)applied;
}

std::vector<RankedAnswer> PlanEvaluator::Evaluate(
    const JoinPlan& plan, EvalMode mode, size_t k, RankScheme scheme,
    double exact_penalty, ExecCounters* counters, TraceCollector* trace,
    ThreadPool* pool, ResourceUsage* usage) {
  // Work is tallied locally, then folded into the caller's counters and
  // the global registry — so per-call deltas are exact even when the
  // caller accumulates across plan passes.
  ExecCounters ctr;
  ++ctr.plan_passes;
  double worker_cpu_ms = 0.0;

  const Corpus& corpus = index_->corpus();
  const std::vector<PlanStep>& steps = plan.steps();
  assert(!steps.empty());

  // Resolve every contains expression the plan can mention (original
  // query expressions; promoted predicates reuse the same keys).
  std::unordered_map<std::string, std::shared_ptr<const ContainsResult>>
      contains_results;
  {
    Span resolve_span(trace, "resolve_contains");
    for (VarId v : plan.query().Vars()) {
      for (const FtExpr& e : plan.query().node(v).contains) {
        assert(ir_ != nullptr && "plan has contains but no IR engine");
        Span probe_span(trace, "ir_probe");
        std::shared_ptr<const ContainsResult> result = ir_->Evaluate(e);
        probe_span.Annotate("expr", e.ToString());
        probe_span.Annotate("satisfying",
                            static_cast<uint64_t>(result->satisfying().size()));
        contains_results.emplace(e.ToString(), result);
      }
    }
  }

  const bool use_optionals = mode != EvalMode::kExact;
  // Threshold pruning runs only when the scheme's certificate proves it
  // sound (FX301/FX302, DESIGN.md §16): the bound arithmetic below is in
  // ss units with an optimistic keyword bonus of prune_ks_factor x the
  // plan's maximum keyword mass (0 for structure-first, 1 for combined;
  // keyword-first carries no certificate license and never prunes).
  // Unknown scheme values — impossible through TopKProcessor, which
  // validates up front — fall back to the unpruned exact path.
  const SchemeCertificate* cert = SchemeRegistry::Global().Certificate(scheme);
  const bool prune =
      k > 0 && use_optionals && cert != nullptr && cert->threshold_pruning;
  const double ks_bonus =
      prune ? cert->prune_ks_factor * plan.max_keyword_score() : 0.0;
  const int dist_step = plan.distinguished_step();

  std::vector<Tuple> tuples;

  // Evaluates one predicate against a (partial) tuple extended by `cand`
  // at step `s`. Null operands fail the predicate.
  auto holds = [&](const Predicate& p, const std::vector<NodeRef>& bindings,
                   NodeRef cand, const std::map<VarId, int>& step_of) {
    auto bind_of = [&](VarId v) -> NodeRef {
      const int s = step_of.at(v);
      return s == static_cast<int>(bindings.size()) ? cand
                                                    : bindings[static_cast<size_t>(s)];
    };
    switch (p.kind) {
      case PredKind::kPc: {
        NodeRef a = bind_of(p.x);
        NodeRef d = bind_of(p.y);
        if (IsNull(a) || IsNull(d)) return false;
        return corpus.IsParent(a, d);
      }
      case PredKind::kAd: {
        NodeRef a = bind_of(p.x);
        NodeRef d = bind_of(p.y);
        if (IsNull(a) || IsNull(d)) return false;
        return corpus.IsAncestor(a, d);
      }
      case PredKind::kContains: {
        NodeRef x = bind_of(p.x);
        if (IsNull(x)) return false;
        auto it = contains_results.find(p.expr_key);
        if (it == contains_results.end()) return false;
        return it->second->Satisfies(x);
      }
      case PredKind::kTag:
        return true;  // implicit in the scan list
    }
    return false;
  };

  std::map<VarId, int> step_of;
  for (size_t i = 0; i < steps.size(); ++i) {
    step_of[steps[i].var] = static_cast<int>(i);
  }

  // Candidate filter shared by all steps: attribute predicates.
  auto attrs_ok = [&](const PlanStep& step, NodeRef ref) {
    for (const AttrPred& ap : step.attr_preds) {
      const std::string* val =
          corpus.doc(ref.doc).FindAttribute(ref.node, ap.attr);
      if (val == nullptr || !ap.Matches(*val)) return false;
    }
    return true;
  };

  // --- Step 0: seed tuples from the first scan list. -------------------
  {
    const PlanStep& step0 = steps[0];
    Span scan_span(trace, "scan_step");
    scan_span.Annotate("step", uint64_t{0});
    scan_span.Annotate("tag", corpus.tags().Name(step0.tag));
    // `sc` pins the list against LRU eviction of merged supertype scans
    // (a plain vector reference would dangle).
    auto seed = [&](const ScanHandle& sc, size_t begin, size_t end,
                    std::vector<Tuple>* out, ExecCounters* c) {
      for (size_t i = begin; i < end; ++i) {
        const NodeRef ref = sc[i];
        ++c->candidates_probed;
        if (!attrs_ok(step0, ref)) continue;
        Tuple t;
        t.bindings.push_back(ref);
        bool ok = true;
        for (const PlanPredicate& pp : step0.preds) {
          // Step-0 predicates are contains predicates on the root variable.
          const bool sat = holds(pp.pred, {}, ref, step_of);
          if (sat) continue;
          if (!pp.optional) {
            ok = false;
            break;
          }
          t.mask |= uint64_t{1} << pp.mask_bit;
          t.penalty += pp.penalty;
        }
        if (!ok) continue;
        ++c->tuples_created;
        out->push_back(std::move(t));
      }
    };
    const ScanHandle scan0 = index_->Scan(step0.tag);
    ChunkedExtend(pool, scan0.size(), /*grain=*/1024, &tuples, &ctr,
                  &worker_cpu_ms,
                  [&](size_t begin, size_t end, std::vector<Tuple>* out,
                      ExecCounters* c) { seed(scan0, begin, end, out, c); });
    DominancePrune(plan.LiveSteps(0), &tuples);
    scan_span.Annotate("candidates", ctr.candidates_probed);
    scan_span.Annotate("tuples_out", static_cast<uint64_t>(tuples.size()));
  }

  // Pruning-threshold helper: the k-th best guaranteed (lower-bound)
  // score among distinct answers. Returns -inf when fewer than k distinct
  // answers exist.
  auto prune_bound = [&](size_t s) {
    // The bound must come from distinct *answers*; until the
    // distinguished variable is bound we cannot count answers soundly,
    // so pruning only starts afterwards.
    if (tuples.empty() ||
        tuples[0].bindings.size() <= static_cast<size_t>(dist_step)) {
      return -std::numeric_limits<double>::infinity();
    }
    std::unordered_map<NodeRef, double, NodeRefHash> best_lower;
    const double remaining = plan.MaxRemainingPenalty(s);
    for (const Tuple& t : tuples) {
      const NodeRef answer = t.bindings[static_cast<size_t>(dist_step)];
      const double lower = plan.base_score() - t.penalty - remaining;
      auto [it, inserted] = best_lower.emplace(answer, lower);
      if (!inserted && lower > it->second) it->second = lower;
    }
    if (best_lower.size() < k) {
      return -std::numeric_limits<double>::infinity();
    }
    std::vector<double> lowers;
    lowers.reserve(best_lower.size());
    for (const auto& [node, lower] : best_lower) lowers.push_back(lower);
    std::nth_element(lowers.begin(), lowers.begin() + static_cast<long>(k - 1),
                     lowers.end(), std::greater<double>());
    return lowers[k - 1];
  };

  // --- Subsequent steps. ------------------------------------------------
  for (size_t s = 1; s < steps.size(); ++s) {
    const PlanStep& step = steps[s];

    Span step_span(trace, "join_step");
    step_span.Annotate("step", static_cast<uint64_t>(s));
    step_span.Annotate("tag", corpus.tags().Name(step.tag));
    step_span.Annotate("tuples_in", static_cast<uint64_t>(tuples.size()));
    const uint64_t candidates_before = ctr.candidates_probed;
    const uint64_t pruned_before = ctr.tuples_pruned;

    double bound = -std::numeric_limits<double>::infinity();
    if (prune) bound = prune_bound(s - 1);

    // Extends one tuple through this step into `out`, tallying work into
    // `c` — chunk-local when running under a pool fan-out, so the chunks
    // never contend and their counters fold back in chunk order.
    auto extend = [&](const ScanHandle& scan, const Tuple& t,
                      std::vector<Tuple>* out, ExecCounters* c) {
      const NodeRef anchor =
          t.bindings[static_cast<size_t>(step.anchor_step)];
      bool matched = false;
      // In exact mode a variable absent from the round's query needs no
      // binding at all — probing would be wasted work.
      const bool skip_probe = mode == EvalMode::kExact && step.nullable;
      if (!IsNull(anchor) && !skip_probe) {
        const Element& anchor_el = corpus.node(anchor);
        // Scan entries inside the anchor's interval form a contiguous
        // range beginning right after the anchor itself.
        auto it = std::upper_bound(scan.begin(), scan.end(), anchor);
        for (; it != scan.end(); ++it) {
          if (it->doc != anchor.doc) break;
          const Element& cand_el = corpus.node(*it);
          if (cand_el.start >= anchor_el.end) break;
          ++c->candidates_probed;
          if (step.anchor_parent_only &&
              cand_el.level != anchor_el.level + 1) {
            continue;
          }
          if (!attrs_ok(step, *it)) continue;
          Tuple next = t;
          bool ok = true;
          for (const PlanPredicate& pp : step.preds) {
            if (holds(pp.pred, t.bindings, *it, step_of)) continue;
            if (!pp.optional) {
              ok = false;
              break;
            }
            next.mask |= uint64_t{1} << pp.mask_bit;
            next.penalty += pp.penalty;
          }
          if (!ok) continue;
          matched = true;
          next.bindings.push_back(*it);
          if (prune &&
              plan.base_score() - next.penalty + ks_bonus < bound) {
            ++c->tuples_pruned;
            continue;
          }
          ++c->tuples_created;
          out->push_back(std::move(next));
        }
      }
      if (!matched && step.nullable) {
        Tuple next = t;
        next.bindings.push_back(kNullRef);
        for (const PlanPredicate& pp : step.preds) {
          // A nullable step carries only optional predicates, all of
          // which a null binding violates.
          next.mask |= uint64_t{1} << pp.mask_bit;
          next.penalty += pp.penalty;
        }
        if (prune && plan.base_score() - next.penalty + ks_bonus < bound) {
          ++c->tuples_pruned;
          return;
        }
        ++c->tuples_created;
        out->push_back(std::move(next));
      }
    };

    const ScanHandle scan = index_->Scan(step.tag);  // Pins the list.
    std::vector<Tuple> out;
    if (mode == EvalMode::kHybridBuckets) {
      // Group by violation mask; within a bucket tuples share their
      // score and stay in document order, so per-bucket processing
      // needs no sorting and whole buckets can be skipped against the
      // bound.
      Span bucket_span(trace, "bucket_merge");
      std::map<uint64_t, std::vector<const Tuple*>> buckets;
      for (const Tuple& t : tuples) buckets[t.mask].push_back(&t);
      ctr.buckets_peak =
          std::max<uint64_t>(ctr.buckets_peak, buckets.size());
      uint64_t buckets_skipped = 0;
      // Surviving buckets flatten (in mask order, document order
      // within) into one work list the pool chunks over; the flat
      // order equals the serial per-bucket iteration order, so the
      // chunked merge reproduces it exactly.
      std::vector<const Tuple*> work;
      work.reserve(tuples.size());
      for (const auto& [mask, members] : buckets) {
        const double upper = plan.base_score() - plan.PenaltyOfMask(mask) +
                             ks_bonus;
        if (prune && upper < bound) {
          ctr.tuples_pruned += members.size();
          ++buckets_skipped;
          continue;
        }
        work.insert(work.end(), members.begin(), members.end());
      }
      // The span covers grouping and bucket skipping only; the extend
      // below is join work and counts as the enclosing join_step's.
      bucket_span.Annotate("buckets",
                           static_cast<uint64_t>(buckets.size()));
      bucket_span.Annotate("buckets_skipped", buckets_skipped);
      bucket_span.Close();
      ChunkedExtend(pool, work.size(), /*grain=*/64, &out, &ctr,
                    &worker_cpu_ms,
                    [&](size_t begin, size_t end, std::vector<Tuple>* o,
                        ExecCounters* c) {
                      // Most tuples survive a step (match or
                      // null-bind), so one-output-per-input is the
                      // right first guess.
                      o->reserve(o->size() + (end - begin));
                      for (size_t i = begin; i < end; ++i) {
                        extend(scan, *work[i], o, c);
                      }
                    });
    } else {
      if (mode == EvalMode::kSsoFlat && prune && tuples.size() > k) {
        // SSO's tension: to apply the threshold it sorts the flat tuple
        // list by score, then must restore document order for the next
        // join. Both sorts are real costs we account for.
        Span sort_span(trace, "score_sort");
        sort_span.Annotate("items", static_cast<uint64_t>(tuples.size()));
        std::sort(tuples.begin(), tuples.end(),
                  [](const Tuple& a, const Tuple& b) {
                    return a.penalty < b.penalty;
                  });
        ++ctr.score_sorts;
        ctr.score_sorted_items += tuples.size();
        std::sort(tuples.begin(), tuples.end(),
                  [](const Tuple& a, const Tuple& b) {
                    return a.bindings < b.bindings;
                  });
        ++ctr.score_sorts;
        ctr.score_sorted_items += tuples.size();
      }
      ChunkedExtend(pool, tuples.size(), /*grain=*/64, &out, &ctr,
                    &worker_cpu_ms,
                    [&](size_t begin, size_t end, std::vector<Tuple>* o,
                        ExecCounters* c) {
                      o->reserve(o->size() + (end - begin));
                      for (size_t i = begin; i < end; ++i) {
                        extend(scan, tuples[i], o, c);
                      }
                    });
    }
    DominancePrune(plan.LiveSteps(s), &out);
    tuples = std::move(out);
    step_span.Annotate("candidates", ctr.candidates_probed - candidates_before);
    step_span.Annotate("pruned", ctr.tuples_pruned - pruned_before);
    step_span.Annotate("tuples_out", static_cast<uint64_t>(tuples.size()));
  }

  // --- Finalize: keyword scores, dedup, sort. ---------------------------
  Span finalize_span(trace, "finalize");
  finalize_span.Annotate("tuples", static_cast<uint64_t>(tuples.size()));
  // Dedup by distinguished node (best score kept, first-seen on exact
  // ties), then sort best-first.
  std::unordered_map<NodeRef, AnswerScore, NodeRefHash> best;
  for (const Tuple& t : tuples) {
    AnswerScore score;
    score.ss = mode == EvalMode::kExact
                   ? plan.base_score() - exact_penalty
                   : plan.base_score() - t.penalty;
    score.ks = 0.0;
    for (const JoinPlan::ContainsChain& chain : plan.contains_chains()) {
      auto res_it = contains_results.find(chain.expr.ToString());
      if (res_it == contains_results.end()) continue;
      const ContainsResult* result = res_it->second.get();
      for (int cs : chain.chain_steps) {
        const NodeRef b = t.bindings[static_cast<size_t>(cs)];
        if (IsNull(b)) continue;
        if (result->Satisfies(b)) {
          score.ks += chain.weight * result->BestScoreWithin(b);
          break;
        }
      }
    }
    const NodeRef answer = t.bindings[static_cast<size_t>(dist_step)];
    assert(!IsNull(answer) && "distinguished variable must be bound");
    auto [it, inserted] = best.emplace(answer, score);
    if (!inserted && RanksBefore(score, it->second, scheme)) {
      it->second = score;
    }
  }
  std::vector<RankedAnswer> answers;
  answers.reserve(best.size());
  for (const auto& [node, score] : best) {
    answers.push_back(RankedAnswer{node, score});
  }
  std::sort(answers.begin(), answers.end(),
            [&](const RankedAnswer& a, const RankedAnswer& b) {
              if (RanksBefore(a.score, b.score, scheme)) return true;
              if (RanksBefore(b.score, a.score, scheme)) return false;
              return a.node < b.node;  // deterministic tie-break
            });
  finalize_span.Annotate("answers", static_cast<uint64_t>(answers.size()));
  finalize_span.Close();

  if (counters != nullptr) counters->Add(ctr);
  if (usage != nullptr) {
    ResourceUsage u = UsageFromCounters(ctr);
    u.cpu_ms = worker_cpu_ms;
    usage->Add(u);
  }
  // Mirror the work into the process-wide registry (pointers cached once;
  // one relaxed add per field per plan pass).
  static MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* m_passes = reg.counter("exec.plan_passes");
  static Counter* m_probed = reg.counter("exec.candidates_probed");
  static Counter* m_created = reg.counter("exec.tuples_created");
  static Counter* m_pruned = reg.counter("exec.tuples_pruned");
  static Counter* m_sorts = reg.counter("exec.score_sorts");
  static Counter* m_sorted = reg.counter("exec.score_sorted_items");
  static Gauge* m_buckets = reg.gauge("exec.buckets_peak");
  m_passes->Inc(ctr.plan_passes);
  m_probed->Inc(ctr.candidates_probed);
  m_created->Inc(ctr.tuples_created);
  m_pruned->Inc(ctr.tuples_pruned);
  m_sorts->Inc(ctr.score_sorts);
  m_sorted->Inc(ctr.score_sorted_items);
  m_buckets->Max(static_cast<int64_t>(ctr.buckets_peak));
  return answers;
}

}  // namespace flexpath
