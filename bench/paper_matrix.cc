// The paper's Section 6 evaluation (Figures 9-16) plus four ablations as
// one table of rows. Each row runs kRepetitions times on an XMark
// document of its size; the program writes BENCH_paper.json to the
// working directory with, per row, the median and median absolute
// deviation of the wall time, every ExecCounters field, the relaxations
// used, the answer count and an answer digest.
//
// Usage (from the repo root):  ./build/bench/paper_matrix
// FLEXPATH_BENCH_FULL=1 uses the paper's 25-100 MB document sizes.
//
// Self-checks (exit 1 when one fails): the counters, answers and digest
// of a row are the same in every repetition, and rows that differ only
// in figure or thread count agree on them too (parallelism never
// changes results, DESIGN.md §10).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/json_util.h"
#include "exec/data_relaxation.h"
#include "exec/evaluator.h"
#include "exec/plan.h"
#include "exec/structural_join.h"
#include "exec/topk.h"
#include "ir/engine.h"
#include "query/xpath_parser.h"
#include "relax/schedule.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "xmark/generator.h"

namespace flexpath {
namespace {

constexpr int kRepetitions = 5;
constexpr const char* kOutPath = "BENCH_paper.json";

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  std::exit(1);
}

// The paper's queries over the XMark schema, plus the two the ablations
// use: Q2 with a contains() predicate, and Q2 with every axis
// generalized to // (the query-side equivalent of data relaxation).
constexpr std::pair<const char*, const char*> kQueries[] = {
    {"Q1", "//item[./description/parlist]"},
    {"Q2", "//item[./description/parlist and ./mailbox/mail/text]"},
    {"Q3",
     "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold "
     "and ./keyword and ./emph] and ./name and ./incategory]"},
    {"Q2ft",
     "//item[./description/parlist and ./mailbox/mail/text[.contains("
     "\"gold\" or \"silver\")]]"},
    {"Q2ad",
     "//item[.//description[.//parlist] and .//mailbox[.//mail[.//text]]]"},
};

enum class Op {
  kTopK,             ///< TopKProcessor::Run(query, algo, {k, scheme, threads}).
  kStackJoin,        ///< item//text through the stack-based structural join.
  kNestedLoopJoin,   ///< The same pairs through the nested-loop baseline.
  kSsoFlat,          ///< The fully encoded plan, SSO's flat evaluation.
  kHybridBuckets,    ///< The same plan, Hybrid's bucketed evaluation.
  kClosureBuild,     ///< Builds the data-relaxation shortcut closure.
  kClosureQuery,     ///< Answers the query over that closure.
  kGeneralizedPlan,  ///< Answers it as an exact interval-encoded plan.
};
constexpr const char* kOpNames[] = {
    "topk",     "stack_join",     "nested_loop_join", "sso_flat",
    "hybrid_buckets", "closure_build", "closure_query", "generalized_plan"};

struct Row {
  std::string figure;
  Op op = Op::kTopK;
  std::string query = "";  ///< A kQueries name; empty for join rows.
  Algorithm algo = Algorithm::kDpo;  ///< Top-K rows only.
  RankScheme scheme = RankScheme::kStructureFirst;  ///< Top-K rows only.
  size_t k = 0;
  double mb = 0;
  size_t threads = 1;
};

bool FullScale() {
  const char* env = std::getenv("FLEXPATH_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

// The table. Document sizes follow the paper at full scale; by default
// the size sweeps stop at 20 MB and Figure 16 runs at 20 MB.
std::vector<Row> Table() {
  const bool full = FullScale();
  const std::vector<double> sweep =
      full ? std::vector<double>{1, 5, 10, 25, 50, 100}
           : std::vector<double>{1, 2, 5, 10, 15, 20};
  const std::vector<size_t> ks = {50, 100, 200, 300, 400, 500, 600};
  constexpr Algorithm kDpo = Algorithm::kDpo;
  constexpr Algorithm kSso = Algorithm::kSso;
  constexpr Algorithm kHybrid = Algorithm::kHybrid;

  std::vector<Row> rows;
  // Every (query, MB, K, threads, algorithm) combination as a
  // structure-first top-K row.
  auto topk = [&](const char* figure, std::vector<const char*> queries,
                  std::vector<Algorithm> algos, std::vector<size_t> kvals,
                  std::vector<double> mbs, std::vector<size_t> threads) {
    for (const char* q : queries) {
      for (double mb : mbs) {
        for (size_t k : kvals) {
          for (size_t t : threads) {
            for (Algorithm a : algos) {
              rows.push_back({.figure = figure, .query = q, .algo = a,
                              .k = k, .mb = mb, .threads = t});
            }
          }
        }
      }
    }
  };
  topk("fig09", {"Q1", "Q2", "Q3"}, {kDpo, kSso}, {50}, {1}, {1});
  topk("fig10", {"Q3"}, {kDpo, kSso}, ks, {10}, {1});
  topk("fig11", {"Q2"}, {kDpo, kSso}, {12}, sweep, {1});
  topk("fig12", {"Q3"}, {kDpo, kSso}, {500}, sweep, {1});
  topk("fig13", {"Q1", "Q2", "Q3"}, {kSso, kHybrid}, {500}, {10}, {1});
  topk("fig14", {"Q3"}, {kSso, kHybrid}, {500}, sweep, {1});
  topk("fig15", {"Q3"}, {kSso, kHybrid}, ks, {10}, {1});
  topk("fig16", {"Q3"}, {kSso, kHybrid}, ks, {full ? 100.0 : 20.0}, {1});
  topk("threads", {"Q3"}, {kDpo, kSso, kHybrid}, {600}, {10}, {1, 4});

  for (RankScheme s : {RankScheme::kStructureFirst, RankScheme::kKeywordFirst,
                       RankScheme::kCombined}) {
    rows.push_back({.figure = "abl_ranking_schemes", .query = "Q2ft",
                    .algo = kHybrid, .scheme = s, .k = 100, .mb = 5});
  }
  for (size_t k : {50, 200, 600}) {
    for (Op op : {Op::kSsoFlat, Op::kHybridBuckets}) {
      rows.push_back(
          {.figure = "abl_bucketization", .op = op, .query = "Q3", .k = k,
           .mb = 10});
    }
  }
  // The quadratic baselines (nested loop, closure query) stop at 5 MB.
  for (double mb : {1.0, 5.0, 10.0}) {
    rows.push_back({.figure = "abl_join", .op = Op::kStackJoin, .mb = mb});
    rows.push_back(
        {.figure = "abl_data_relaxation", .op = Op::kClosureBuild, .mb = mb});
    rows.push_back({.figure = "abl_data_relaxation",
                    .op = Op::kGeneralizedPlan, .query = "Q2ad", .mb = mb});
    if (mb > 5) continue;
    rows.push_back({.figure = "abl_join", .op = Op::kNestedLoopJoin, .mb = mb});
    rows.push_back({.figure = "abl_data_relaxation", .op = Op::kClosureQuery,
                    .query = "Q2", .mb = mb});
  }
  return rows;
}

/// One fully indexed XMark document (seed 42) of `mb` megabytes.
struct Fixture {
  explicit Fixture(double size_mb) : mb(size_mb) {
    XMarkOptions opts;
    opts.target_bytes = static_cast<uint64_t>(mb * 1024.0 * 1024.0);
    opts.seed = 42;
    Result<Document> doc = GenerateXMark(opts, corpus.tags());
    if (!doc.ok()) Die("xmark generation: " + doc.status().ToString());
    corpus.Add(std::move(doc).value());
    index = std::make_unique<ElementIndex>(&corpus);
    stats = std::make_unique<DocumentStats>(&corpus);
    ir = std::make_unique<IrEngine>(&corpus);
    processor =
        std::make_unique<TopKProcessor>(index.get(), stats.get(), ir.get());
  }

  Tpq Parse(const std::string& name) {
    for (const auto& [query_name, xpath] : kQueries) {
      if (name != query_name) continue;
      Result<Tpq> q = ParseXPath(xpath, corpus.tags());
      if (!q.ok()) Die(name + ": " + q.status().ToString());
      return *std::move(q);
    }
    Die("unknown query " + name);
  }

  double mb;
  Corpus corpus;
  std::unique_ptr<ElementIndex> index;
  std::unique_ptr<DocumentStats> stats;
  std::unique_ptr<IrEngine> ir;
  std::unique_ptr<TopKProcessor> processor;
};

/// The exact, repeatable part of one run.
struct Outcome {
  ExecCounters counters;
  uint64_t relaxations = 0;
  uint64_t answers = 0;
  uint64_t digest = 0;

  std::vector<uint64_t> Exact() const {
    std::vector<uint64_t> v = {relaxations, answers, digest};
    counters.ForEach([&](const char*, uint64_t x) { v.push_back(x); });
    return v;
  }
};

/// Folds one node into an order-sensitive digest, as AnswersDigest does.
uint64_t Fold(uint64_t h, NodeRef n) {
  return HashCombine(HashCombine(h, static_cast<uint64_t>(n.doc)),
                     static_cast<uint64_t>(n.node));
}

Outcome Evaluated(const std::vector<RankedAnswer>& answers,
                  const ExecCounters& counters, size_t relaxations) {
  return {counters, relaxations, answers.size(), AnswersDigest(answers)};
}

/// Does the row's untimed set-up (parsing, schedules, plans, scan lists,
/// the closure a query row reads) and returns the timed run.
std::function<Outcome()> Prepare(const Row& row, Fixture& f) {
  switch (row.op) {
    case Op::kTopK: {
      TopKOptions opts;
      opts.k = row.k;
      opts.scheme = row.scheme;
      opts.num_threads = row.threads;
      return [&f, q = f.Parse(row.query), algo = row.algo, opts] {
        Result<TopKResult> r = f.processor->Run(q, algo, opts);
        if (!r.ok()) Die(r.status().ToString());
        return Evaluated(r->answers, r->counters, r->relaxations_used);
      };
    }
    case Op::kStackJoin:
    case Op::kNestedLoopJoin: {
      const TagDict& dict = std::as_const(f.corpus).tags();
      return [&f, items = *f.index->Scan(dict.Lookup("item")),
              texts = *f.index->Scan(dict.Lookup("text")),
              stack = row.op == Op::kStackJoin] {
        const std::vector<JoinPair> pairs =
            stack ? StructuralJoin(f.corpus, items, texts, false)
                  : NestedLoopJoin(f.corpus, items, texts, false);
        uint64_t h = HashCombine(0, static_cast<uint64_t>(pairs.size()));
        for (const JoinPair& p : pairs) h = Fold(Fold(h, p.anc), p.desc);
        return Outcome{{}, 0, pairs.size(), h};
      };
    }
    case Op::kSsoFlat:
    case Op::kHybridBuckets:
    case Op::kGeneralizedPlan: {
      // The encoded rows run the full relaxation chain, as keyword-first
      // would; the generalized row runs its query exactly.
      auto q = std::make_shared<Tpq>(f.Parse(row.query));
      auto pm = std::make_shared<PenaltyModel>(*q, f.stats.get(), f.ir.get(),
                                               Weights{});
      std::vector<ScheduleEntry> schedule;
      if (row.op != Op::kGeneralizedPlan) schedule = BuildSchedule(*q, *pm);
      Result<JoinPlan> plan =
          schedule.empty()
              ? JoinPlan::Build(*q, *q, {}, *pm, Weights{})
              : JoinPlan::Build(*q, schedule.back().relaxed,
                                schedule.back().dropped, *pm, Weights{});
      if (!plan.ok()) Die(plan.status().ToString());
      const EvalMode mode = row.op == Op::kSsoFlat ? EvalMode::kSsoFlat
                            : row.op == Op::kHybridBuckets
                                ? EvalMode::kHybridBuckets
                                : EvalMode::kExact;
      return [&f, q, pm, plan = std::make_shared<JoinPlan>(*std::move(plan)),
              mode, k = row.k, relaxations = schedule.size()] {
        PlanEvaluator evaluator(f.index.get(), f.ir.get());
        ExecCounters counters;
        const std::vector<RankedAnswer> answers = evaluator.Evaluate(
            *plan, mode, k, RankScheme::kStructureFirst, 0.0, &counters);
        return Evaluated(answers, counters, relaxations);
      };
    }
    case Op::kClosureBuild:
      return [&f] {
        DataRelaxationIndex closure(&f.corpus);
        return Outcome{{}, 0, closure.edge_count(),
                       HashCombine(closure.edge_count(),
                                   closure.ApproxBytes())};
      };
    case Op::kClosureQuery:
      return [&f, q = f.Parse(row.query),
              closure = std::make_shared<DataRelaxationIndex>(&f.corpus)] {
        const std::vector<NodeRef> nodes = closure->Evaluate(q, f.ir.get());
        uint64_t h = HashCombine(0, static_cast<uint64_t>(nodes.size()));
        for (NodeRef n : nodes) h = Fold(h, n);
        return Outcome{{}, 0, nodes.size(), h};
      };
  }
  Die("unknown op");
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Label(const Row& r) {
  std::string s = r.figure + " " + kOpNames[static_cast<int>(r.op)];
  if (!r.query.empty()) s += " " + r.query;
  if (r.op == Op::kTopK) {
    s += std::string(" ") + AlgorithmName(r.algo) + " " +
         RankSchemeName(r.scheme);
  }
  if (r.k > 0) s += " k=" + std::to_string(r.k);
  return s + " " + FormatDouble(r.mb) + "MB t=" + std::to_string(r.threads);
}

std::string RowJson(const Row& r, size_t corpus_nodes, double median_ms,
                    double mad_ms, const Outcome& o) {
  auto str = [](const char* key, const std::string& value) {
    return ",\"" + std::string(key) + "\":\"" + value + "\"";
  };
  auto num = [](const char* key, const std::string& value) {
    return ",\"" + std::string(key) + "\":" + value;
  };
  char digest[19];
  std::snprintf(digest, sizeof(digest), "0x%016llx",
                static_cast<unsigned long long>(o.digest));
  std::string s = "{\"figure\":\"" + r.figure + "\"";
  s += str("op", kOpNames[static_cast<int>(r.op)]) + str("query", r.query);
  if (r.op == Op::kTopK) {
    s += str("algorithm", AlgorithmName(r.algo)) +
         str("scheme", RankSchemeName(r.scheme));
  }
  s += num("k", std::to_string(r.k)) + num("mb", FormatDouble(r.mb)) +
       num("threads", std::to_string(r.threads)) +
       num("corpus_nodes", std::to_string(corpus_nodes));
  char times[80];
  std::snprintf(times, sizeof(times), "%.3f,\"wall_ms_mad\":%.3f", median_ms,
                mad_ms);
  s += num("wall_ms_median", times) +
       num("relaxations_used", std::to_string(o.relaxations)) +
       num("answers", std::to_string(o.answers)) + str("digest", digest) +
       ",\"counters\":{";
  const char* sep = "";
  o.counters.ForEach([&](const char* name, uint64_t value) {
    s += std::string(sep) + "\"" + name + "\":" + std::to_string(value);
    sep = ",";
  });
  return s + "}}";
}

int Run() {
  std::vector<Row> rows = Table();
  // One fixture at a time: rows run grouped by document size, and each
  // fixture is freed before the next size is generated.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.mb < b.mb; });

  int failures = 0;
  std::vector<std::pair<Row, Outcome>> done;
  std::string json = "{\"repetitions\":" + std::to_string(kRepetitions) +
                     ",\"full_scale\":" + (FullScale() ? "true" : "false") +
                     ",\"rows\":[\n";
  std::unique_ptr<Fixture> fixture;
  for (const Row& row : rows) {
    if (fixture == nullptr || fixture->mb != row.mb) {
      fixture.reset();
      fixture = std::make_unique<Fixture>(row.mb);
    }
    const std::function<Outcome()> run = Prepare(row, *fixture);
    Outcome first;
    std::vector<double> wall;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const Outcome o = run();
      wall.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
      if (rep == 0) {
        first = o;
      } else if (o.Exact() != first.Exact()) {
        std::fprintf(stderr, "FAIL: %s: repetition %d differs\n",
                     Label(row).c_str(), rep);
        ++failures;
      }
    }
    // Rows that differ only in figure or thread count run the same
    // computation, so they must agree exactly.
    for (const auto& [prior, outcome] : done) {
      if (prior.op == row.op && prior.query == row.query &&
          prior.algo == row.algo && prior.scheme == row.scheme &&
          prior.k == row.k && prior.mb == row.mb &&
          outcome.Exact() != first.Exact()) {
        std::fprintf(stderr, "FAIL: %s differs from %s\n", Label(row).c_str(),
                     Label(prior).c_str());
        ++failures;
      }
    }
    const double median = Median(wall);
    for (double& w : wall) w = std::fabs(w - median);
    const double mad = Median(wall);
    std::printf("%-56s %9.3f ms ± %7.3f  answers %llu\n", Label(row).c_str(),
                median, mad, static_cast<unsigned long long>(first.answers));
    std::fflush(stdout);
    if (!done.empty()) json += ",\n";
    json += RowJson(row, fixture->corpus.TotalNodes(), median, mad, first);
    done.emplace_back(row, first);
  }
  json += "\n]}\n";

  FILE* f = std::fopen(kOutPath, "w");
  if (f == nullptr || std::fputs(json.c_str(), f) < 0 ||
      std::fclose(f) != 0) {
    Die(std::string("cannot write ") + kOutPath);
  }
  std::printf("paper_matrix: %zu rows, %s; wrote %s\n", done.size(),
              failures == 0 ? "all self-checks passed" : "SELF-CHECKS FAILED",
              kOutPath);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace flexpath

int main(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr,
                 "usage: %s  (writes BENCH_paper.json to the working "
                 "directory; FLEXPATH_BENCH_FULL=1 for paper-scale sizes)\n",
                 argv[0]);
    return 2;
  }
  return flexpath::Run();
}
