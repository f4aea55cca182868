#include "common/trace.h"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "exec/topk.h"
#include "ir/engine.h"
#include "query/xpath_parser.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "tests/test_util.h"

namespace flexpath {
namespace {

TEST(TraceCollectorTest, NestedSpansFormATree) {
  TraceCollector tc("query");
  {
    Span outer(&tc, "outer");
    EXPECT_TRUE(outer.active());
    {
      Span inner(&tc, "inner");
      inner.Annotate("round", uint64_t{3});
    }
  }
  QueryTrace trace = tc.Finish();
  EXPECT_EQ(trace.root.name, "query");
  ASSERT_EQ(trace.root.children.size(), 1u);
  const TraceSpan& outer = *trace.root.children[0];
  EXPECT_EQ(outer.name, "outer");
  ASSERT_EQ(outer.children.size(), 1u);
  EXPECT_EQ(outer.children[0]->name, "inner");
  EXPECT_DOUBLE_EQ(outer.children[0]->NumberOr0("round"), 3.0);
}

TEST(TraceCollectorTest, SiblingsAfterEarlyClose) {
  TraceCollector tc;
  {
    Span a(&tc, "a");
    a.Close();
    a.Close();  // Idempotent.
    EXPECT_FALSE(a.active());
    Span b(&tc, "b");
  }
  QueryTrace trace = tc.Finish();
  ASSERT_EQ(trace.root.children.size(), 2u);
  EXPECT_EQ(trace.root.children[0]->name, "a");
  EXPECT_EQ(trace.root.children[1]->name, "b");
}

TEST(TraceCollectorTest, TimesAreNonNegativeAndNested) {
  TraceCollector tc;
  {
    Span child(&tc, "child");
  }
  QueryTrace trace = tc.Finish();
  const TraceSpan& child = *trace.root.children[0];
  EXPECT_GE(child.start_ms, trace.root.start_ms);
  EXPECT_GE(child.elapsed_ms, 0.0);
  EXPECT_GE(trace.root.elapsed_ms, child.elapsed_ms);
}

TEST(TraceSpanTest, AnnotationLookup) {
  TraceSpan span;
  span.Annotate("label", std::string("hello"));
  span.Annotate("n", 2.5);
  EXPECT_EQ(span.TextOr("label"), "hello");
  EXPECT_DOUBLE_EQ(span.NumberOr0("n"), 2.5);
  EXPECT_DOUBLE_EQ(span.NumberOr0("label"), 0.0);  // Text, not numeric.
  EXPECT_EQ(span.TextOr("n"), "");                 // Numeric, not text.
  EXPECT_DOUBLE_EQ(span.NumberOr0("missing"), 0.0);
  EXPECT_EQ(span.TextOr("missing"), "");
}

TEST(TraceSpanTest, ChildrenNamedAndFind) {
  TraceCollector tc;
  {
    Span r1(&tc, "round");
    {
      Span nested(&tc, "plan_build");
    }
  }
  {
    Span r2(&tc, "round");
  }
  QueryTrace trace = tc.Finish();
  EXPECT_EQ(trace.root.ChildrenNamed("round").size(), 2u);
  EXPECT_EQ(trace.root.ChildrenNamed("plan_build").size(), 0u);  // Direct only.
  const TraceSpan* found = trace.root.Find("plan_build");  // Depth-first.
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->name, "plan_build");
  EXPECT_EQ(trace.root.Find("nope"), nullptr);
}

TEST(SpanTest, NullCollectorIsANoOp) {
  Span s(nullptr, "phase");
  EXPECT_FALSE(s.active());
  s.Annotate("k", std::string("v"));  // Must not crash.
  s.Annotate("n", 1.0);
  s.Close();
}

TEST(TraceJsonTest, RendersTreeAndAnnotations) {
  TraceCollector tc("query");
  {
    Span round(&tc, "round");
    round.Annotate("dropped", std::string("pc($2,$3)"));
    round.Annotate("penalty", 0.25);
  }
  const std::string json = TraceToJson(tc.Finish());
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"children\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"round\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\":\"pc($2,$3)\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"penalty\":0.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"elapsed_ms\""), std::string::npos) << json;
}

TEST(TraceTextTest, IndentsChildrenAndShowsAnnotations) {
  TraceCollector tc("query");
  {
    Span round(&tc, "round");
    round.Annotate("round", uint64_t{1});
  }
  const std::string text = TraceToText(tc.Finish());
  EXPECT_NE(text.find("query"), std::string::npos) << text;
  EXPECT_NE(text.find("\n  round"), std::string::npos) << text;
  EXPECT_NE(text.find("[round=1]"), std::string::npos) << text;
}

TEST(ExecCountersTest, AddSumsAllFieldsAndMaxesBucketsPeak) {
  ExecCounters a;
  a.plan_passes = 1;
  a.candidates_probed = 10;
  a.tuples_created = 20;
  a.tuples_pruned = 3;
  a.score_sorts = 2;
  a.score_sorted_items = 40;
  a.buckets_peak = 7;
  ExecCounters b;
  b.plan_passes = 2;
  b.candidates_probed = 5;
  b.tuples_created = 6;
  b.tuples_pruned = 1;
  b.score_sorts = 1;
  b.score_sorted_items = 8;
  b.buckets_peak = 4;  // Below a's peak: Add keeps the max, not the sum.

  a.Add(b);
  EXPECT_EQ(a.plan_passes, 3u);
  EXPECT_EQ(a.candidates_probed, 15u);
  EXPECT_EQ(a.tuples_created, 26u);
  EXPECT_EQ(a.tuples_pruned, 4u);
  EXPECT_EQ(a.score_sorts, 3u);
  EXPECT_EQ(a.score_sorted_items, 48u);
  EXPECT_EQ(a.buckets_peak, 7u);
}

TEST(ChromeJsonTest, EmitsCompleteEventsWithRequiredKeys) {
  TraceCollector tc("query");
  {
    Span round(&tc, "initial_round");
    round.Annotate("penalty", 0.25);
    round.Annotate("dropped", std::string("pc($1,$2)"));
  }
  const std::string json = TraceToChromeJson(tc.Finish());
  // Top-level shape.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos)
      << json;
  // Every span is a complete event with the viewer-required keys.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"initial_round\""), std::string::npos)
      << json;
  // Annotations become args, numbers staying numeric.
  EXPECT_NE(json.find("\"penalty\":0.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\":\"pc($1,$2)\""), std::string::npos)
      << json;
  // Thread-name metadata labels the coordinator lane.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"coordinator\""), std::string::npos) << json;
}

/// End-to-end: a traced DPO run must expose one span per executed
/// relaxation round, and the per-round counter deltas must reassemble
/// into TopKResult::counters.
class DpoTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = testing_util::ArticleCorpus();
    index_ = std::make_unique<ElementIndex>(corpus_.get());
    stats_ = std::make_unique<DocumentStats>(corpus_.get());
    ir_ = std::make_unique<IrEngine>(corpus_.get());
    processor_ = std::make_unique<TopKProcessor>(index_.get(), stats_.get(),
                                                 ir_.get());
  }

  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<ElementIndex> index_;
  std::unique_ptr<DocumentStats> stats_;
  std::unique_ptr<IrEngine> ir_;
  std::unique_ptr<TopKProcessor> processor_;
};

TEST_F(DpoTraceTest, RoundSpansMatchRelaxationsAndCounters) {
  // K above the exact-match count forces DPO through relaxation rounds.
  Result<Tpq> q = ParseXPath(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]",
      corpus_->tags());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  TopKOptions opts;
  opts.k = 5;
  opts.collect_trace = true;
  Result<TopKResult> result = processor_->Run(*q, Algorithm::kDpo, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);
  ASSERT_GT(result->relaxations_used, 0u);

  const TraceSpan& root = result->trace->root;
  EXPECT_EQ(root.NumberOr0("relaxations_used"),
            static_cast<double>(result->relaxations_used));

  // Exactly one "relaxation_round" span per relaxation actually executed
  // (round 0, the unrelaxed query, traces as "initial_round").
  EXPECT_EQ(root.ChildrenNamed("relaxation_round").size(),
            result->relaxations_used);
  EXPECT_EQ(root.ChildrenNamed("initial_round").size(), 1u);

  // Each round span carries the delta of every ExecCounters field; the
  // deltas across all rounds must sum back to the result's totals
  // (buckets_peak: DPO runs exact plans, so every delta is zero and the
  // sum equals the max).
  std::vector<const TraceSpan*> rounds = root.ChildrenNamed("initial_round");
  for (const TraceSpan* s : root.ChildrenNamed("relaxation_round")) {
    rounds.push_back(s);
  }
  result->counters.ForEach([&](const char* name, uint64_t total) {
    double sum = 0.0;
    for (const TraceSpan* round : rounds) {
      sum += round->NumberOr0(std::string("counters.") + name);
    }
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(total)) << name;
  });

  // Relaxation rounds name what they dropped.
  for (const TraceSpan* round : root.ChildrenNamed("relaxation_round")) {
    EXPECT_FALSE(round->TextOr("dropped").empty());
    EXPECT_GT(round->NumberOr0("penalty"), 0.0);
  }
}

TEST_F(DpoTraceTest, RootSpanCarriesResourceUsageAnnotations) {
  Result<Tpq> q = ParseXPath("//article[./section]", corpus_->tags());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  TopKOptions opts;
  opts.k = 2;
  opts.collect_trace = true;
  Result<TopKResult> result = processor_->Run(*q, Algorithm::kDpo, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);
  // Every ResourceUsage field surfaces as a usage.<name> annotation on
  // the root span, matching the result's own figures.
  const TraceSpan& root = result->trace->root;
  result->usage.ForEach([&](const char* name, double value) {
    EXPECT_DOUBLE_EQ(root.NumberOr0(std::string("usage.") + name), value)
        << name;
  });
  EXPECT_GT(result->usage.tuples_scanned, 0u);
  EXPECT_GT(result->usage.bytes_touched, 0u);
  EXPECT_EQ(result->usage.rounds_executed, result->counters.plan_passes);
}

/// Hybrid's per-step bucket grouping traces as a `bucket_merge` span
/// inside its `join_step`. The span closes before the extend that
/// follows it, so its annotations must be set before that point.
class HybridTraceTest : public DpoTraceTest {};

void CollectNamed(const TraceSpan& span, std::string_view name,
                  std::vector<const TraceSpan*>* out) {
  for (const auto& child : span.children) {
    if (child->name == name) out->push_back(child.get());
    CollectNamed(*child, name, out);
  }
}

bool HasAnnotation(const TraceSpan& span, std::string_view key) {
  for (const TraceAnnotation& a : span.annotations) {
    if (a.key == key && a.is_number) return true;
  }
  return false;
}

TEST_F(HybridTraceTest, BucketMergeSpansCarryBucketAnnotations) {
  Result<Tpq> q = ParseXPath(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]",
      corpus_->tags());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  TopKOptions opts;
  opts.k = 5;
  opts.collect_trace = true;
  Result<TopKResult> result = processor_->Run(*q, Algorithm::kHybrid, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);

  std::vector<const TraceSpan*> merges;
  CollectNamed(result->trace->root, "bucket_merge", &merges);
  ASSERT_FALSE(merges.empty());
  double peak = 0.0;
  for (const TraceSpan* merge : merges) {
    EXPECT_TRUE(HasAnnotation(*merge, "buckets"));
    EXPECT_TRUE(HasAnnotation(*merge, "buckets_skipped"));
    EXPECT_GT(merge->NumberOr0("buckets"), 0.0);
    EXPECT_LE(merge->NumberOr0("buckets_skipped"),
              merge->NumberOr0("buckets"));
    peak = std::max(peak, merge->NumberOr0("buckets"));
  }
  // The largest bucket count any step saw is the run's buckets_peak.
  EXPECT_EQ(peak, static_cast<double>(result->counters.buckets_peak));
}

TEST_F(DpoTraceTest, TraceIsNullUnlessRequested) {
  Result<Tpq> q = ParseXPath("//article[./section]", corpus_->tags());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  TopKOptions opts;
  opts.k = 2;
  Result<TopKResult> result = processor_->Run(*q, Algorithm::kDpo, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->trace, nullptr);
}

}  // namespace
}  // namespace flexpath
