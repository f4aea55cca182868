// flexbench: the FleXPath engine benchmark.
//
// Runs one named workload — a closed-loop stream of top-K requests over a
// generated XMark corpus — for a fixed number of requests sized to take
// about --seconds, checks every answer, and prints the metrics as one JSON
// object on the last line of stdout. With --trace 1 it also replays the
// same stream with span collection on, on a freshly set-up engine, and
// reports the per-layer split instead of the end-to-end figures. The
// workloads, metrics and their rationale are documented in README.md next
// to this file; run.py builds this binary and forwards its arguments.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/json_util.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/flexpath.h"
#include "ir/tokenizer.h"
#include "xmark/generator.h"
#include "xmark/wordlist.h"
#include "xml/serializer.h"

namespace {

using flexpath::Algorithm;
using flexpath::FlexPath;
using flexpath::QueryTrace;
using flexpath::RankScheme;
using flexpath::TraceSpan;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "flexbench: %s\n", message.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Workloads.

constexpr uint64_t kMb = uint64_t{1} << 20;

// Both workloads run queries serially (TopKOptions::num_threads = 1); a
// traced section6_mem run also replays its stream on the thread pool.
struct Workload {
  const char* name;
  uint64_t doc_bytes;  ///< Target serialized size of each document.
  size_t doc_count;
  bool packed;    ///< SavePacked + OpenPacked instead of Build; Q1-Q3 or
                  ///< keyword templates follow from it.
  /// Request blocks per requested second. Every run sends the same
  /// number of requests for the same --seconds, whatever the host speed,
  /// so a faster or slower host changes the times but not the work. On
  /// the 2.0 GHz Xeon virtual machine the rates were measured on, a run
  /// takes about --seconds.
  double blocks_per_second;
};

constexpr Workload kWorkloads[] = {
    {"section6_mem", 10 * kMb, 1, false, 3.5},
    {"fulltext_packed", 1 * kMb, 10, true, 1.25},
};

// Pool size of the traced run's parallel replay: the four cores the
// benchmark was designed on.
constexpr size_t kPoolThreads = 4;

// Buffer-pool budgets for fulltext_packed, set below the decoded working
// set so that both pools evict in steady state.
constexpr size_t kElemPoolBytes = 256 << 10;
constexpr size_t kPostPoolBytes = 1 << 20;

// The paper's Section 6 queries over the XMark schema.
constexpr const char* kSection6Queries[] = {
    "//item[./description/parlist]",
    "//item[./description/parlist and ./mailbox/mail/text]",
    "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold "
    "and ./keyword and ./emph] and ./name and ./incategory]",
};

// Keyword templates: the contains() sits at a different depth in each.
// "%s" is replaced by the full-text expression.
constexpr const char* kFulltextTemplates[] = {
    "//item[.contains(%s)]",
    "//item[./description[.contains(%s)]]",
    "//item[./description/parlist[.contains(%s)]]",
    "//item[./mailbox/mail/text[.contains(%s)]]",
    "//item[./name and ./mailbox/mail[.contains(%s)]]",
};

// ---------------------------------------------------------------------------
// The request stream: a pure function of (seed, index).

struct Request {
  std::string query;
  Algorithm algo = Algorithm::kDpo;
  size_t k = 10;
  RankScheme scheme = RankScheme::kStructureFirst;
};

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr uint64_t kSection6Salt = 0x53454336;
constexpr uint64_t kFulltextSalt = 0x46554c4c;

// Requests come in balanced blocks: every block holds each cell (query x
// algorithm, or algorithm x scheme x template) once, in a seeded order, so
// the mix is the same in every run whatever the seed.
constexpr size_t kSection6Cells = 9;
constexpr size_t kFulltextCells = 9 * std::size(kFulltextTemplates);

size_t CellAt(uint64_t seed, uint64_t salt, size_t cells, uint64_t index) {
  flexpath::Rng rng(Mix(Mix(seed, salt), index / cells));
  std::vector<size_t> order(cells);
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = cells - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  return order[index % cells];
}

// The per-cell random draws (K, keywords) walk low-discrepancy sequences:
// a seeded phase plus the cell's occurrence count times an irrational
// step, one step per kind of draw. Every run then covers each
// distribution evenly, and the medians do not depend on a lucky draw.
enum Draw : size_t { kDrawK, kDrawZipf, kDrawUniform };
constexpr double kDrawSteps[] = {
    0.6180339887498949,  // (sqrt(5) - 1) / 2
    0.4142135623730951,  // sqrt(2) - 1
    0.7320508075688772,  // sqrt(3) - 1
};

double DrawAt(uint64_t seed, uint64_t salt, size_t cell, uint64_t occurrence,
              Draw draw) {
  const double phase =
      flexpath::Rng(Mix(Mix(seed, salt), Mix(cell, draw))).NextDouble();
  return std::fmod(phase + kDrawSteps[draw] * static_cast<double>(occurrence),
                   1.0);
}

// K is log-uniform in [10, 600].
size_t KFrom(double u) {
  return static_cast<size_t>(std::lround(10.0 * std::pow(60.0, u)));
}

// The word-list indices of the words that survive query normalization.
// A stopword normalizes to nothing, and an "and" with nothing is a
// request that returns at once without work, so the draws skip them.
const std::vector<size_t>& ContentWords() {
  static const std::vector<size_t> words = [] {
    std::vector<size_t> w;
    for (size_t i = 0; i < flexpath::WordListSize(); ++i) {
      if (!flexpath::NormalizeTerm(flexpath::WordAt(i)).empty()) {
        w.push_back(i);
      }
    }
    return w;
  }();
  return words;
}

// Inverse CDF of the Zipf (s = 1) distribution over the word list, the
// distribution the XMark generator draws its text from, restricted to
// the content words.
std::string_view ZipfWord(double u) {
  const std::vector<size_t>& words = ContentWords();
  static const std::vector<double> cdf = [&] {
    std::vector<double> c(words.size());
    double total = 0;
    for (size_t i = 0; i < c.size(); ++i) {
      total += 1.0 / static_cast<double>(words[i] + 1);
      c[i] = total;
    }
    for (double& x : c) x /= total;
    return c;
  }();
  const size_t i = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
  return flexpath::WordAt(words[std::min(i, words.size() - 1)]);
}

std::string_view UniformWord(double u) {
  const std::vector<size_t>& words = ContentWords();
  const auto i = static_cast<size_t>(u * static_cast<double>(words.size()));
  return flexpath::WordAt(words[std::min(i, words.size() - 1)]);
}

Request Section6Request(uint64_t seed, uint64_t index) {
  const size_t cell = CellAt(seed, kSection6Salt, kSection6Cells, index);
  const uint64_t occurrence = index / kSection6Cells;
  Request r;
  r.query = kSection6Queries[cell / 3];
  r.algo = static_cast<Algorithm>(cell % 3);
  r.k = KFrom(DrawAt(seed, kSection6Salt, cell, occurrence, kDrawK));
  return r;
}

// Fulltext cells: algorithm = cell % 3, scheme = cell / 3 % 3, template
// = cell / 9.
Request FulltextRequest(uint64_t seed, uint64_t index) {
  const size_t cell = CellAt(seed, kFulltextSalt, kFulltextCells, index);
  const uint64_t occurrence = index / kFulltextCells;
  auto draw = [&](Draw d) {
    return DrawAt(seed, kFulltextSalt, cell, occurrence, d);
  };
  Request r;
  r.algo = static_cast<Algorithm>(cell % 3);
  r.scheme = static_cast<RankScheme>(cell / 3 % 3);
  r.k = KFrom(draw(kDrawK));
  const std::string zipf(ZipfWord(draw(kDrawZipf)));
  const std::string uniform(UniformWord(draw(kDrawUniform)));
  const char* op = (occurrence + cell) % 2 == 0 ? " and " : " or ";
  const std::string expr = "\"" + zipf + "\"" + op + "\"" + uniform + "\"";
  char buf[512];
  std::snprintf(buf, sizeof(buf), kFulltextTemplates[cell / 9], expr.c_str());
  r.query = buf;
  return r;
}

size_t CellsOf(const Workload& w) {
  return w.packed ? kFulltextCells : kSection6Cells;
}

Request RequestAt(const Workload& w, uint64_t seed, uint64_t index) {
  return w.packed ? FulltextRequest(seed, index)
                  : Section6Request(seed, index);
}

// ---------------------------------------------------------------------------
// Corpus: XMark documents generated once per (seed, size, index) and kept
// as XML files, since generation costs far more than parse + Build.

std::vector<std::string> LoadCorpus(const Workload& w, uint64_t seed,
                                    uint64_t doc_bytes,
                                    const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> texts;
  for (size_t i = 0; i < w.doc_count; ++i) {
    const std::string path = dir + "/xmark-s" + std::to_string(seed) + "-b" +
                             std::to_string(doc_bytes) + "-d" +
                             std::to_string(i) + ".xml";
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      texts.push_back(buf.str());
      continue;
    }
    flexpath::TagDict dict;
    flexpath::XMarkOptions opts;
    opts.target_bytes = doc_bytes;
    opts.seed = Mix(seed, i);
    auto doc = flexpath::GenerateXMark(opts, &dict);
    if (!doc.ok()) Die("XMark generation: " + doc.status().ToString());
    std::string text = flexpath::SerializeXml(*doc, dict);
    const std::string tmp = path + ".tmp" + std::to_string(getpid());
    {
      std::ofstream out(tmp, std::ios::binary);
      out << text;
      if (!out) Die("cannot write " + tmp);
    }
    std::filesystem::rename(tmp, path);
    texts.push_back(std::move(text));
  }
  return texts;
}

// ---------------------------------------------------------------------------
// Set-up: XML text in hand to a queryable engine.

struct SetupSample {
  double total_s = 0;
  double parse_ms = 0;
  double pack_ms = 0;
  double open_ms = 0;
  double element_index_ms = 0;
  double document_stats_ms = 0;
  double ir_engine_ms = 0;
};

double ChildMs(const QueryTrace& trace, const char* name) {
  const auto children = trace.root.ChildrenNamed(name);
  return children.empty() ? 0.0 : children.front()->elapsed_ms;
}

std::unique_ptr<FlexPath> AddDocuments(const std::vector<std::string>& texts) {
  auto fp = std::make_unique<FlexPath>();
  for (const std::string& text : texts) {
    auto id = fp->AddDocumentXml(text);
    if (!id.ok()) Die("AddDocumentXml: " + id.status().ToString());
  }
  return fp;
}

std::unique_ptr<FlexPath> BuildInMemory(const std::vector<std::string>& texts) {
  auto fp = AddDocuments(texts);
  const flexpath::Status st = fp->Build();
  if (!st.ok()) Die("Build: " + st.ToString());
  return fp;
}

std::unique_ptr<FlexPath> SetUp(const Workload& w,
                                const std::vector<std::string>& texts,
                                const std::string& packed_path,
                                SetupSample* sample) {
  const auto start = Clock::now();
  std::unique_ptr<FlexPath> fp = AddDocuments(texts);
  sample->parse_ms = MsSince(start);
  std::unique_ptr<FlexPath> writer;
  if (!w.packed) {
    const flexpath::Status st = fp->Build();
    if (!st.ok()) Die("Build: " + st.ToString());
  } else {
    const auto pack_start = Clock::now();
    const flexpath::Status st = fp->SavePacked(packed_path);
    if (!st.ok()) Die("SavePacked: " + st.ToString());
    sample->pack_ms = MsSince(pack_start);
    writer = std::move(fp);  // Destroyed after the clock stops.
    fp = std::make_unique<FlexPath>();
    flexpath::storage::ReaderOptions ropts;
    ropts.elem_pool_bytes = kElemPoolBytes;
    ropts.post_pool_bytes = kPostPoolBytes;
    const auto open_start = Clock::now();
    const flexpath::Status ost = fp->OpenPacked(packed_path, ropts);
    if (!ost.ok()) Die("OpenPacked: " + ost.ToString());
    sample->open_ms = MsSince(open_start);
  }
  sample->total_s = MsSince(start) / 1000.0;
  const QueryTrace& trace = *fp->build_trace();
  sample->element_index_ms = ChildMs(trace, "element_index");
  sample->document_stats_ms = ChildMs(trace, "document_stats");
  sample->ir_engine_ms = ChildMs(trace, "ir_engine");
  return fp;
}

// ---------------------------------------------------------------------------
// Running and checking one request.

struct Outcome {
  Algorithm algo = Algorithm::kDpo;
  bool ok = false;
  std::string error;
  double parse_ms = 0;
  double query_ms = 0;  ///< QueryTpq wall time, measured outside.
  double cpu_ms = 0;
  uint64_t digest = 0;
  size_t answers = 0;
  flexpath::ExecCounters counters;
  std::shared_ptr<const QueryTrace> trace;

  double latency_ms() const { return parse_ms + query_ms; }
};

// Empty when `answers` is a valid top-K list for the request: at most K
// answers, no node twice, best first under the request's scheme.
std::string CheckAnswers(const std::vector<flexpath::RankedAnswer>& answers,
                         const Request& r) {
  if (answers.size() > r.k) {
    return std::to_string(answers.size()) + " answers for K=" +
           std::to_string(r.k);
  }
  std::unordered_set<flexpath::NodeRef, flexpath::NodeRefHash> seen;
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!seen.insert(answers[i].node).second) {
      return "duplicate answer node at rank " + std::to_string(i);
    }
    if (i > 0 && flexpath::RanksBefore(answers[i].score,
                                       answers[i - 1].score, r.scheme)) {
      return "answers out of order at rank " + std::to_string(i);
    }
  }
  return {};
}

Outcome RunOne(FlexPath& fp, const Request& r, size_t threads, bool trace) {
  Outcome out;
  out.algo = r.algo;
  const auto start = Clock::now();
  auto tpq = fp.Parse(r.query);
  out.parse_ms = MsSince(start);
  if (!tpq.ok()) {
    out.error = "Parse: " + tpq.status().ToString();
    return out;
  }
  flexpath::TopKOptions opts;
  opts.k = r.k;
  opts.scheme = r.scheme;
  opts.num_threads = threads;
  opts.collect_trace = trace;
  const auto query_start = Clock::now();
  auto result = fp.QueryTpq(*tpq, opts, r.algo, r.query);
  out.query_ms = MsSince(query_start);
  if (!result.ok()) {
    out.error = "QueryTpq: " + result.status().ToString();
    return out;
  }
  out.error = CheckAnswers(result->answers, r);
  out.ok = out.error.empty();
  out.cpu_ms = result->usage.cpu_ms;
  out.digest = flexpath::AnswersDigest(result->answers);
  out.answers = result->answers.size();
  out.counters = result->counters;
  out.trace = result->trace;
  return out;
}

// ---------------------------------------------------------------------------
// Statistics helpers.

// The q-quantile, interpolated between the two nearest order statistics
// (the estimate statistics.quantiles(method="inclusive") gives).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

uint64_t CounterValue(const char* name) {
  return flexpath::MetricsRegistry::Global().counter(name)->Value();
}

// Registry counters and buffer-pool statistics read before and after the
// timed phase; the benchmark reports their deltas.
struct CountSnapshot {
  uint64_t ir_evaluate_calls = 0;
  uint64_t ir_cache_hits = 0;
  uint64_t ir_postings_scanned = 0;
  uint64_t cold_block_decodes = 0;
  uint64_t doc_decode_bytes = 0;
  flexpath::storage::StorageReader::PoolStats elem;
  flexpath::storage::StorageReader::PoolStats post;

  static CountSnapshot Take(const FlexPath& fp) {
    CountSnapshot s;
    s.ir_evaluate_calls = CounterValue("ir.evaluate_calls");
    s.ir_cache_hits = CounterValue("ir.cache_hits");
    s.ir_postings_scanned = CounterValue("ir.postings_scanned");
    s.cold_block_decodes = CounterValue("storage.cold_block_decodes");
    s.doc_decode_bytes = CounterValue("storage.doc_decode_bytes");
    if (const auto* reader = fp.packed_reader()) {
      s.elem = reader->GetElemPoolStats();
      s.post = reader->GetPostPoolStats();
    }
    return s;
  }
};

double PoolHitRate(const flexpath::storage::StorageReader::PoolStats& before,
                   const flexpath::storage::StorageReader::PoolStats& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  return Ratio(hits, hits + misses);
}

// ---------------------------------------------------------------------------
// Trace analysis: per-layer self time from the span trees the engine
// emits.

// Which layer metric each engine span's self time is charged to.
// Round and pass spans (and the root) keep what their children do not
// cover: round bookkeeping, static-prune proofs, the answer merge.
const std::map<std::string, std::string>& SpanLayers() {
  static const std::map<std::string, std::string> layers = {
      {"penalty_model", "relax.penalty_model_ms"},
      {"build_schedule", "relax.schedule_ms"},
      {"selectivity_estimate", "exec.selectivity_ms"},
      {"plan_build", "exec.plan_build_ms"},
      {"scan_step", "exec.scan_ms"},
      {"join_step", "exec.join_ms"},
      {"bucket_merge", "exec.bucket_merge_ms"},
      {"score_sort", "exec.score_sort_ms"},
      {"finalize", "exec.finalize_ms"},
      {"resolve_contains", "ir.contains_ms"},
      {"ir_probe", "ir.contains_ms"},
      {"initial_round", "exec.round_ms"},
      {"relaxation_round", "exec.round_ms"},
      {"encoded_pass", "exec.round_ms"},
      {"static_prune_skip", "exec.round_ms"},
      {"cache_lookup", "exec.round_ms"},
  };
  return layers;
}

// A span's self time is its duration minus the union of its children's
// intervals: worker spans of a parallel run overlap, so subtracting their
// sum would undercount (and can go negative).
double SelfMs(const TraceSpan& span) {
  const double begin = span.start_ms;
  const double end = span.start_ms + span.elapsed_ms;
  std::vector<std::pair<double, double>> intervals;
  for (const auto& child : span.children) {
    const double lo = std::max(begin, child->start_ms);
    const double hi = std::min(end, child->start_ms + child->elapsed_ms);
    if (hi > lo) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -1.0;
  for (const auto& [lo, hi] : intervals) {
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
  return std::max(0.0, span.elapsed_ms - covered);
}

struct TraceTotals {
  std::map<std::string, double> layer_ms;  ///< Summed self time per layer.
  double all_self_ms = 0;  ///< Every span, root included.
  double facade_ms = 0;    ///< QueryTpq time outside the trace root.
  size_t dpo_queries = 0;
  uint64_t dpo_rounds = 0;
  uint64_t dpo_empty_rounds = 0;
  size_t encoded_queries = 0;
  uint64_t encoded_retries = 0;
  double retry_ms = 0;
  std::vector<double> qerrors;
};

void WalkSpans(const TraceSpan& span, TraceTotals* totals) {
  const double self = SelfMs(span);
  totals->all_self_ms += self;
  const auto& layers = SpanLayers();
  if (auto it = layers.find(span.name); it != layers.end()) {
    totals->layer_ms[it->second] += self;
  }
  for (const auto& child : span.children) WalkSpans(*child, totals);
}

void CollectRounds(const TraceSpan& span, TraceTotals* totals) {
  for (const auto& child : span.children) {
    if (child->name == "initial_round" || child->name == "relaxation_round") {
      ++totals->dpo_rounds;
      if (child->NumberOr0("new_answers") == 0.0) ++totals->dpo_empty_rounds;
    }
    CollectRounds(*child, totals);
  }
}

void AnalyzeTrace(const Outcome& o, size_t k, TraceTotals* totals) {
  const TraceSpan& root = o.trace->root;
  WalkSpans(root, totals);
  totals->facade_ms += o.query_ms - root.elapsed_ms;
  if (o.algo == Algorithm::kDpo) {
    ++totals->dpo_queries;
    CollectRounds(root, totals);
    return;
  }
  ++totals->encoded_queries;
  std::vector<const TraceSpan*> passes = root.ChildrenNamed("encoded_pass");
  // A pruned pass followed by an unpruned pass of the same encoding was
  // thrown away and re-run.
  for (size_t i = 0; i + 1 < passes.size(); ++i) {
    if (passes[i]->TextOr("prune") == "on" &&
        passes[i + 1]->TextOr("prune") == "off" &&
        passes[i]->NumberOr0("encoded") ==
            passes[i + 1]->NumberOr0("encoded")) {
      ++totals->encoded_retries;
      totals->retry_ms += passes[i]->elapsed_ms;
    }
  }
  // Selectivity q-error of the estimate that chose the encoding, against
  // the first pass's answer count; both are capped at K because the
  // estimate only has to decide whether K answers exist.
  // Schemes that encode every relaxation make no estimate.
  const TraceSpan* estimate = root.Find("selectivity_estimate");
  if (estimate == nullptr || passes.empty() ||
      std::none_of(estimate->annotations.begin(), estimate->annotations.end(),
                   [](const flexpath::TraceAnnotation& a) {
                     return a.key == "estimated_answers";
                   })) {
    return;
  }
  const double cap = static_cast<double>(std::max<size_t>(k, 1));
  const double est =
      std::clamp(estimate->NumberOr0("estimated_answers"), 1.0, cap);
  const double actual = std::clamp(passes.front()->NumberOr0("answers"), 1.0,
                                   cap);
  totals->qerrors.push_back(std::max(est / actual, actual / est));
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           flexpath::FormatDouble(v) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  bool tiny = false;
  bool prepare = false;  ///< Only generate the corpus.
  std::string work_dir = ".bench_build";
  std::string digest_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (flag == "--prepare") {
      a.prepare = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed" || flag == "--seconds") {
      char* end = nullptr;
      const double number = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(number >= 0)) {
        Die("bad value for " + flag + ": " + value);
      }
      if (flag == "--seed") {
        a.seed = std::strtoull(value.c_str(), nullptr, 10);
      } else {
        a.seconds = number;
      }
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--digest-out") {
      a.digest_out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload) Die("--workload is required");
  return a;
}

}  // namespace

// ---------------------------------------------------------------------------
// Metrics.

// What one run collected; the two metric tables read it.
struct RunRecord {
  std::vector<SetupSample> setups;
  std::vector<Request> requests;
  std::vector<Outcome> outcomes;  ///< The untraced timed phase.
  std::vector<Outcome> traced;    ///< Traced replay (--trace 1).
  double timed_ms = 0;
  double rss_mb = 0;
  size_t failed = 0;
  CountSnapshot opened;  ///< Right after set-up.
  CountSnapshot before;  ///< Around the timed phase.
  CountSnapshot after;
  // Latency sums of a traced run: the traced replay, and the timed
  // phase's untraced runs of the same requests.
  double traced_ms = 0;
  double untraced_ms = 0;
  bool pooled = false;  ///< The kPoolThreads replay ran.
  double pool_ms = 0;
  double pool_cpu_ms = 0;
  double pool_query_ms = 0;

  double SetupMedian(double SetupSample::*field) const {
    std::vector<double> v;
    for (const SetupSample& s : setups) v.push_back(s.*field);
    return Median(std::move(v));
  }
};

std::vector<Metric> EndToEndMetrics(const RunRecord& run) {
  const double n = static_cast<double>(run.outcomes.size());
  std::vector<double> latency;
  std::array<std::vector<double>, 3> by_algo;
  double cpu_ms = 0;
  for (const Outcome& o : run.outcomes) {
    latency.push_back(o.latency_ms());
    by_algo[static_cast<size_t>(o.algo)].push_back(o.latency_ms());
    cpu_ms += o.cpu_ms;
  }
  return {
      {"setup_s", "s", run.SetupMedian(&SetupSample::total_s)},
      {"qps", "1/s", Ratio(n, run.timed_ms / 1000.0)},
      {"latency_p50_ms", "ms", Quantile(latency, 0.5)},
      {"latency_p95_ms", "ms", Quantile(latency, 0.95)},
      {"dpo_p50_ms", "ms", Median(by_algo[0])},
      {"sso_p50_ms", "ms", Median(by_algo[1])},
      {"hybrid_p50_ms", "ms", Median(by_algo[2])},
      {"cpu_ms_per_query", "ms", Ratio(cpu_ms, n)},
      {"rss_mb", "MB", run.rss_mb},
      {"ok_ratio", "ratio", Ratio(n - static_cast<double>(run.failed), n)},
  };
}

std::vector<Metric> PerLayerMetrics(const RunRecord& run) {
  const double n = static_cast<double>(run.outcomes.size());
  double parse_ms = 0;
  double answers = 0;
  // Add() keeps the maximum of buckets_peak; report its mean instead.
  double buckets_peak = 0;
  flexpath::ExecCounters sum;
  for (const Outcome& o : run.outcomes) {
    parse_ms += o.parse_ms;
    answers += static_cast<double>(o.answers);
    buckets_peak += static_cast<double>(o.counters.buckets_peak);
    sum.Add(o.counters);
  }
  TraceTotals tt;
  for (size_t i = 0; i < run.traced.size(); ++i) {
    if (run.traced[i].trace != nullptr) {
      AnalyzeTrace(run.traced[i], run.requests[i].k, &tt);
    }
  }
  auto per_query = [&](double v) { return Ratio(v, n); };
  auto count = [&](uint64_t v) { return per_query(static_cast<double>(v)); };
  auto layer = [&](const char* name) {
    auto it = tt.layer_ms.find(name);
    return per_query(it == tt.layer_ms.end() ? 0.0 : it->second);
  };
  double named_ms = 0;
  for (const auto& [name, ms] : tt.layer_ms) {
    if (name != "exec.round_ms") named_ms += ms;
  }
  const CountSnapshot& b = run.before;
  const CountSnapshot& a = run.after;
  auto delta = [](uint64_t from, uint64_t to) {
    return static_cast<double>(to - from);
  };
  const double dpo = static_cast<double>(tt.dpo_queries);
  const double encoded = static_cast<double>(tt.encoded_queries);
  return {
      {"xml.parse_ms", "ms", run.SetupMedian(&SetupSample::parse_ms)},
      {"stats.element_index_build_ms", "ms",
       run.SetupMedian(&SetupSample::element_index_ms)},
      {"stats.document_stats_build_ms", "ms",
       run.SetupMedian(&SetupSample::document_stats_ms)},
      {"ir.index_build_ms", "ms", run.SetupMedian(&SetupSample::ir_engine_ms)},
      {"storage.pack_ms", "ms", run.SetupMedian(&SetupSample::pack_ms)},
      {"storage.open_ms", "ms", run.SetupMedian(&SetupSample::open_ms)},
      {"storage.elem_pool_hit_rate", "ratio", PoolHitRate(b.elem, a.elem)},
      {"storage.post_pool_hit_rate", "ratio", PoolHitRate(b.post, a.post)},
      {"storage.cold_block_decodes", "count",
       per_query(delta(b.cold_block_decodes, a.cold_block_decodes))},
      // Documents decode once, on first touch, so this one is the run's
      // total since open, warm-up included.
      {"storage.doc_decode_bytes", "bytes",
       delta(run.opened.doc_decode_bytes, a.doc_decode_bytes)},
      {"query.parse_ms", "ms", per_query(parse_ms)},
      {"relax.penalty_model_ms", "ms", layer("relax.penalty_model_ms")},
      {"relax.schedule_ms", "ms", layer("relax.schedule_ms")},
      {"exec.selectivity_ms", "ms", layer("exec.selectivity_ms")},
      {"exec.selectivity_qerror", "ratio",
       Ratio(std::accumulate(tt.qerrors.begin(), tt.qerrors.end(), 0.0),
             static_cast<double>(tt.qerrors.size()))},
      {"exec.plan_build_ms", "ms", layer("exec.plan_build_ms")},
      {"exec.scan_ms", "ms", layer("exec.scan_ms")},
      {"exec.candidates_probed", "count", count(sum.candidates_probed)},
      {"exec.join_ms", "ms", layer("exec.join_ms")},
      {"exec.tuples_created", "count", count(sum.tuples_created)},
      {"exec.bucket_merge_ms", "ms", layer("exec.bucket_merge_ms")},
      {"exec.buckets_peak", "count", per_query(buckets_peak)},
      {"exec.score_sort_ms", "ms", layer("exec.score_sort_ms")},
      {"exec.score_sorted_items", "count", count(sum.score_sorted_items)},
      {"exec.finalize_ms", "ms", layer("exec.finalize_ms")},
      {"exec.round_ms", "ms", layer("exec.round_ms")},
      {"exec.tuples_pruned", "count", count(sum.tuples_pruned)},
      {"exec.answers_per_tuple", "ratio",
       Ratio(answers, static_cast<double>(sum.tuples_created))},
      {"exec.plan_passes", "count", count(sum.plan_passes)},
      {"exec.dpo_rounds", "count",
       Ratio(static_cast<double>(tt.dpo_rounds), dpo)},
      {"exec.dpo_empty_rounds", "count",
       Ratio(static_cast<double>(tt.dpo_empty_rounds), dpo)},
      {"exec.encoded_retries", "count",
       Ratio(static_cast<double>(tt.encoded_retries), encoded)},
      {"exec.retry_ms", "ms", Ratio(tt.retry_ms, encoded)},
      {"analysis.rounds_pruned_static", "count",
       count(sum.rounds_pruned_static)},
      {"ir.contains_ms", "ms", layer("ir.contains_ms")},
      {"ir.evaluate_calls", "count",
       per_query(delta(b.ir_evaluate_calls, a.ir_evaluate_calls))},
      {"ir.cache_hit_rate", "ratio",
       Ratio(delta(b.ir_cache_hits, a.ir_cache_hits),
             delta(b.ir_evaluate_calls, a.ir_evaluate_calls))},
      {"ir.postings_scanned", "count",
       per_query(delta(b.ir_postings_scanned, a.ir_postings_scanned))},
      {"common.thread_pool.cpu_per_wall", "ratio",
       run.pooled ? Ratio(run.pool_cpu_ms, run.pool_query_ms) : 0.0},
      {"common.thread_pool.speedup", "ratio",
       run.pooled ? Ratio(run.untraced_ms, run.pool_ms) : 0.0},
      {"core.facade_ms", "ms", per_query(tt.facade_ms)},
      {"trace.named_share_pct", "%", 100.0 * Ratio(named_ms, tt.all_self_ms)},
      {"trace.overhead_pct", "%",
       100.0 * (Ratio(run.traced_ms, run.untraced_ms) - 1.0)},
  };
}

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) Die("unknown workload " + args.workload);
  const Workload& w = *found;
  flexpath::Logger::Global().SetLevel(flexpath::LogLevel::kWarn);

  // Tiny mode (the self-test): a tenth of the corpus, one set-up, a fixed
  // few dozen requests. Otherwise the request count is whole blocks at
  // the workload's fixed rate, a third as many in a traced run, which
  // replays the stream twice more below.
  const uint64_t doc_bytes = args.tiny ? w.doc_bytes / 10 : w.doc_bytes;
  const std::vector<std::string> texts =
      LoadCorpus(w, args.seed, doc_bytes, args.work_dir + "/corpus");
  if (args.prepare) return 0;
  const int setup_reps = args.tiny ? 1 : 5;
  const size_t cells = CellsOf(w);
  auto blocks = [&](double seconds) {
    return std::max<size_t>(
        1, static_cast<size_t>(std::lround(seconds * w.blocks_per_second)));
  };
  const size_t warmup_requests = args.tiny ? 0 : blocks(1.0) * cells;
  const size_t n =
      args.tiny ? 36 : blocks(args.seconds / (args.trace ? 3.0 : 1.0)) * cells;

  const std::string packed_path = args.work_dir + "/" + w.name + "-" +
                                  std::to_string(getpid()) + ".fxpk";
  RunRecord run;

  // Set-up, several times; the median is reported and the last engine
  // serves the requests.
  run.setups.resize(setup_reps);
  std::unique_ptr<FlexPath> fp;
  for (SetupSample& s : run.setups) {
    fp.reset();
    fp = SetUp(w, texts, packed_path, &s);
  }
  malloc_trim(0);  // Return the discarded set-ups' memory before rss_mb.
  run.opened = CountSnapshot::Take(*fp);

  // Warm-up on a different stream of the same shape, so lazy set-up (the
  // thread pool, first decodes) is paid before the clock starts.
  const uint64_t warm_seed = Mix(args.seed, 0x5741524d);
  auto warm_up = [&](FlexPath& engine) {
    for (size_t i = 0; i < warmup_requests; ++i) {
      RunOne(engine, RequestAt(w, warm_seed, i), 1, false);
    }
  };
  warm_up(*fp);

  // Timed phase: closed loop, one request at a time, no think time.
  std::vector<Request>& requests = run.requests;
  std::vector<Outcome>& outcomes = run.outcomes;
  for (size_t i = 0; i < n; ++i) requests.push_back(RequestAt(w, args.seed, i));
  outcomes.reserve(n);
  run.before = CountSnapshot::Take(*fp);
  const auto timed_start = Clock::now();
  for (const Request& r : requests) {
    outcomes.push_back(RunOne(*fp, r, 1, false));
  }
  run.timed_ms = MsSince(timed_start);
  run.after = CountSnapshot::Take(*fp);
  run.rss_mb = RssMb();

  std::vector<bool> failed(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (!outcomes[i].ok) {
      failed[i] = true;
      std::fprintf(stderr, "request %zu failed: %s [%s]\n", i,
                   outcomes[i].error.c_str(), requests[i].query.c_str());
    }
  }

  // Traced replay of the same stream (per-layer split only), on a freshly
  // set-up engine after the same warm-up: every request meets the cache
  // and pool state it met when timed, so the traced IR and decode times
  // are those of the untraced run.
  if (args.trace) {
    fp.reset();
    SetupSample unused;
    fp = SetUp(w, texts, packed_path, &unused);
    warm_up(*fp);
    for (size_t i = 0; i < n; ++i) {
      run.traced.push_back(RunOne(*fp, requests[i], 1, true));
      run.traced_ms += run.traced[i].latency_ms();
      run.untraced_ms += outcomes[i].latency_ms();
      if (!run.traced[i].ok || run.traced[i].digest != outcomes[i].digest) {
        failed[i] = true;
        std::fprintf(stderr, "request %zu: traced answers differ\n", i);
      }
    }
  }

  // Reference check. fulltext_packed must answer exactly as an in-memory
  // Build of the same documents. A traced section6_mem run replays the
  // stream on a pool of kPoolThreads, which must answer exactly as one
  // thread does; the replay also measures the pool.
  std::vector<uint64_t> reference;
  if (w.packed || args.trace) {
    std::unique_ptr<FlexPath> memory;
    if (w.packed) memory = BuildInMemory(texts);
    FlexPath& ref = w.packed ? *memory : *fp;
    run.pooled = !w.packed;
    for (size_t i = 0; i < n; ++i) {
      const Outcome o =
          RunOne(ref, requests[i], run.pooled ? kPoolThreads : 1, false);
      reference.push_back(o.digest);
      run.pool_ms += o.latency_ms();
      run.pool_cpu_ms += o.cpu_ms;
      run.pool_query_ms += o.query_ms;
      if (!o.ok || o.digest != outcomes[i].digest) {
        failed[i] = true;
        std::fprintf(stderr, "request %zu: answers differ from reference\n",
                     i);
      }
    }
  }
  run.failed = std::count(failed.begin(), failed.end(), true);
  fp.reset();
  std::filesystem::remove(packed_path);

  if (!args.digest_out.empty()) {
    std::ofstream out(args.digest_out);
    for (size_t i = 0; i < n; ++i) {
      const Request& r = requests[i];
      out << i << '\t' << flexpath::AlgorithmName(r.algo) << '\t' << r.k
          << '\t' << flexpath::RankSchemeName(r.scheme) << '\t' << r.query
          << '\t' << outcomes[i].digest << '\t'
          << (reference.empty() ? std::string("-")
                                : std::to_string(reference[i]))
          << '\n';
    }
  }

  PrintResult(run.failed == 0, n, run.failed,
              args.trace ? PerLayerMetrics(run) : EndToEndMetrics(run));
  return 0;
}
