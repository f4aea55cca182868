#ifndef FLEXPATH_COMMON_TRACE_H_
#define FLEXPATH_COMMON_TRACE_H_

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace flexpath {

/// One key/value attached to a span. Values are either text or a number;
/// numbers stay numeric so tools (and tests) can aggregate them without
/// parsing strings.
struct TraceAnnotation {
  std::string key;
  std::string text;      ///< Set when !is_number.
  double number = 0.0;   ///< Set when is_number.
  bool is_number = false;
};

/// One timed phase of an execution, possibly with nested sub-phases.
/// Times are wall-clock (steady_clock), in milliseconds, relative to the
/// start of the trace.
struct TraceSpan {
  std::string name;
  double start_ms = 0.0;
  double elapsed_ms = 0.0;
  std::vector<TraceAnnotation> annotations;
  std::vector<std::unique_ptr<TraceSpan>> children;

  void Annotate(std::string key, std::string value);
  void Annotate(std::string key, double value);
  void Annotate(std::string key, uint64_t value) {
    Annotate(std::move(key), static_cast<double>(value));
  }

  /// The annotation's numeric value, or 0 when absent / non-numeric.
  double NumberOr0(std::string_view key) const;
  /// The annotation's text, or "" when absent / numeric.
  std::string_view TextOr(std::string_view key) const;

  /// Direct children with the given span name.
  std::vector<const TraceSpan*> ChildrenNamed(std::string_view span_name) const;
  /// First descendant (depth-first, self excluded) with the given name;
  /// nullptr when none.
  const TraceSpan* Find(std::string_view span_name) const;
};

/// A finished per-query execution trace: the root span covers the whole
/// query; children are pipeline phases (relaxation rounds, plan builds,
/// join steps, ...).
struct QueryTrace {
  TraceSpan root;
};

/// Assembles a QueryTrace from nested Span lifetimes. Confined to one
/// thread by design: spans must close in LIFO order, which the Span RAII
/// type guarantees. Pool workers never open spans; a parallel join step
/// is one span on the coordinating thread (DESIGN.md §10).
class TraceCollector {
 public:
  /// Starts the clock and opens the root span.
  explicit TraceCollector(std::string root_name = "query");

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Closes the root span and returns the assembled trace. The collector
  /// must not be used afterwards.
  QueryTrace Finish();

  /// The innermost open span (the root before any child opens).
  TraceSpan* current() { return stack_.back(); }

  // Used by Span; not part of the public surface.
  TraceSpan* OpenSpan(std::string_view name);
  void CloseSpan(TraceSpan* span);

 private:
  /// Milliseconds since the collector started.
  double NowMs() const;

  QueryTrace trace_;
  std::vector<TraceSpan*> stack_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII handle for one span. A null collector makes every operation a
/// no-op — instrumented code pays one pointer test when tracing is off,
/// and in particular never reads the clock.
class Span {
 public:
  Span(TraceCollector* collector, std::string_view name)
      : collector_(collector),
        span_(collector != nullptr ? collector->OpenSpan(name) : nullptr) {}
  ~Span() { Close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes early (before scope exit); idempotent.
  void Close() {
    if (span_ != nullptr) {
      collector_->CloseSpan(span_);
      span_ = nullptr;
    }
  }

  bool active() const { return span_ != nullptr; }

  void Annotate(std::string key, std::string value) {
    if (span_ != nullptr) span_->Annotate(std::move(key), std::move(value));
  }
  void Annotate(std::string key, double value) {
    if (span_ != nullptr) span_->Annotate(std::move(key), value);
  }
  void Annotate(std::string key, uint64_t value) {
    if (span_ != nullptr) span_->Annotate(std::move(key), value);
  }

 private:
  TraceCollector* collector_;
  TraceSpan* span_;
};

/// Renders the trace as one JSON object:
///   {"name":..,"start_ms":..,"elapsed_ms":..,
///    "annotations":{..},"children":[..]}
std::string TraceToJson(const QueryTrace& trace);

/// Renders the trace as an indented, human-readable tree (the CLI's
/// --explain output), EXPLAIN ANALYZE-style:
///   query  12.41ms
///     dpo_round  4.02ms  [round=1 dropped=gamma($2) penalty=0.125 ...]
std::string TraceToText(const QueryTrace& trace);

/// Renders the trace in the Chrome Trace Event Format, loadable in
/// Perfetto (ui.perfetto.dev) and chrome://tracing:
///   {"traceEvents":[{"ph":"X","ts":0,"dur":12410,"pid":1,"tid":1,
///                    "name":"query","args":{...}},...],
///    "displayTimeUnit":"ms"}
/// Every span becomes one complete ("X") event with ts/dur in
/// microseconds; annotations become its args (numbers stay numeric).
/// Every span was opened on the coordinating thread, so all events share
/// tid 1, which "M"-phase thread_name metadata labels "coordinator".
std::string TraceToChromeJson(const QueryTrace& trace, int pid = 1);

}  // namespace flexpath

#endif  // FLEXPATH_COMMON_TRACE_H_
