#include "common/trace.h"

#include <cassert>
#include <cstdio>

#include "common/json_util.h"

namespace flexpath {

namespace {

std::string FormatNumber(double v) {
  // Annotation numbers are counts and penalties; %g keeps integers
  // integral and trims trailing zeros.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

void SpanToJson(const TraceSpan& span, std::string* out) {
  *out += "{\"name\":\"";
  *out += JsonEscape(span.name);
  *out += "\",\"start_ms\":" + FormatMs(span.start_ms);
  *out += ",\"elapsed_ms\":" + FormatMs(span.elapsed_ms);
  *out += ",\"annotations\":{";
  for (size_t i = 0; i < span.annotations.size(); ++i) {
    const TraceAnnotation& a = span.annotations[i];
    if (i > 0) *out += ',';
    *out += '"';
    *out += JsonEscape(a.key);
    *out += "\":";
    if (a.is_number) {
      *out += FormatNumber(a.number);
    } else {
      *out += '"';
      *out += JsonEscape(a.text);
      *out += '"';
    }
  }
  *out += "},\"children\":[";
  for (size_t i = 0; i < span.children.size(); ++i) {
    if (i > 0) *out += ',';
    SpanToJson(*span.children[i], out);
  }
  *out += "]}";
}

/// Microseconds for Chrome trace "ts"/"dur" fields. Perfetto truncates
/// fractional microseconds anyway, so emit integers.
std::string FormatUs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld",
                static_cast<long long>(ms * 1000.0 + 0.5));
  return buf;
}

void SpanToChromeEvents(const TraceSpan& span, int pid, bool* first,
                        std::string* out) {
  if (!*first) *out += ',';
  *first = false;
  *out += "{\"ph\":\"X\",\"ts\":";
  *out += FormatUs(span.start_ms);
  *out += ",\"dur\":";
  *out += FormatUs(span.elapsed_ms);
  *out += ",\"pid\":";
  *out += std::to_string(pid);
  *out += ",\"tid\":1,\"name\":\"";
  *out += JsonEscape(span.name);
  *out += "\",\"args\":{";
  for (size_t i = 0; i < span.annotations.size(); ++i) {
    const TraceAnnotation& a = span.annotations[i];
    if (i > 0) *out += ',';
    *out += '"';
    *out += JsonEscape(a.key);
    *out += "\":";
    if (a.is_number) {
      *out += FormatNumber(a.number);
    } else {
      *out += '"';
      *out += JsonEscape(a.text);
      *out += '"';
    }
  }
  *out += "}}";
  for (const std::unique_ptr<TraceSpan>& child : span.children) {
    SpanToChromeEvents(*child, pid, first, out);
  }
}

void SpanToText(const TraceSpan& span, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += span.name;
  *out += "  ";
  *out += FormatMs(span.elapsed_ms);
  *out += "ms";
  if (!span.annotations.empty()) {
    *out += "  [";
    for (size_t i = 0; i < span.annotations.size(); ++i) {
      const TraceAnnotation& a = span.annotations[i];
      if (i > 0) *out += ' ';
      *out += a.key;
      *out += '=';
      *out += a.is_number ? FormatNumber(a.number) : a.text;
    }
    *out += ']';
  }
  *out += '\n';
  for (const std::unique_ptr<TraceSpan>& child : span.children) {
    SpanToText(*child, depth + 1, out);
  }
}

}  // namespace

void TraceSpan::Annotate(std::string key, std::string value) {
  TraceAnnotation a;
  a.key = std::move(key);
  a.text = std::move(value);
  annotations.push_back(std::move(a));
}

void TraceSpan::Annotate(std::string key, double value) {
  TraceAnnotation a;
  a.key = std::move(key);
  a.number = value;
  a.is_number = true;
  annotations.push_back(std::move(a));
}

double TraceSpan::NumberOr0(std::string_view key) const {
  for (const TraceAnnotation& a : annotations) {
    if (a.key == key && a.is_number) return a.number;
  }
  return 0.0;
}

std::string_view TraceSpan::TextOr(std::string_view key) const {
  for (const TraceAnnotation& a : annotations) {
    if (a.key == key && !a.is_number) return a.text;
  }
  return {};
}

std::vector<const TraceSpan*> TraceSpan::ChildrenNamed(
    std::string_view span_name) const {
  std::vector<const TraceSpan*> out;
  for (const std::unique_ptr<TraceSpan>& child : children) {
    if (child->name == span_name) out.push_back(child.get());
  }
  return out;
}

const TraceSpan* TraceSpan::Find(std::string_view span_name) const {
  for (const std::unique_ptr<TraceSpan>& child : children) {
    if (child->name == span_name) return child.get();
    if (const TraceSpan* hit = child->Find(span_name)) return hit;
  }
  return nullptr;
}

TraceCollector::TraceCollector(std::string root_name)
    : start_(std::chrono::steady_clock::now()) {
  trace_.root.name = std::move(root_name);
  trace_.root.start_ms = 0.0;
  stack_.push_back(&trace_.root);
}

double TraceCollector::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

TraceSpan* TraceCollector::OpenSpan(std::string_view name) {
  auto span = std::make_unique<TraceSpan>();
  span->name = std::string(name);
  span->start_ms = NowMs();
  TraceSpan* raw = span.get();
  stack_.back()->children.push_back(std::move(span));
  stack_.push_back(raw);
  return raw;
}

void TraceCollector::CloseSpan(TraceSpan* span) {
  assert(!stack_.empty() && stack_.back() == span &&
         "spans must close in LIFO order");
  span->elapsed_ms = NowMs() - span->start_ms;
  stack_.pop_back();
}

QueryTrace TraceCollector::Finish() {
  assert(stack_.size() == 1 && "unclosed spans at Finish()");
  trace_.root.elapsed_ms = NowMs();
  stack_.clear();
  return std::move(trace_);
}

std::string TraceToJson(const QueryTrace& trace) {
  std::string out;
  SpanToJson(trace.root, &out);
  return out;
}

std::string TraceToText(const QueryTrace& trace) {
  std::string out;
  SpanToText(trace.root, 0, &out);
  return out;
}

std::string TraceToChromeJson(const QueryTrace& trace, int pid) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  SpanToChromeEvents(trace.root, pid, &first, &out);
  // Label the lane so Perfetto shows "coordinator" instead of a bare tid.
  // Metadata events are timeless; emitting one after the slice events is
  // valid.
  out += ",{\"ph\":\"M\",\"ts\":0,\"pid\":";
  out += std::to_string(pid);
  out += ",\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":"
         "\"coordinator\"}}";
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace flexpath
