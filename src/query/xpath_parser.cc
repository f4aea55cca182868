#include "query/xpath_parser.h"

#include <cctype>
#include <string>

#include "common/string_util.h"
#include "ir/ft_expr.h"

namespace flexpath {

namespace {

/// Recursive-descent parser for the tree-pattern XPath fragment.
class XPathParser {
 public:
  XPathParser(std::string_view in, TagDict* dict,
              const TokenizerOptions& opts)
      : in_(in), dict_(dict), opts_(opts) {}

  Result<Tpq> Parse() {
    SkipWs();
    Axis axis;
    if (!ConsumeAxis(&axis)) {
      return Err("query must start with '/' or '//'");
    }
    // The leading axis of an absolute path is relative to the document
    // root; we model both / and // as a descendant spine from a virtual
    // root, matching the paper's //article[...] style. A leading single
    // '/' constrains the first step to be the document root element,
    // which for single-rooted corpora is the same as '//' when the tag
    // matches the root; we accept both and treat the first step
    // identically.
    VarId last = kInvalidVar;
    FLEXPATH_RETURN_IF_ERROR(ParseStep(&last, kInvalidVar, axis));
    while (ConsumeAxis(&axis)) {
      FLEXPATH_RETURN_IF_ERROR(ParseStep(&last, last, axis));
    }
    SkipWs();
    if (pos_ != in_.size()) {
      return Err("unexpected trailing input at '" +
                 std::string(in_.substr(pos_)) + "'");
    }
    query_.SetDistinguished(last);
    FLEXPATH_RETURN_IF_ERROR(query_.Validate());
    return std::move(query_);
  }

 private:
  void SkipWs() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }

  Status Err(std::string msg) const {
    return Status::ParseError("XPath, position " + std::to_string(pos_) +
                              ": " + std::move(msg));
  }

  /// Consumes '/' or '//' and reports which. False if neither.
  bool ConsumeAxis(Axis* axis) {
    SkipWs();
    if (AtEnd() || Peek() != '/') return false;
    ++pos_;
    if (!AtEnd() && Peek() == '/') {
      ++pos_;
      *axis = Axis::kDescendant;
    } else {
      *axis = Axis::kChild;
    }
    return true;
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  }

  Status ParseName(std::string* out) {
    SkipWs();
    if (!AtEnd() && Peek() == '*') {
      ++pos_;
      *out = "*";
      return Status::OK();
    }
    size_t begin = pos_;
    // A name must not start with '.' (that's the self step).
    while (pos_ < in_.size() && IsNameChar(in_[pos_])) {
      if (in_[pos_] == '.' && pos_ == begin) break;
      ++pos_;
    }
    if (pos_ == begin) return Err("expected an element name");
    *out = std::string(in_.substr(begin, pos_ - begin));
    return Status::OK();
  }

  /// Parses one step (name + optional predicate blocks), creating a node
  /// under `parent` (or the root). Returns the node's var in *out.
  Status ParseStep(VarId* out, VarId parent, Axis axis) {
    std::string name;
    FLEXPATH_RETURN_IF_ERROR(ParseName(&name));
    if (query_.size() == kMaxTpqNodes) {
      return Err("query has more than " + std::to_string(kMaxTpqNodes) +
                 " steps");
    }
    TagId tag = name == "*" ? kInvalidTag : dict_->Intern(name);
    VarId var = parent == kInvalidVar
                    ? query_.AddRoot(tag)
                    : query_.AddChild(parent, axis, tag);
    SkipWs();
    while (!AtEnd() && Peek() == '[') {
      ++pos_;
      FLEXPATH_RETURN_IF_ERROR(ParsePredExpr(var));
      SkipWs();
      if (AtEnd() || Peek() != ']') return Err("expected ']'");
      ++pos_;
      SkipWs();
    }
    *out = var;
    return Status::OK();
  }

  /// expr := term ('and' term)*. 'or' between structural terms is not a
  /// tree pattern and is rejected with a pointer to FTExp disjunction.
  /// Every '[' and '(' enters here, so this is where nesting is counted.
  /// An error ends the whole parse, so error returns leave depth_ as is.
  Status ParsePredExpr(VarId context) {
    if (depth_ == kMaxXPathDepth) {
      return Err("predicates nested deeper than " +
                 std::to_string(kMaxXPathDepth) + " levels");
    }
    ++depth_;
    FLEXPATH_RETURN_IF_ERROR(ParsePredTerm(context));
    for (;;) {
      SkipWs();
      if (ConsumeKeyword("and")) {
        FLEXPATH_RETURN_IF_ERROR(ParsePredTerm(context));
        continue;
      }
      if (ConsumeKeyword("or")) {
        return Err(
            "disjunction between structural predicates is not supported by "
            "tree patterns; use `or` inside contains(...)");
      }
      --depth_;
      return Status::OK();
    }
  }

  bool ConsumeKeyword(std::string_view kw) {
    SkipWs();
    if (in_.size() - pos_ < kw.size()) return false;
    if (in_.substr(pos_, kw.size()) != kw) return false;
    size_t after = pos_ + kw.size();
    if (after < in_.size() &&
        (std::isalnum(static_cast<unsigned char>(in_[after])) ||
         in_[after] == '_')) {
      return false;
    }
    pos_ = after;
    return true;
  }

  Status ParsePredTerm(VarId context) {
    SkipWs();
    if (AtEnd()) return Err("expected a predicate");
    if (Peek() == '(') {
      ++pos_;
      FLEXPATH_RETURN_IF_ERROR(ParsePredExpr(context));
      SkipWs();
      if (AtEnd() || Peek() != ')') return Err("expected ')'");
      ++pos_;
      return Status::OK();
    }
    if (Peek() == '@') return ParseAttrPred(context);
    if (Peek() == '.') {
      // `.contains(...)`, `./path`, or `.//path`.
      if (StartsWith(in_.substr(pos_), ".contains")) {
        pos_ += 9;
        return ParseContainsArgs(context);
      }
      ++pos_;  // consume '.'
      Axis axis;
      if (!ConsumeAxis(&axis)) {
        return Err("expected '/' or '//' after '.'");
      }
      return ParseRelativePath(context, axis);
    }
    if (StartsWith(in_.substr(pos_), "contains")) {
      // contains(., FTExp)
      pos_ += 8;
      SkipWs();
      if (AtEnd() || Peek() != '(') return Err("expected '(' after contains");
      ++pos_;
      SkipWs();
      if (AtEnd() || Peek() != '.') {
        return Err("expected '.' as the first argument of contains()");
      }
      ++pos_;
      SkipWs();
      if (AtEnd() || Peek() != ',') return Err("expected ',' in contains()");
      ++pos_;
      return ParseContainsBody(context);
    }
    // Bare relative path (e.g. `section/paragraph` inside a predicate).
    Axis axis = Axis::kChild;
    return ParseRelativePath(context, axis);
  }

  /// After `.contains` — expects '( FTExp )'.
  Status ParseContainsArgs(VarId context) {
    SkipWs();
    if (AtEnd() || Peek() != '(') return Err("expected '(' after .contains");
    ++pos_;
    return ParseContainsBody(context);
  }

  /// Parses the FTExp up to the matching ')' and attaches it to $context.
  Status ParseContainsBody(VarId context) {
    // Scan to the matching close paren, honoring nested parens and
    // quoted strings.
    size_t begin = pos_;
    int depth = 1;
    while (pos_ < in_.size() && depth > 0) {
      char c = in_[pos_];
      if (c == '"' || c == '\'') {
        char quote = c;
        ++pos_;
        while (pos_ < in_.size() && in_[pos_] != quote) ++pos_;
        if (pos_ >= in_.size()) return Err("unterminated string in contains");
        ++pos_;
        continue;
      }
      if (c == '(') ++depth;
      if (c == ')') --depth;
      if (depth > 0) ++pos_;
    }
    if (depth != 0) return Err("unterminated contains(...)");
    std::string_view body = in_.substr(begin, pos_ - begin);
    ++pos_;  // consume ')'
    Result<FtExpr> expr = ParseFtExpr(body, opts_);
    if (!expr.ok()) return expr.status();
    query_.AddContains(context, std::move(expr).value());
    return Status::OK();
  }

  Status ParseRelativePath(VarId context, Axis first_axis) {
    VarId last = kInvalidVar;
    FLEXPATH_RETURN_IF_ERROR(ParseStep(&last, context, first_axis));
    Axis axis;
    while (true) {
      // `.contains` directly chained on a path step applies to that step.
      SkipWs();
      if (StartsWith(in_.substr(pos_), ".contains")) {
        pos_ += 9;
        FLEXPATH_RETURN_IF_ERROR(ParseContainsArgs(last));
        continue;
      }
      if (!ConsumeAxis(&axis)) break;
      FLEXPATH_RETURN_IF_ERROR(ParseStep(&last, last, axis));
    }
    return Status::OK();
  }

  Status ParseAttrPred(VarId context) {
    ++pos_;  // consume '@'
    std::string name;
    FLEXPATH_RETURN_IF_ERROR(ParseName(&name));
    SkipWs();
    AttrPred pred;
    pred.attr = dict_->Intern(name);
    auto consume_op = [&](std::string_view op) {
      SkipWs();
      if (in_.size() - pos_ >= op.size() &&
          in_.substr(pos_, op.size()) == op) {
        pos_ += op.size();
        return true;
      }
      return false;
    };
    if (consume_op("!=")) {
      pred.op = AttrPred::Op::kNe;
    } else if (consume_op(">=")) {
      pred.op = AttrPred::Op::kGe;
    } else if (consume_op("<=")) {
      pred.op = AttrPred::Op::kLe;
    } else if (consume_op("=")) {
      pred.op = AttrPred::Op::kEq;
    } else if (consume_op(">")) {
      pred.op = AttrPred::Op::kGt;
    } else if (consume_op("<")) {
      pred.op = AttrPred::Op::kLt;
    } else {
      return Err("expected a comparison operator after @" + name);
    }
    SkipWs();
    if (AtEnd()) return Err("expected a value after the operator");
    if (Peek() == '"' || Peek() == '\'') {
      char quote = Peek();
      ++pos_;
      size_t begin = pos_;
      while (pos_ < in_.size() && in_[pos_] != quote) ++pos_;
      if (pos_ >= in_.size()) return Err("unterminated attribute value");
      pred.value = std::string(in_.substr(begin, pos_ - begin));
      ++pos_;
    } else {
      size_t begin = pos_;
      while (pos_ < in_.size() &&
             (std::isalnum(static_cast<unsigned char>(in_[pos_])) ||
              in_[pos_] == '.' || in_[pos_] == '-' || in_[pos_] == '+')) {
        ++pos_;
      }
      if (pos_ == begin) return Err("expected a value after the operator");
      pred.value = std::string(in_.substr(begin, pos_ - begin));
    }
    query_.AddAttrPred(context, std::move(pred));
    return Status::OK();
  }

  std::string_view in_;
  TagDict* dict_;
  TokenizerOptions opts_;
  Tpq query_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< Predicate blocks and parentheses currently open.
};

}  // namespace

Result<Tpq> ParseXPath(std::string_view input, TagDict* dict,
                       const TokenizerOptions& opts) {
  return XPathParser(input, dict, opts).Parse();
}

}  // namespace flexpath
