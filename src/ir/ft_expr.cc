#include "ir/ft_expr.h"

#include <cctype>
#include <string>

#include "common/string_util.h"

namespace flexpath {

FtExpr FtExpr::Term(std::string_view word, const TokenizerOptions& opts) {
  FtExpr e;
  e.kind_ = FtKind::kTerm;
  e.term_ = NormalizeTerm(word, opts);
  return e;
}

FtExpr FtExpr::Phrase(const std::vector<std::string>& words,
                      const TokenizerOptions& opts) {
  FtExpr e;
  e.kind_ = FtKind::kPhrase;
  for (const std::string& w : words) {
    // Stopwords inside a phrase are kept out of the match requirement but
    // a fully-stopword phrase degenerates to nothing; callers should
    // validate. Normalization must match the indexing pipeline.
    std::string norm = NormalizeTerm(w, opts);
    if (!norm.empty()) e.phrase_.push_back(std::move(norm));
  }
  if (e.phrase_.size() == 1) {
    FtExpr t;
    t.kind_ = FtKind::kTerm;
    t.term_ = e.phrase_[0];
    return t;
  }
  return e;
}

FtExpr FtExpr::Near(const std::vector<std::string>& words, uint32_t window,
                    const TokenizerOptions& opts) {
  FtExpr e;
  e.kind_ = FtKind::kNear;
  e.window_ = window == 0 ? 1 : window;
  for (const std::string& w : words) {
    std::string norm = NormalizeTerm(w, opts);
    if (!norm.empty()) e.phrase_.push_back(std::move(norm));
  }
  if (e.phrase_.size() == 1) {
    FtExpr t;
    t.kind_ = FtKind::kTerm;
    t.term_ = e.phrase_[0];
    return t;
  }
  return e;
}

FtExpr FtExpr::And(FtExpr lhs, FtExpr rhs) {
  FtExpr e;
  e.kind_ = FtKind::kAnd;
  e.children_.push_back(std::move(lhs));
  e.children_.push_back(std::move(rhs));
  return e;
}

FtExpr FtExpr::Or(FtExpr lhs, FtExpr rhs) {
  FtExpr e;
  e.kind_ = FtKind::kOr;
  e.children_.push_back(std::move(lhs));
  e.children_.push_back(std::move(rhs));
  return e;
}

FtExpr FtExpr::Not(FtExpr child) {
  FtExpr e;
  e.kind_ = FtKind::kNot;
  e.children_.push_back(std::move(child));
  return e;
}

std::string FtExpr::ToString() const {
  switch (kind_) {
    case FtKind::kTerm:
      return "\"" + term_ + "\"";
    case FtKind::kPhrase: {
      std::string out = "\"";
      for (size_t i = 0; i < phrase_.size(); ++i) {
        if (i > 0) out += ' ';
        out += phrase_[i];
      }
      return out + "\"";
    }
    case FtKind::kNear: {
      std::string out = "near(";
      for (size_t i = 0; i < phrase_.size(); ++i) {
        if (i > 0) out += ' ';
        out += "\"" + phrase_[i] + "\"";
      }
      return out + ", " + std::to_string(window_) + ")";
    }
    // Sequential appends rather than one chained concatenation: GCC 12's
    // -Wrestrict misfires on the chained operator+ form here.
    case FtKind::kAnd: {
      std::string out = "(";
      out += children_[0].ToString();
      out += " and ";
      out += children_[1].ToString();
      out += ")";
      return out;
    }
    case FtKind::kOr: {
      std::string out = "(";
      out += children_[0].ToString();
      out += " or ";
      out += children_[1].ToString();
      out += ")";
      return out;
    }
    case FtKind::kNot:
      return "(not " + children_[0].ToString() + ")";
  }
  return "";
}

std::vector<std::string> FtExpr::PositiveTerms() const {
  std::vector<std::string> out;
  switch (kind_) {
    case FtKind::kTerm:
      out.push_back(term_);
      break;
    case FtKind::kPhrase:
    case FtKind::kNear:
      out = phrase_;
      break;
    case FtKind::kAnd:
    case FtKind::kOr:
      for (const FtExpr& c : children_) {
        for (std::string& t : c.PositiveTerms()) out.push_back(std::move(t));
      }
      break;
    case FtKind::kNot:
      break;  // negated terms do not contribute positive evidence
  }
  return out;
}

bool operator==(const FtExpr& a, const FtExpr& b) {
  return a.kind_ == b.kind_ && a.term_ == b.term_ &&
         a.phrase_ == b.phrase_ && a.window_ == b.window_ &&
         a.children_ == b.children_;
}

namespace {

/// Recursive-descent parser for the FTExp grammar.
class FtParser {
 public:
  FtParser(std::string_view in, const TokenizerOptions& opts)
      : in_(in), opts_(opts) {}

  Result<FtExpr> Parse() {
    Result<FtExpr> e = ParseOr();
    if (!e.ok()) return e;
    SkipWs();
    if (pos_ != in_.size()) {
      return Status::ParseError("unexpected trailing input in FTExp at '" +
                                std::string(in_.substr(pos_)) + "'");
    }
    return e;
  }

 private:
  void SkipWs() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  bool ConsumeKeyword(std::string_view kw) {
    SkipWs();
    if (in_.size() - pos_ < kw.size()) return false;
    for (size_t i = 0; i < kw.size(); ++i) {
      char c = in_[pos_ + i];
      if (std::tolower(static_cast<unsigned char>(c)) != kw[i]) return false;
    }
    // Keyword must not run into an identifier character.
    size_t after = pos_ + kw.size();
    if (after < in_.size() &&
        (std::isalnum(static_cast<unsigned char>(in_[after])) ||
         in_[after] == '_')) {
      return false;
    }
    pos_ = after;
    return true;
  }

  // Nesting is counted in depth_: one level per `not`, per '(' and per
  // chained `and`/`or` operand (a chain builds a left-deep tree, one
  // level per operator, which later tree walks recurse through). An
  // error ends the whole parse, so error returns leave depth_ as is.

  Result<FtExpr> ParseOr() {
    Result<FtExpr> lhs = ParseAnd();
    if (!lhs.ok()) return lhs;
    FtExpr e = std::move(lhs).value();
    const int base = depth_;
    while (ConsumeKeyword("or")) {
      if (depth_ == kMaxFtExprDepth) return TooDeep();
      ++depth_;
      Result<FtExpr> rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      e = FtExpr::Or(std::move(e), std::move(rhs).value());
    }
    depth_ = base;
    return e;
  }

  Result<FtExpr> ParseAnd() {
    Result<FtExpr> lhs = ParseUnary();
    if (!lhs.ok()) return lhs;
    FtExpr e = std::move(lhs).value();
    const int base = depth_;
    while (ConsumeKeyword("and")) {
      if (depth_ == kMaxFtExprDepth) return TooDeep();
      ++depth_;
      Result<FtExpr> rhs = ParseUnary();
      if (!rhs.ok()) return rhs;
      e = FtExpr::And(std::move(e), std::move(rhs).value());
    }
    depth_ = base;
    return e;
  }

  /// The error for a level that would nest past kMaxFtExprDepth.
  Status TooDeep() const {
    return Status::ParseError("FTExp, position " + std::to_string(pos_) +
                              ": nested deeper than " +
                              std::to_string(kMaxFtExprDepth) + " levels");
  }

  Result<FtExpr> ParseUnary() {
    if (ConsumeKeyword("not")) {
      if (depth_ == kMaxFtExprDepth) return TooDeep();
      ++depth_;
      Result<FtExpr> child = ParseUnary();
      if (!child.ok()) return child;
      --depth_;
      return FtExpr::Not(std::move(child).value());
    }
    if (ConsumeKeyword("near")) {
      return ParseNear();
    }
    SkipWs();
    if (pos_ < in_.size() && in_[pos_] == '(') {
      if (depth_ == kMaxFtExprDepth) return TooDeep();
      ++depth_;
      ++pos_;
      Result<FtExpr> inner = ParseOr();
      if (!inner.ok()) return inner;
      SkipWs();
      if (pos_ >= in_.size() || in_[pos_] != ')') {
        return Status::ParseError("expected ')' in FTExp");
      }
      ++pos_;
      --depth_;
      return inner;
    }
    if (pos_ < in_.size() && (in_[pos_] == '"' || in_[pos_] == '\'')) {
      char quote = in_[pos_++];
      size_t begin = pos_;
      while (pos_ < in_.size() && in_[pos_] != quote) ++pos_;
      if (pos_ >= in_.size()) {
        return Status::ParseError("unterminated quoted string in FTExp");
      }
      std::string_view content = in_.substr(begin, pos_ - begin);
      ++pos_;
      std::vector<std::string> words;
      for (const std::string& part : SplitWords(content)) words.push_back(part);
      if (words.empty()) {
        return Status::ParseError("empty quoted string in FTExp");
      }
      if (words.size() == 1) return FtExpr::Term(words[0], opts_);
      return FtExpr::Phrase(words, opts_);
    }
    // Bare word.
    size_t begin = pos_;
    while (pos_ < in_.size() &&
           (std::isalnum(static_cast<unsigned char>(in_[pos_])) ||
            in_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == begin) {
      return Status::ParseError("expected a keyword in FTExp at '" +
                                std::string(in_.substr(pos_)) + "'");
    }
    return FtExpr::Term(in_.substr(begin, pos_ - begin), opts_);
  }

  /// After the 'near' keyword: '(' (quoted | word)+ ',' INT ')'.
  Result<FtExpr> ParseNear() {
    SkipWs();
    if (pos_ >= in_.size() || in_[pos_] != '(') {
      return Status::ParseError("expected '(' after near");
    }
    ++pos_;
    std::vector<std::string> words;
    for (;;) {
      SkipWs();
      if (pos_ >= in_.size()) {
        return Status::ParseError("unterminated near(...)");
      }
      if (in_[pos_] == ',') break;
      if (in_[pos_] == '"' || in_[pos_] == '\'') {
        char quote = in_[pos_++];
        size_t begin = pos_;
        while (pos_ < in_.size() && in_[pos_] != quote) ++pos_;
        if (pos_ >= in_.size()) {
          return Status::ParseError("unterminated string in near(...)");
        }
        for (std::string& w : SplitWords(in_.substr(begin, pos_ - begin))) {
          words.push_back(std::move(w));
        }
        ++pos_;
        continue;
      }
      size_t begin = pos_;
      while (pos_ < in_.size() &&
             (std::isalnum(static_cast<unsigned char>(in_[pos_])) ||
              in_[pos_] == '_')) {
        ++pos_;
      }
      if (pos_ == begin) {
        return Status::ParseError("expected a keyword or ',' in near(...)");
      }
      words.emplace_back(in_.substr(begin, pos_ - begin));
    }
    ++pos_;  // ','
    SkipWs();
    size_t begin = pos_;
    while (pos_ < in_.size() &&
           std::isdigit(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
    if (pos_ == begin) {
      return Status::ParseError("expected a window size in near(...)");
    }
    const uint32_t window = static_cast<uint32_t>(
        std::stoul(std::string(in_.substr(begin, pos_ - begin))));
    SkipWs();
    if (pos_ >= in_.size() || in_[pos_] != ')') {
      return Status::ParseError("expected ')' after near window");
    }
    ++pos_;
    if (words.size() < 2) {
      return Status::ParseError("near(...) needs at least two keywords");
    }
    return FtExpr::Near(words, window, opts_);
  }

  static std::vector<std::string> SplitWords(std::string_view s) {
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!cur.empty()) out.push_back(std::move(cur)), cur.clear();
      } else {
        cur += c;
      }
    }
    if (!cur.empty()) out.push_back(std::move(cur));
    return out;
  }

  std::string_view in_;
  TokenizerOptions opts_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< Nesting levels open at the current position.
};

}  // namespace

Result<FtExpr> ParseFtExpr(std::string_view input,
                           const TokenizerOptions& opts) {
  return FtParser(input, opts).Parse();
}

}  // namespace flexpath
