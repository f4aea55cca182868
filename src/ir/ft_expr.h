#ifndef FLEXPATH_IR_FT_EXPR_H_
#define FLEXPATH_IR_FT_EXPR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "ir/tokenizer.h"

namespace flexpath {

/// Node kinds of a full-text expression tree (the FTExp of the paper's
/// contains($i, FTExp) predicate). The paper delegates FTExp richness to
/// the IR engine ("stemming, proximity distance, Boolean predicates");
/// kNear is the proximity-distance operator.
enum class FtKind {
  kTerm,    ///< One normalized keyword.
  kPhrase,  ///< Consecutive keywords within one element's text.
  kNear,    ///< All keywords within a token window in one element's text.
  kAnd,
  kOr,
  kNot,
};

/// A boolean full-text search expression. Values are immutable trees and
/// freely copyable. Terms are stored normalized (lowercased/stemmed with
/// the same pipeline as indexing), so equal-looking queries compare equal.
class FtExpr {
 public:
  /// Builders.
  static FtExpr Term(std::string_view word,
                     const TokenizerOptions& opts = {});
  static FtExpr Phrase(const std::vector<std::string>& words,
                       const TokenizerOptions& opts = {});
  /// Proximity: every word occurs in one element's text, pairwise within
  /// `window` token positions (order-insensitive). window >= 1.
  static FtExpr Near(const std::vector<std::string>& words, uint32_t window,
                     const TokenizerOptions& opts = {});
  static FtExpr And(FtExpr lhs, FtExpr rhs);
  static FtExpr Or(FtExpr lhs, FtExpr rhs);
  static FtExpr Not(FtExpr child);

  FtKind kind() const { return kind_; }
  /// For kTerm: the normalized term. Empty for other kinds.
  const std::string& term() const { return term_; }
  /// For kPhrase/kNear: the normalized words (in order for phrases).
  const std::vector<std::string>& phrase() const { return phrase_; }
  /// For kNear: the token window.
  uint32_t window() const { return window_; }
  const std::vector<FtExpr>& children() const { return children_; }

  /// Canonical text form, used as a cache key and in diagnostics, e.g.
  /// `("xml" and "stream")`. Deterministic for equal expressions.
  std::string ToString() const;

  /// All positive (non-negated) terms, including phrase words — the terms
  /// that contribute to tf-idf scoring.
  std::vector<std::string> PositiveTerms() const;

  friend bool operator==(const FtExpr& a, const FtExpr& b);

 private:
  FtExpr() = default;

  FtKind kind_ = FtKind::kTerm;
  std::string term_;
  std::vector<std::string> phrase_;
  uint32_t window_ = 0;
  std::vector<FtExpr> children_;
};

/// Deepest nesting ParseFtExpr accepts, counting one level per `not`, per
/// parenthesis and per chained `and`/`or` operand (a chain of n operands
/// is a tree n-1 levels deep). Far above any hand-written expression,
/// and far below the depth that would overflow the stack of the parser
/// or of the recursive walks over the parsed tree.
inline constexpr int kMaxFtExprDepth = 256;

/// Parses the paper's FTExp syntax:
///   expr  := or ; or := and ('or' and)* ; and := unary ('and' unary)*
///   unary := 'not' unary | '(' expr ')' | near | quoted | bareword
///   near  := 'near' '(' quoted-or-word+ ',' INT ')'
/// A quoted string with several words is a phrase. Keywords are normalized
/// with `opts`. Examples: `"XML" and "streaming"`, `not ("gold" or rare)`,
/// `near("gold" "ring", 4)`. Nesting deeper than kMaxFtExprDepth is a
/// ParseError.
Result<FtExpr> ParseFtExpr(std::string_view input,
                           const TokenizerOptions& opts = {});

}  // namespace flexpath

#endif  // FLEXPATH_IR_FT_EXPR_H_
