#ifndef FLEXPATH_QUERY_XPATH_PARSER_H_
#define FLEXPATH_QUERY_XPATH_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/status.h"
#include "ir/tokenizer.h"
#include "query/tpq.h"
#include "xml/tag_dict.h"

namespace flexpath {

/// Deepest nesting of predicate blocks and parentheses ParseXPath
/// accepts: `//a[./b[./c]]` nests two levels. Far above any hand-written
/// query, and far below the depth that would overflow the stack of the
/// recursive-descent parser.
inline constexpr int kMaxXPathDepth = 256;

/// Most tree-pattern nodes (element steps, in the main path and inside
/// predicates) ParseXPath accepts. The join plan's violation mask has 64
/// bits, and closure and schedule work grow steeply with query size (a
/// 24-step chain already costs seconds), so a larger query is refused at
/// parse time before any of that work starts.
inline constexpr size_t kMaxTpqNodes = 64;

/// Parses the tree-pattern fragment of XPath used throughout the paper
/// into a Tpq. Supported:
///   - absolute paths with / (parent-child) and // (ancestor-descendant)
///     steps: //article/section, //item//parlist
///   - predicates [..] containing relative paths (./a/b, .//c), possibly
///     nested, combined with `and`
///   - full-text: .contains("XML" and "streaming") or
///     contains(., "XML" and "streaming") — FTExp syntax per ParseFtExpr
///   - attribute comparisons: [@id='item1'], [@quantity >= 2]
/// The distinguished (answer) node is the last step of the main path.
/// Tag names are interned into `dict`; keywords are normalized with
/// `opts`. Disjunction between structural predicates is rejected (tree
/// patterns are conjunctive); use `or` inside contains(...) instead.
/// Nesting deeper than kMaxXPathDepth, or more than kMaxTpqNodes steps,
/// is a ParseError.
Result<Tpq> ParseXPath(std::string_view input, TagDict* dict,
                       const TokenizerOptions& opts = {});

}  // namespace flexpath

#endif  // FLEXPATH_QUERY_XPATH_PARSER_H_
