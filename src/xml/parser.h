#ifndef FLEXPATH_XML_PARSER_H_
#define FLEXPATH_XML_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "xml/document.h"

namespace flexpath {

/// Deepest element nesting ParseXml accepts (the root element is level
/// 1). Real documents stay within a few dozen levels; the bound keeps the
/// recursive-descent parser far from the thread's stack limit, so an
/// adversarial input gets a ParseError instead of a stack overflow.
inline constexpr int kMaxXmlDepth = 1024;

/// Parses `input` (a complete XML document) into a Document, interning tag
/// names into `dict`. Supported: elements, attributes (both quote styles),
/// character data, the five predefined entities plus decimal/hex character
/// references, comments, CDATA sections, processing instructions and an
/// (ignored) DOCTYPE. Namespaces are not expanded — prefixed names are kept
/// verbatim, which is sufficient for the corpora this library targets.
/// Errors carry 1-based line/column positions; nesting deeper than
/// kMaxXmlDepth is an error.
Result<Document> ParseXml(std::string_view input, TagDict* dict);

}  // namespace flexpath

#endif  // FLEXPATH_XML_PARSER_H_
