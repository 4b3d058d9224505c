// Recursive-descent parser producing a PathExpr AST from XPath text.

#ifndef TWIGM_XPATH_PARSER_H_
#define TWIGM_XPATH_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "xpath/ast.h"

namespace twigm::xpath {

/// Longest root-to-leaf chain of steps a query may have. Every predicate
/// nesting level adds at least one step, so this also caps nesting.
/// Compilation, rendering and analysis recurse along such chains; the cap
/// keeps a hostile query (say a subscription) from exhausting the stack.
inline constexpr int kMaxQueryDepth = 256;

/// Parses a top-level query in XP{/,//,*,[]} (plus attribute and value
/// tests). The query must start with '/' or '//'. A query deeper than
/// kMaxQueryDepth is a ParseError, found before any recursive descent.
Result<PathExpr> ParseQuery(std::string_view query);

}  // namespace twigm::xpath

#endif  // TWIGM_XPATH_PARSER_H_
