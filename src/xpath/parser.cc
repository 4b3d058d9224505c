#include "xpath/parser.h"

#include <string>
#include <vector>

#include "xpath/lexer.h"

namespace twigm::xpath {

namespace {

/// Token-stream cursor with one-symbol lookahead.
class ParserImpl {
 public:
  ParserImpl(std::string_view query, std::vector<Token> tokens)
      : query_(query), tokens_(std::move(tokens)) {}

  Result<PathExpr> ParseTopLevel() {
    PathExpr path;
    // A top-level query must be anchored: '/step...' or '//step...'.
    if (Peek().kind == TokenKind::kSlash) {
      Advance();
      path.absolute_child_anchor = true;
    } else if (Peek().kind == TokenKind::kDoubleSlash) {
      Advance();
      path.absolute_child_anchor = false;
    } else {
      return Error("query must start with '/' or '//'");
    }
    TWIGM_RETURN_IF_ERROR(ParseSteps(/*first_axis=*/path.absolute_child_anchor
                                         ? Axis::kChild
                                         : Axis::kDescendant,
                                     &path));
    if (Peek().kind != TokenKind::kEnd) {
      return Error(std::string("unexpected ") +
                   TokenKindToString(Peek().kind));
    }
    return path;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " +
                              std::to_string(Peek().offset) + " in query '" +
                              std::string(query_) + "'");
  }

  // Parses "Step (('/'|'//') Step)*" into `path`; the first step's axis is
  // `first_axis` (already consumed by the caller).
  Status ParseSteps(Axis first_axis, PathExpr* path) {
    Axis axis = first_axis;
    while (true) {
      Step step;
      step.axis = axis;
      TWIGM_RETURN_IF_ERROR(ParseStep(&step));
      const bool was_attribute = step.kind == NodeTestKind::kAttribute;
      path->steps.push_back(std::move(step));
      if (Peek().kind == TokenKind::kSlash) {
        axis = Axis::kChild;
      } else if (Peek().kind == TokenKind::kDoubleSlash) {
        axis = Axis::kDescendant;
      } else {
        return Status::Ok();
      }
      if (was_attribute) {
        return Error("an attribute test must be the last step of a path");
      }
      Advance();
    }
  }

  Status ParseStep(Step* step) {
    switch (Peek().kind) {
      case TokenKind::kStar:
        Advance();
        step->kind = NodeTestKind::kWildcard;
        break;
      case TokenKind::kName:
        step->kind = NodeTestKind::kName;
        step->name = Advance().text;
        break;
      case TokenKind::kAt: {
        Advance();
        if (Peek().kind != TokenKind::kName) {
          return Error("expected attribute name after '@'");
        }
        step->kind = NodeTestKind::kAttribute;
        step->name = Advance().text;
        if (step->axis == Axis::kDescendant) {
          return Error("'//@name' is not supported; attributes are reached "
                       "with '/@name'");
        }
        break;
      }
      default:
        return Error(std::string("expected a step, found ") +
                     TokenKindToString(Peek().kind));
    }
    while (Peek().kind == TokenKind::kLBracket) {
      if (step->kind == NodeTestKind::kAttribute) {
        return Error("predicates cannot be applied to an attribute test");
      }
      Advance();
      Predicate pred;
      TWIGM_RETURN_IF_ERROR(ParsePredicate(&pred));
      if (Peek().kind != TokenKind::kRBracket) {
        return Error(std::string("expected ']', found ") +
                     TokenKindToString(Peek().kind));
      }
      Advance();
      step->predicates.push_back(std::move(pred));
    }
    return Status::Ok();
  }

  Status ParsePredicate(Predicate* pred) {
    // '.' CmpOp Literal — self value test.
    if (Peek().kind == TokenKind::kDot) {
      Advance();
      pred->self_test = true;
      TWIGM_RETURN_IF_ERROR(ParseValueTest(/*required=*/true, pred));
      return Status::Ok();
    }
    // Relative path, optionally './/'-anchored, optionally compared.
    Axis first_axis = Axis::kChild;
    if (Peek().kind == TokenKind::kDoubleSlash) {
      // Allow the common shorthand '[//x]' meaning a descendant of the
      // context node (XPath would spell it './/x').
      Advance();
      first_axis = Axis::kDescendant;
    } else if (Peek().kind == TokenKind::kSlash) {
      return Error("predicate paths are relative; remove the leading '/'");
    }
    TWIGM_RETURN_IF_ERROR(ParseSteps(first_axis, &pred->path));
    TWIGM_RETURN_IF_ERROR(ParseValueTest(/*required=*/false, pred));
    return Status::Ok();
  }

  Status ParseValueTest(bool required, Predicate* pred) {
    CmpOp op;
    switch (Peek().kind) {
      case TokenKind::kEq: op = CmpOp::kEq; break;
      case TokenKind::kNe: op = CmpOp::kNe; break;
      case TokenKind::kLt: op = CmpOp::kLt; break;
      case TokenKind::kLe: op = CmpOp::kLe; break;
      case TokenKind::kGt: op = CmpOp::kGt; break;
      case TokenKind::kGe: op = CmpOp::kGe; break;
      default:
        if (required) {
          return Error("expected a comparison operator after '.'");
        }
        return Status::Ok();
    }
    Advance();
    if (Peek().kind == TokenKind::kStringLiteral) {
      pred->literal = Advance().text;
      pred->literal_is_number = false;
    } else if (Peek().kind == TokenKind::kNumber) {
      pred->literal = Advance().text;
      pred->literal_is_number = true;
    } else {
      return Error("expected a string or number literal after comparison");
    }
    pred->has_value_test = true;
    pred->op = op;
    return Status::Ok();
  }

  std::string_view query_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

// Measures the query tree's depth on the flat token list, without
// recursion: each step ('name', '*', '@name') goes one level deeper, '['
// remembers the depth of the step it qualifies and ']' returns to it.
Status CheckDepth(const std::vector<Token>& tokens) {
  std::vector<int> open;  // step depth at each unclosed '['
  int depth = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    switch (tokens[i].kind) {
      case TokenKind::kName:
        if (i > 0 && tokens[i - 1].kind == TokenKind::kAt) break;
        [[fallthrough]];
      case TokenKind::kStar:
      case TokenKind::kAt:
        if (++depth > kMaxQueryDepth) {
          return Status::ParseError(
              "query is deeper than the limit of " +
              std::to_string(kMaxQueryDepth) + " steps (kMaxQueryDepth) at "
              "offset " + std::to_string(tokens[i].offset));
        }
        break;
      case TokenKind::kLBracket:
        open.push_back(depth);
        break;
      case TokenKind::kRBracket:
        if (!open.empty()) {
          depth = open.back();
          open.pop_back();
        }
        break;
      default:
        break;
    }
  }
  return Status::Ok();
}

}  // namespace

Result<PathExpr> ParseQuery(std::string_view query) {
  Result<std::vector<Token>> tokens = Tokenize(query);
  if (!tokens.ok()) return tokens.status();
  TWIGM_RETURN_IF_ERROR(CheckDepth(tokens.value()));
  ParserImpl impl(query, std::move(tokens).value());
  return impl.ParseTopLevel();
}

const char* CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

std::string ToString(const Predicate& pred) {
  std::string out = "[";
  if (pred.self_test) {
    out += ".";
  } else {
    // Relative path: render without a leading axis for child, '//' for
    // descendant anchoring.
    bool first = true;
    for (const Step& s : pred.path.steps) {
      if (!first || s.axis == Axis::kDescendant) {
        out += s.axis == Axis::kChild ? "/" : "//";
      }
      out += ToString(s);
      first = false;
    }
  }
  if (pred.has_value_test) {
    out += CmpOpToString(pred.op);
    if (pred.literal_is_number) {
      out += pred.literal;
    } else {
      out += "\"" + pred.literal + "\"";
    }
  }
  out += "]";
  return out;
}

std::string ToString(const Step& step) {
  std::string out;
  switch (step.kind) {
    case NodeTestKind::kName:
      out = step.name;
      break;
    case NodeTestKind::kWildcard:
      out = "*";
      break;
    case NodeTestKind::kAttribute:
      out = "@" + step.name;
      break;
  }
  for (const Predicate& p : step.predicates) {
    out += ToString(p);
  }
  return out;
}

std::string ToString(const PathExpr& path) {
  std::string out;
  bool first = true;
  for (const Step& s : path.steps) {
    if (first) {
      out += (path.absolute_child_anchor ? "/" : "//");
    } else {
      out += (s.axis == Axis::kChild ? "/" : "//");
    }
    out += ToString(s);
    first = false;
  }
  return out;
}

}  // namespace twigm::xpath
