// Fixture: transition functions that dispatch on interned symbols only,
// and a byte comparison outside any transition function.
#include <string>
#include <string_view>

namespace fixture {

struct SymTagTok {
  std::string_view text;
  unsigned symbol = 0;
};

struct SymNodeMachine {
  std::string label_;
  unsigned symbol_ = 0;

  bool StartElement(const SymTagTok& tag) { return tag.symbol == symbol_; }

  bool ConsiderChild(const SymTagTok& tag, bool wildcard) {
    return wildcard || tag.symbol == symbol_;
  }

  bool DescribeMatches(const SymTagTok& tag) const {
    return tag.text == label_;  // not a transition function
  }
};

}  // namespace fixture
