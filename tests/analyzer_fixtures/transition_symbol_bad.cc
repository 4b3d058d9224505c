// Fixture: string equality on tag text in transition functions. A prior
// symbol test on the path does not excuse it: machines have no
// byte-comparing fallback.
#include <string>
#include <string_view>

namespace fixture {

inline constexpr unsigned kNoSym = ~0u;

struct TagTok {
  std::string_view text;
  unsigned symbol = kNoSym;
};

struct NodeMachine {
  std::string label_;
  unsigned symbol_ = kNoSym;

  bool StartElement(const TagTok& tag) {
    return tag.text == label_;  // expect: symbol-compare
  }

  bool ConsiderChild(const TagTok& tag, bool wildcard) {
    if (wildcard) return true;
    if (tag.text != label_) {  // expect: symbol-compare
      return false;
    }
    return true;
  }

  bool EndElement(const TagTok& tag) {
    if (tag.symbol != kNoSym) {
      return tag.symbol == symbol_;
    }
    return tag.text == label_;  // expect: symbol-compare
  }

  bool TryStartNode(const TagTok& tag) {
    const bool sym = tag.symbol != kNoSym;
    return sym ? tag.symbol == symbol_ : tag.text == label_;  // expect: symbol-compare
  }
};

}  // namespace fixture
