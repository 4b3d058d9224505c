// In-memory document object model.
//
// The streaming machines never touch this; it exists for the non-streaming
// baselines the paper compares against (Galax, XMLTaskForce — engines that
// load the whole document and evaluate with random access) and as the
// correctness oracle in differential tests. Nodes carry the same (level, id)
// coordinates as the modified SAX events so results can be compared across
// engines.

#ifndef TWIGM_XML_DOM_H_
#define TWIGM_XML_DOM_H_

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/sax_event.h"

namespace twigm::xml {

/// An attribute owned by the tree. The streaming xml::Attribute carries
/// borrowed views into the parser's buffers (valid only for the callback);
/// the DOM is the one place that keeps attributes, so it copies here.
struct OwnedAttribute {
  std::string name;
  std::string value;
};

/// One element node. Text content is accumulated per-node (concatenation of
/// all directly contained character data), which is what value predicates
/// compare against.
struct DomNode {
  std::string tag;
  std::vector<OwnedAttribute> attributes;
  std::string text;          // direct character data, concatenated
  int level = 0;             // root = 1
  NodeId id = 0;             // pre-order, first element = 1
  DomNode* parent = nullptr;
  std::vector<DomNode*> children;

  /// Returns the attribute value, or nullptr if absent.
  const std::string* FindAttribute(std::string_view name) const {
    for (const OwnedAttribute& a : attributes) {
      if (a.name == name) return &a.value;
    }
    return nullptr;
  }
};

/// A parsed document owning its nodes. Node pointers remain valid for the
/// document's lifetime.
class DomDocument {
 public:
  DomDocument() = default;
  DomDocument(const DomDocument&) = delete;
  DomDocument& operator=(const DomDocument&) = delete;
  DomDocument(DomDocument&&) = default;
  DomDocument& operator=(DomDocument&&) = default;

  /// Parses `doc` into a tree. Fails on malformed input.
  static Result<DomDocument> Parse(std::string_view doc);

  const DomNode* root() const { return root_; }
  DomNode* root() { return root_; }

  /// Number of element nodes.
  size_t size() const { return nodes_.size(); }

  /// Maximum element depth (root = 1); 0 for an (impossible) empty document.
  int depth() const { return depth_; }

  /// All nodes in document order.
  const std::deque<DomNode>& nodes() const { return nodes_; }

  /// Approximate heap footprint of the tree, for memory reporting.
  size_t ApproximateMemoryBytes() const;

 private:
  friend class DomAssembler;

  std::deque<DomNode> nodes_;  // stable addresses
  DomNode* root_ = nullptr;
  int depth_ = 0;
};

/// Incremental tree assembly. Used by DomBuilder (raw SAX) and by engines
/// that buffer document structure from modified SAX events (the XAOS-style
/// baseline). Levels and ids are assigned by the assembler (root = 1,
/// pre-order ids from 1).
class DomAssembler {
 public:
  DomAssembler() = default;

  /// Opens an element; returns the node (owned by the document).
  DomNode* StartElement(std::string_view tag,
                        const std::vector<Attribute>& attrs);
  /// Closes the innermost open element.
  void EndElement();
  /// Appends character data to the innermost open element (if any).
  void Text(std::string_view text);

  /// Number of open elements.
  size_t depth() const { return stack_.size(); }

  /// Returns the finished document and resets the assembler.
  DomDocument TakeDocument();

 private:
  DomDocument doc_;
  std::vector<DomNode*> stack_;
  NodeId next_id_ = 0;
};

/// Event sink that builds a DomDocument. Exposed so callers already holding
/// an event stream (e.g. from a generator) can build a DOM without
/// re-serializing.
class DomBuilder : public StreamEventSink {
 public:
  DomBuilder() = default;

  void StartElement(const TagToken& tag, int level, NodeId id,
                    const std::vector<Attribute>& attrs) override;
  void EndElement(const TagToken& tag, int level) override;
  void Text(std::string_view text, int level) override;

  /// Returns the finished document. Call after parsing succeeds.
  DomDocument TakeDocument();

 private:
  DomAssembler assembler_;
};

}  // namespace twigm::xml

#endif  // TWIGM_XML_DOM_H_
