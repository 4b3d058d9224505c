#include "xml/dom.h"

#include "xml/sax_parser.h"

namespace twigm::xml {

DomNode* DomAssembler::StartElement(std::string_view tag,
                                    const std::vector<Attribute>& attrs) {
  doc_.nodes_.emplace_back();
  DomNode* node = &doc_.nodes_.back();
  node->tag.assign(tag);
  node->attributes.reserve(attrs.size());
  for (const Attribute& a : attrs) {
    node->attributes.push_back(
        OwnedAttribute{std::string(a.name), std::string(a.value)});
  }
  node->level = static_cast<int>(stack_.size()) + 1;
  node->id = ++next_id_;
  if (stack_.empty()) {
    doc_.root_ = node;
  } else {
    node->parent = stack_.back();
    stack_.back()->children.push_back(node);
  }
  if (node->level > doc_.depth_) doc_.depth_ = node->level;
  stack_.push_back(node);
  return node;
}

void DomAssembler::EndElement() { stack_.pop_back(); }

void DomAssembler::Text(std::string_view text) {
  if (!stack_.empty()) stack_.back()->text.append(text);
}

DomDocument DomAssembler::TakeDocument() {
  stack_.clear();
  next_id_ = 0;
  DomDocument out = std::move(doc_);
  doc_ = DomDocument();
  return out;
}

void DomBuilder::StartElement(const TagToken& tag, int level, NodeId id,
                              const std::vector<Attribute>& attrs) {
  (void)level;  // the assembler numbers and nests nodes itself
  (void)id;
  assembler_.StartElement(tag.text, attrs);
}

void DomBuilder::EndElement(const TagToken& tag, int level) {
  (void)tag;  // the parser already verified tag matching
  (void)level;
  assembler_.EndElement();
}

void DomBuilder::Text(std::string_view text, int level) {
  (void)level;
  assembler_.Text(text);
}

DomDocument DomBuilder::TakeDocument() { return assembler_.TakeDocument(); }

Result<DomDocument> DomDocument::Parse(std::string_view doc) {
  DomBuilder builder;
  SaxParser parser(&builder);
  Status s = parser.ParseAll(doc);
  if (!s.ok()) return s;
  return builder.TakeDocument();
}

size_t DomDocument::ApproximateMemoryBytes() const {
  size_t total = 0;
  for (const DomNode& n : nodes_) {
    total += sizeof(DomNode);
    total += n.tag.capacity();
    total += n.text.capacity();
    total += n.children.capacity() * sizeof(DomNode*);
    for (const OwnedAttribute& a : n.attributes) {
      total += sizeof(OwnedAttribute) + a.name.capacity() + a.value.capacity();
    }
  }
  return total;
}

}  // namespace twigm::xml
