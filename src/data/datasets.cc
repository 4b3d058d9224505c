#include "data/datasets.h"

#include <unordered_map>

#include "common/string_util.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace twigm::data {

std::string DatasetFeatures::ToString() const {
  std::string out;
  out += "size=" + HumanBytes(bytes);
  out += " elements=" + WithThousands(elements);
  out += " attributes=" + WithThousands(attributes);
  out += " depth=" + std::to_string(max_depth);
  out += recursive ? " recursive" : " non-recursive";
  return out;
}

namespace {

// Measures features in one SAX pass; recursion = a tag occurring twice on
// the open-element path.
class FeatureHandler : public xml::StreamEventSink {
 public:
  explicit FeatureHandler(DatasetFeatures* out) : out_(out) {}

  void StartElement(const xml::TagToken& tag, int level, xml::NodeId id,
                    const std::vector<xml::Attribute>& attrs) override {
    (void)id;
    ++out_->elements;
    out_->attributes += attrs.size();
    if (level > out_->max_depth) out_->max_depth = level;
    // lint: allow-string-copy(offline dataset feature pass, not a stream path)
    auto [it, inserted] = open_counts_.try_emplace(std::string(tag.text), 0);
    if (++it->second > 1) out_->recursive = true;
    (void)inserted;
    path_.emplace_back(it->first);
  }

  void EndElement(const xml::TagToken& tag, int level) override {
    (void)tag;
    (void)level;
    --open_counts_[path_.back()];
    path_.pop_back();
  }

  void Text(std::string_view text, int level) override {
    (void)level;
    out_->text_bytes += text.size();
  }

 private:
  DatasetFeatures* out_;
  std::unordered_map<std::string, int> open_counts_;
  std::vector<std::string> path_;
};

}  // namespace

Result<DatasetFeatures> ComputeFeatures(std::string_view document) {
  DatasetFeatures features;
  features.bytes = document.size();
  FeatureHandler handler(&features);
  xml::SaxParser parser(&handler);
  Status s = parser.ParseAll(document);
  if (!s.ok()) return s;
  return features;
}

const std::vector<QuerySpec>& BookQueries() {
  static const std::vector<QuerySpec>* kQueries = new std::vector<QuerySpec>{
      // XP{/,//,*}: linear paths.
      {"Q1", "//book/section/title", "XP{/,//,*}"},
      {"Q2", "//section//figure", "XP{/,//,*}"},
      {"Q3", "//section/*/image", "XP{/,//,*}"},
      {"Q4", "//*//figure/*", "XP{/,//,*}"},
      // XP{/,//,[]}: predicates restricted to an attribute or one child.
      {"Q5", "//section[title]/figure", "XP{/,//,[]}"},
      {"Q6", "//section[@id]//figure", "XP{/,//,[]}"},
      {"Q7", "//figure[image]/title", "XP{/,//,[]}"},
      // Q8: value test, small result (paper: "produces results of small
      // sizes").
      {"Q8", "//section[title=\"data\"]//image", "XP{/,//,[]}"},
      // XP{/,//,*,[]}: multiple/nested predicates, '*' anywhere.
      {"Q9", "//*[title][figure[image]]//p", "XP{/,//,*,[]}"},
      {"Q10", "//section[figure[image]][@id]//section[p]/title",
       "XP{/,//,*,[]}"},
  };
  return *kQueries;
}

const std::vector<QuerySpec>& ProteinQueries() {
  static const std::vector<QuerySpec>* kQueries = new std::vector<QuerySpec>{
      {"Q1", "/ProteinDatabase/ProteinEntry/header/uid", "XP{/,//,*}"},
      {"Q2", "//reference//author", "XP{/,//,*}"},
      {"Q3", "//ProteinEntry/*/name", "XP{/,//,*}"},
      {"Q4", "//*//citation/*", "XP{/,//,*}"},
      {"Q5", "//ProteinEntry[header]/sequence", "XP{/,//,[]}"},
      {"Q6", "//refinfo[@refid]//journal", "XP{/,//,[]}"},
      {"Q7", "//citation[journal]/year", "XP{/,//,[]}"},
      {"Q8", "//organism[common=\"human\"]/source", "XP{/,//,[]}"},
      {"Q9", "//ProteinEntry[organism[common=\"human\"]][header]//journal",
       "XP{/,//,*,[]}"},
      {"Q10",
       "//*[header][protein/classification]//refinfo[citation[year]]//author",
       "XP{/,//,*,[]}"},
  };
  return *kQueries;
}

const std::vector<QuerySpec>& AuctionQueries() {
  static const std::vector<QuerySpec>* kQueries = new std::vector<QuerySpec>{
      {"XM1", "//open_auction/bidder/increase", "XP{/,//,*}"},
      {"XM2", "//description//listitem//text", "XP{/,//,*}"},
      {"XM3", "//person/*/interest", "XP{/,//,*}"},
      {"XM4", "//item[location]/name", "XP{/,//,[]}"},
      {"XM5", "//open_auction[bidder]/current", "XP{/,//,[]}"},
      {"XM6", "//person[address/zipcode]/name", "XP{/,//,*,[]}"},
      {"XM7", "//open_auction[bidder[personref]]//increase",
       "XP{/,//,*,[]}"},
      {"XM8", "//regions//item[description//listitem]/name",
       "XP{/,//,*,[]}"},
      {"XM9", "//person[profile[@income]]/name", "XP{/,//,*,[]}"},
      {"XM10", "//closed_auction[price]/date", "XP{/,//,[]}"},
  };
  return *kQueries;
}

}  // namespace twigm::data
