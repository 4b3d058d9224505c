// xml layer ledger: deeper and deeper prefixes of the parse stack over the
// same bytes — structural scan alone, SaxParser into an empty handler, then
// parser + EventDriver into a null modified-SAX sink. A layer's self time
// is the difference between consecutive prefixes.
#include <string>

#include "perfbench.h"
#include "xml/sax_parser.h"
#include "xml/structural_scan.h"

namespace perfbench {

using twigm::Result;
using twigm::Status;
namespace xml = twigm::xml;

namespace {

Status ConsumeChunked(xml::SaxParser* parser, std::string_view doc) {
  for (std::string_view chunk : SplitChunks(doc)) {
    TWIGM_RETURN_IF_ERROR(parser->Consume({chunk, false}));
  }
  return parser->Consume({{}, true});
}

}  // namespace

struct XmlPrefixTimer::Stacks {
  xml::StructuralIndex index;
  xml::SaxHandler null_handler;
  xml::SaxParser parse_only{&null_handler};
  NullEventSink null_sink;
  xml::EventDriver driver{&null_sink};
  xml::SaxParser parse_dispatch{&driver};
};

XmlPrefixTimer::XmlPrefixTimer() : stacks_(std::make_unique<Stacks>()) {}
XmlPrefixTimer::~XmlPrefixTimer() = default;

double XmlPrefixTimer::ScanNs(std::string_view doc, uint64_t* marks) {
  const int64_t t0 = NowNs();
  stacks_->index.Clear();
  xml::ScanStructural(doc, 0, doc.size(), &stacks_->index);
  const int64_t t1 = NowNs();
  *marks += stacks_->index.marks.size();
  return static_cast<double>(t1 - t0);
}

Result<double> XmlPrefixTimer::ParseNs(std::string_view doc) {
  const int64_t t0 = NowNs();
  stacks_->parse_only.Reset();
  TWIGM_RETURN_IF_ERROR(ConsumeChunked(&stacks_->parse_only, doc));
  return static_cast<double>(NowNs() - t0);
}

Result<double> XmlPrefixTimer::DispatchNs(std::string_view doc,
                                          uint64_t* elements) {
  const int64_t t0 = NowNs();
  stacks_->parse_dispatch.Reset();
  stacks_->driver.Reset();
  TWIGM_RETURN_IF_ERROR(ConsumeChunked(&stacks_->parse_dispatch, doc));
  const int64_t t1 = NowNs();
  *elements = stacks_->driver.element_count();
  return static_cast<double>(t1 - t0);
}

namespace {

struct XmlPrefixTimes {
  double bytes = 0;
  double elements = 0;
  double scan_ns = 0;
  double parse_ns = 0;
  double dispatch_ns = 0;
};

// Times the three prefixes over `docs`, `rounds` times each, taking per
// document the best time over rounds and summing over documents. Fails if
// a document's element count differs between rounds.
Result<XmlPrefixTimes> MeasureXmlPrefixes(
    const std::vector<std::string_view>& docs, int rounds) {
  XmlPrefixTimer timer;
  const size_t n = docs.size();
  std::vector<std::vector<double>> scan(n), parse(n), dispatch(n);
  std::vector<uint64_t> elements(n, 0);
  uint64_t marks = 0;
  // Rounds interleave the prefixes, so a slow phase of the host hits all
  // three alike instead of one prefix's whole series.
  for (int r = 0; r < rounds; ++r) {
    for (size_t d = 0; d < n; ++d) {
      scan[d].push_back(timer.ScanNs(docs[d], &marks));
      Result<double> p = timer.ParseNs(docs[d]);
      if (!p.ok()) return p.status();
      parse[d].push_back(p.value());
      uint64_t count = 0;
      Result<double> dp = timer.DispatchNs(docs[d], &count);
      if (!dp.ok()) return dp.status();
      dispatch[d].push_back(dp.value());
      if (r > 0 && count != elements[d]) {
        return Status::Internal("element count changed between rounds");
      }
      elements[d] = count;
    }
  }
  if (marks == 0) return Status::Internal("structural scan found no marks");
  XmlPrefixTimes out;
  for (size_t d = 0; d < n; ++d) {
    out.bytes += static_cast<double>(docs[d].size());
    out.elements += static_cast<double>(elements[d]);
    out.scan_ns += Min(scan[d]);
    out.parse_ns += Min(parse[d]);
    out.dispatch_ns += Min(dispatch[d]);
  }
  return out;
}

}  // namespace

Status ReportXmlLayer(const std::vector<std::string_view>& docs, int rounds,
                      Report* out) {
  Result<XmlPrefixTimes> t = MeasureXmlPrefixes(docs, rounds);
  if (!t.ok()) return t.status();
  const XmlPrefixTimes& p = t.value();
  // bytes per ns * 1e3 = MB/s (1 MB = 1e6 bytes).
  out->Add("xml.scan_mb_s", p.bytes / p.scan_ns * 1e3, "MB/s");
  out->Add("xml.parse_mb_s", p.bytes / p.parse_ns * 1e3, "MB/s");
  out->Add("xml.tokenize_self_ns_per_element",
           (p.parse_ns - p.scan_ns) / p.elements, "ns");
  out->Add("xml.dispatch_self_ns_per_element",
           (p.dispatch_ns - p.parse_ns) / p.elements, "ns");
  out->Add("xml.elements_per_op",
           p.elements / static_cast<double>(docs.size()), "count");
  return Status::Ok();
}

}  // namespace perfbench
