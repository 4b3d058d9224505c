// Result sinks for multi-query evaluation: many XPath queries over one SAX
// pass, each result tagged with the index of the query it answers. The
// shared-prefix engine (src/filter/filter_engine.h) and the product-
// construction baseline (src/baselines/multi_query_processor.h) both report
// through MultiQueryResultSink.

#ifndef TWIGM_CORE_MULTI_QUERY_H_
#define TWIGM_CORE_MULTI_QUERY_H_

#include <cstddef>
#include <vector>

#include "core/result_sink.h"
#include "xml/sax_event.h"

namespace twigm::core {

/// Receives results tagged with the index of the matching query. The match
/// carries the result node id plus byte offset / query node (MatchInfo),
/// mirroring the single-query MatchObserver.
class MultiQueryResultSink {
 public:
  virtual ~MultiQueryResultSink() = default;
  virtual void OnResult(size_t query_index, const MatchInfo& match) = 0;
};

/// Collects (query, id) pairs (test/demo convenience).
class VectorMultiQuerySink : public MultiQueryResultSink {
 public:
  struct Item {
    size_t query_index;
    xml::NodeId id;
  };

  void OnResult(size_t query_index, const MatchInfo& match) override {
    items_.push_back(Item{query_index, match.id});
  }

  const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

}  // namespace twigm::core

#endif  // TWIGM_CORE_MULTI_QUERY_H_
