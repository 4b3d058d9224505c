// Shared helpers for the twigm test suites.

#ifndef TWIGM_TESTS_TEST_UTIL_H_
#define TWIGM_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.h"
#include "gtest/gtest.h"
#include "xml/sax_event.h"

namespace twigm::testing {

/// Evaluates `query` over `document` and returns the result ids sorted
/// ascending (document order). Fails the test on error.
inline std::vector<xml::NodeId> MustEvaluate(std::string_view query,
                                             std::string_view document) {
  Result<std::vector<xml::NodeId>> result =
      core::EvaluateToIds(query, document);
  EXPECT_TRUE(result.ok()) << "query '" << query
                           << "': " << result.status().ToString();
  std::vector<xml::NodeId> ids =
      result.ok() ? std::move(result).value() : std::vector<xml::NodeId>{};
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Shorthand for building expected id vectors.
inline std::vector<xml::NodeId> Ids(std::initializer_list<xml::NodeId> ids) {
  return std::vector<xml::NodeId>(ids);
}

}  // namespace twigm::testing

#endif  // TWIGM_TESTS_TEST_UTIL_H_
