// explain — shows how the library compiles a query: parsed form, query
// tree classification, machine-node graph with edge labels and branch
// slots, and when the machine emits (at startElement for a predicate-free
// query).
//
//   $ ./explain '//a[d]//b[e]//c'
//   $ ./explain '//section[figure[image]][@id]//section[p]/title'

#include <cstdio>

#include "core/machine_builder.h"
#include "core/result_sink.h"
#include "core/twig_machine.h"
#include "filter/union_query.h"
#include "xpath/query_tree.h"

namespace {

int ExplainBranch(const std::string& query) {
  auto tree = twigm::xpath::QueryTree::Parse(query);
  if (!tree.ok()) {
    std::fprintf(stderr, "parse error: %s\n", tree.status().ToString().c_str());
    return 1;
  }
  std::printf("canonical form : %s\n", tree.value().ToString().c_str());
  std::printf("query nodes    : %d\n", tree.value().node_count());
  std::printf("classification :%s%s%s%s\n",
              tree.value().has_descendant_axis() ? " descendant-axis" : "",
              tree.value().has_wildcard() ? " wildcard" : "",
              tree.value().has_predicates() ? " predicates" : " linear",
              tree.value().has_value_tests() ? " value-tests" : "");

  auto graph = twigm::core::MachineGraph::Build(tree.value());
  if (!graph.ok()) {
    std::fprintf(stderr, "machine construction failed: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  std::printf("machine nodes  : %zu (interior '*' collapsed into edges)\n",
              graph.value().node_count());
  std::printf("%s", graph.value().ToString().c_str());

  twigm::core::VectorResultSink sink;
  auto machine = twigm::core::TwigMachine::Create(tree.value(), &sink);
  if (machine.ok()) {
    std::printf("emission       : %s\n",
                machine.value()->predicate_free()
                    ? "at startElement (predicate-free, section 3.1)"
                    : "once the predicates resolve (endElement)");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: explain '<xpath>'\n");
    return 2;
  }
  auto branches = twigm::filter::SplitUnionQuery(argv[1]);
  if (!branches.ok()) {
    std::fprintf(stderr, "%s\n", branches.status().ToString().c_str());
    return 1;
  }
  int rc = 0;
  for (size_t i = 0; i < branches.value().size(); ++i) {
    if (branches.value().size() > 1) {
      std::printf("=== union branch %zu ===\n", i + 1);
    }
    rc |= ExplainBranch(branches.value()[i]);
    if (i + 1 < branches.value().size()) std::printf("\n");
  }
  return rc;
}
