#include "filter/union_query.h"

#include <algorithm>

#include "xpath/lexer.h"

namespace twigm::filter {

Result<std::vector<std::string>> SplitUnionQuery(std::string_view query) {
  Result<std::vector<xpath::Token>> tokens = xpath::Tokenize(query);
  if (!tokens.ok()) return tokens.status();

  std::vector<std::string> branches;
  size_t branch_begin = 0;  // byte offset of the current branch
  for (const xpath::Token& token : tokens.value()) {
    if (token.kind != xpath::TokenKind::kPipe &&
        token.kind != xpath::TokenKind::kEnd) {
      continue;
    }
    std::string branch(query.substr(branch_begin, token.offset - branch_begin));
    // Trim surrounding whitespace for clean error messages.
    while (!branch.empty() && branch.front() == ' ') branch.erase(0, 1);
    while (!branch.empty() && branch.back() == ' ') branch.pop_back();
    if (branch.empty()) {
      return Status::ParseError("empty branch in union query '" +
                                std::string(query) + "'");
    }
    branches.push_back(std::move(branch));
    branch_begin = token.offset + 1;
  }
  return branches;
}

Result<std::unique_ptr<UnionQueryProcessor>> UnionQueryProcessor::Create(
    std::string_view query, core::MatchObserver* observer,
    core::EvaluatorOptions options) {
  if (observer == nullptr) {
    return Status::InvalidArgument(
        "UnionQueryProcessor requires a match observer");
  }
  Result<std::vector<std::string>> branches = SplitUnionQuery(query);
  if (!branches.ok()) return branches.status();

  auto proc =
      std::unique_ptr<UnionQueryProcessor>(new UnionQueryProcessor());
  proc->dedup_.out = observer;
  Result<std::unique_ptr<FilterEngine>> engine =
      FilterEngine::Create(branches.value(), &proc->dedup_, options);
  if (!engine.ok()) return engine.status();
  proc->engine_ = std::move(engine).value();
  return proc;
}

void UnionQueryProcessor::Reset() {
  engine_->Reset();
  if (++dedup_.epoch == 0) {
    // Epoch wrapped: stale stamps could collide, so wipe once and restart.
    std::fill(dedup_.stamp.begin(), dedup_.stamp.end(), 0);
    dedup_.epoch = 1;
  }
}

// hotpath
void UnionQueryProcessor::DedupSink::OnResult(size_t /*query_index*/,
                                             const core::MatchInfo& match) {
  const xml::NodeId id = match.id;
  if (id >= stamp.size()) {
    // Doubling keeps growth amortized; the array tops out near the largest
    // document's element count and is reused for every later document.
    size_t grown = std::max<size_t>(stamp.size() * 2, 256);
    if (grown <= id) grown = static_cast<size_t>(id) + 1;
    stamp.resize(grown, 0);
  }
  if (stamp[id] == epoch) return;
  stamp[id] = epoch;
  out->OnResult(match);
  ++results;
}

}  // namespace twigm::filter
