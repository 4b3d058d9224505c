// Ablation on the Figure 1 family: compact stack encoding vs. explicit
// pattern-match enumeration, and the effect of static-failure pruning.
//
// Query //a[d]//b[e]//c over a_1(..a_n(b_1(..b_n(c), e)), d):
//   * TwigM stores ~2n stack entries for the n² pattern matches — time and
//     state grow LINEARLY in n (section 3.3's claim);
//   * NaiveEnum materializes all ~n² matches — quadratic state, and the
//     engine aborts once the match cap is hit.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "data/adversarial.h"

namespace twigm::bench {
namespace {

constexpr const char* kQuery = "//a[d]//b[e]//c";

std::string AdversarialDoc(int n) {
  data::AdversarialOptions options;
  options.n = n;
  return data::GenerateAdversarial(options);
}

void BM_TwigM(benchmark::State& state) {
  const std::string doc = AdversarialDoc(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const RunResult result = RunSystem(System::kTwigM, kQuery, doc);
    if (!result.status.ok() || result.results != 1) {
      state.SkipWithError("unexpected TwigM outcome");
      return;
    }
    state.counters["peak_entries"] =
        benchmark::Counter(static_cast<double>(result.state_items));
  }
}
BENCHMARK(BM_TwigM)->RangeMultiplier(2)->Range(8, 1024)
    ->Unit(benchmark::kMicrosecond);

void BM_TwigM_NoPrune(benchmark::State& state) {
  // Same run with the paper's literal push rule (no static pruning); on
  // this family attribute tests do not occur, so the difference is pure
  // option overhead — included to show the ablation knob exists and is
  // behaviour-neutral here.
  const std::string doc = AdversarialDoc(static_cast<int>(state.range(0)));
  core::EvaluatorOptions options;
  options.twig.prune_static_failures = false;
  for (auto _ : state) {
    Result<std::vector<xml::NodeId>> ids =
        core::EvaluateToIds(kQuery, doc, options);
    if (!ids.ok() || ids.value().size() != 1) {
      state.SkipWithError("unexpected outcome");
      return;
    }
  }
}
BENCHMARK(BM_TwigM_NoPrune)->RangeMultiplier(2)->Range(8, 1024)
    ->Unit(benchmark::kMicrosecond);

void BM_NaiveEnum(benchmark::State& state) {
  const std::string doc = AdversarialDoc(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const RunResult result = RunSystem(System::kNaiveEnum, kQuery, doc);
    if (result.status.code() == StatusCode::kResourceExhausted) {
      state.SkipWithError("match explosion: live-match cap exceeded");
      return;
    }
    if (!result.status.ok()) {
      state.SkipWithError(result.status.ToString().c_str());
      return;
    }
    state.counters["peak_matches"] =
        benchmark::Counter(static_cast<double>(result.state_items));
  }
}
BENCHMARK(BM_NaiveEnum)->RangeMultiplier(2)->Range(8, 1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace twigm::bench

BENCHMARK_MAIN();
