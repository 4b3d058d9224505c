// perfbench: runs one workload and prints its metrics; the last line of
// standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// per-layer ledger. Exits 0 only when every operation and check passed.
//
//   perfbench --workload stream_book --seed 1 --trace 0
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "common/mem_stats.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using twigm::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  std::string spans_path;  // where a traced run writes its spans
};

constexpr int kXmlLayerRounds = 5;

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "stream_book") return MakeStreamBook();
  if (name == "serve_auction") return MakeServeAuction();
  if (name == "index_book") return MakeIndexBook();
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

// A run is Workload::Rounds() identical rounds; each round is a whole
// number of cycles with at least kMinRoundOps operations, so the same
// operation sits at the same position in every round.
constexpr size_t kMinRoundOps = 1000;

size_t RoundOps(const Workload& w) {
  const size_t cycle = w.CycleLength();
  return cycle * ((kMinRoundOps + cycle - 1) / cycle);
}

// One round's own figures, from that round's own samples.
struct RoundFigures {
  double wall_ns = 0;  // the round's timed loop
  double p50_ns = 0;
  double p99_ns = 0;
  double setup_ns = 0;  // one set-up, averaged over the round's batch
  bool traced = false;
};

struct LoopResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t round_ops = 0;
  double round_bytes = 0;
  // Per position in a round: the operation's best latency over the
  // untraced rounds, and over the traced rounds (trace mode).
  std::vector<double> best_ns;
  std::vector<double> traced_best_ns;
  std::vector<RoundFigures> rounds;
  twigm::Status status;
};

// The timed closed loop. Before each round the workload is set up again,
// SetUpRepeats() times back to back, timed as one sample. Within a round
// each operation is timed from its first call into the system to its last
// result in hand. The host runs in slow and fast phases of seconds to
// minutes, so the figures are robust ones: throughput and p50 come from
// every operation's best time over the rounds; p99 and set-up time are
// medians over rounds of each round's own figure, so the tail keeps the
// stalls a round really had. In trace mode rounds alternate between
// untraced and traced, so both cover the same operations.
LoopResult RunLoop(Workload* w, Tracer* tracer) {
  LoopResult r;
  r.round_ops = RoundOps(*w);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  r.best_ns.assign(r.round_ops, kInf);
  r.traced_best_ns.assign(tracer != nullptr ? r.round_ops : 0, kInf);
  std::vector<double> latency_ns(r.round_ops);
  for (size_t round = 0; round < w->Rounds(); ++round) {
    RoundFigures fig;
    const int repeats = w->SetUpRepeats();
    const int64_t s0 = NowNs();
    for (int k = 0; k < repeats && r.status.ok(); ++k) {
      r.status = w->SetUp(nullptr);
    }
    fig.setup_ns = static_cast<double>(NowNs() - s0) / repeats;
    if (!r.status.ok()) return r;
    // Repeated set-ups fragment the heap; returning the freed pages keeps
    // peak_rss_mb measuring live memory, not the set-up history.
    ReturnFreedPages();
    fig.traced = tracer != nullptr && round % 2 == 1;
    std::vector<double>& best = fig.traced ? r.traced_best_ns : r.best_ns;
    double bytes = 0;
    const int64_t start = NowNs();
    for (size_t i = 0; i < r.round_ops; ++i) {
      const int64_t t0 = NowNs();
      const OpOutcome out = w->RunOp(round * r.round_ops + i,
                                     fig.traced ? tracer : nullptr);
      latency_ns[i] = static_cast<double>(NowNs() - t0);
      best[i] = std::min(best[i], latency_ns[i]);
      ++r.attempted;
      if (!out.ok) ++r.failed;
      bytes += static_cast<double>(out.bytes);
    }
    fig.wall_ns = static_cast<double>(NowNs() - start);
    fig.p50_ns = Quantile(latency_ns, 0.50);
    fig.p99_ns = Quantile(latency_ns, 0.99);
    r.rounds.push_back(fig);
    r.round_bytes = bytes;
  }
  return r;
}

// Median over the untraced rounds of one round figure.
template <typename F>
double MedianOverRounds(const LoopResult& loop, F figure) {
  std::vector<double> v;
  for (const RoundFigures& fig : loop.rounds) {
    if (!fig.traced) v.push_back(figure(fig));
  }
  return Median(std::move(v));
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

void PrintJson(const Report& report, const LoopResult& loop) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct() && loop.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(loop.attempted),
              static_cast<unsigned long long>(loop.failed));
  const char* sep = "";
  for (const Metric& m : report.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // Inputs and reference counts: outside every timer, and on a helper
  // thread, whose malloc arena keeps their freed scratch (DOMs, reference
  // engines) out of the pages the system allocates from later.
  Status st;
  std::thread([&] { st = w->Prepare(args.seed); }).join();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: prepare: %s\n", st.ToString().c_str());
    return 1;
  }
  Tracer tracer(args.trace);
  if (!ResetPeakMemory()) {
    std::fprintf(stderr, "perfbench: cannot reset the RSS high-water mark\n");
    return 1;
  }
  const twigm::ProcessMemory base = twigm::ReadProcessMemory();

  // Warm-up: one set-up and one cycle, checked but not timed.
  Report report;
  st = w->SetUp(nullptr);
  for (size_t i = 0; st.ok() && i < w->CycleLength(); ++i) {
    if (!w->RunOp(i, nullptr).ok) report.Fail("warm-up operation");
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: set-up: %s\n", st.ToString().c_str());
    return 1;
  }
  const LoopResult loop =
      RunLoop(w.get(), args.trace ? &tracer : nullptr);
  if (!loop.status.ok()) {
    std::fprintf(stderr, "perfbench: set-up: %s\n",
                 loop.status.ToString().c_str());
    return 1;
  }
  const double peak_mb =
      static_cast<double>(twigm::ReadProcessMemory().peak_rss_bytes -
                          base.rss_bytes) /
      (1 << 20);

  const size_t untraced_rounds = static_cast<size_t>(
      std::count_if(loop.rounds.begin(), loop.rounds.end(),
                    [](const RoundFigures& f) { return !f.traced; }));
  std::printf("# perfbench workload=%s seed=%llu rounds=%zu ops=%llu "
              "failed=%llu\n",
              w->name(), static_cast<unsigned long long>(args.seed),
              loop.rounds.size(),
              static_cast<unsigned long long>(loop.attempted),
              static_cast<unsigned long long>(loop.failed));
  std::printf("# latency_samples %zu per round; p50 over per-operation "
              "bests of %zu rounds, p99 the median of %zu round p99s "
              "(%zu samples beyond each)\n",
              loop.round_ops, untraced_rounds, untraced_rounds,
              loop.round_ops / 100);
  for (size_t i = 0; i < loop.rounds.size(); ++i) {
    const RoundFigures& f = loop.rounds[i];
    std::printf("# round %2zu%s wall_s %.4f MB/s %.3f p50_ms %.4f "
                "p99_ms %.4f setup_s %.6g\n",
                i, f.traced ? " traced" : "", f.wall_ns / 1e9,
                loop.round_bytes / f.wall_ns * 1e3, f.p50_ns / 1e6,
                f.p99_ns / 1e6, f.setup_ns / 1e9);
  }
  std::printf("# failed_op_share %.6g ratio\n",
              static_cast<double>(loop.failed) /
                  static_cast<double>(loop.attempted));
  if (!args.trace) {
    report.Add("throughput_mb_s", loop.round_bytes / Sum(loop.best_ns) * 1e3,
               "MB/s");
    report.Add("latency_p50_ms", Quantile(loop.best_ns, 0.50) / 1e6, "ms");
    report.Add("latency_p99_ms",
               MedianOverRounds(
                   loop, [](const RoundFigures& f) { return f.p99_ns; }) /
                   1e6,
               "ms");
    report.Add("setup_s",
               MedianOverRounds(
                   loop, [](const RoundFigures& f) { return f.setup_ns; }) /
                   1e9,
               "s");
    report.Add("peak_rss_mb", peak_mb, "MB");
  } else {
    // The ledger: xml over this workload's own bytes, every other layer on
    // the workload that exercises it most (same seed).
    st = ReportXmlLayer(w->Documents(), kXmlLayerRounds, &report);
    for (const char* name : {"stream_book", "serve_auction", "index_book"}) {
      if (!st.ok()) break;
      std::unique_ptr<Workload> other;
      Workload* home = w.get();
      if (args.workload != name) {
        other = MakeWorkload(name);
        st = other->Prepare(args.seed);
        if (st.ok()) st = other->SetUp(nullptr);
        home = other.get();
      }
      if (st.ok()) st = home->MeasureLayers(&tracer, &report);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: layers: %s\n", st.ToString().c_str());
      return 1;
    }
    report.Add("trace.overhead_pct",
               (Sum(loop.traced_best_ns) / Sum(loop.best_ns) - 1) * 100, "%");
    if (!args.spans_path.empty()) {
      st = tracer.WriteJsonLines(args.spans_path);
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
        return 1;
      }
    }
  }
  for (const Metric& m : report.metrics()) {
    std::printf("# %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintJson(report, loop);
  return report.correct() && loop.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <stream_book|serve_auction|"
                 "index_book> [--seed N] [--trace 0|1] "
                 "[--spans PATH]\n");
    return 2;
  }
  return perfbench::Run(args);
}
