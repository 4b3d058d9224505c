// Raw structural-scan throughput: GB/s of the build-selected SIMD/SWAR
// kernel (ScanStructural) vs the one-byte-at-a-time reference loop
// (ScanStructuralScalar) over the Figure 7 corpora. The interesting number
// is the speedup ratio — on a real SIMD build it must stay >= 2x, gated by
// scripts/bench_gate.py, which judges fast GB/s only against parent-commit
// records run on the same host.
//
// Protocol per (dataset, kernel) cell: one warm-up pass (grows the mark
// vector to capacity), then best-of-5 timed passes over the whole document.
// Run with `--json BENCH_rawscan.json` for machine-readable records.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "xml/structural_scan.h"

namespace twigm::bench {
namespace {

constexpr int kTimedPasses = 5;

// Throughput is measured over a cache-resident window from the middle of
// each corpus, re-scanned until ~the document size has been covered. This
// matches the parser's access pattern — ScanAppended() runs over bytes the
// Consume() call just copied into the buffer, so scan input is L1/L2-warm,
// not streamed cold from DRAM — and keeps the measurement from degenerating
// into a DRAM-bandwidth test on multi-megabyte corpora.
constexpr size_t kSliceBytes = 256 * 1024;

struct ScanCell {
  double gb_per_sec = 0;
  uint64_t marks = 0;
};

ScanCell Measure(const std::string& doc, bool scalar) {
  xml::StructuralIndex index;
  const size_t slice = std::min(doc.size(), kSliceBytes);
  const size_t from = (doc.size() - slice) / 2;
  const size_t to = from + slice;
  const size_t reps = (doc.size() + slice - 1) / slice;
  auto scan = [&] {
    if (scalar) {
      xml::ScanStructuralScalar(doc, from, to, &index);
    } else {
      xml::ScanStructural(doc, from, to, &index);
    }
  };
  // Warm-up pass: mark vector reaches capacity, window is pulled into cache.
  for (size_t r = 0; r < reps; ++r) {
    index.Clear();
    scan();
  }
  double best = 0;
  for (int pass = 0; pass < kTimedPasses; ++pass) {
    Stopwatch sw;
    for (size_t r = 0; r < reps; ++r) {
      index.Clear();
      scan();
    }
    const double seconds = sw.ElapsedSeconds();
    const double bytes = static_cast<double>(slice * reps);
    best = std::max(best, seconds > 0 ? bytes / seconds / 1e9 : 0);
  }
  // Correctness + mark count: one full-document scan (the differential
  // conformance suite checks mark equality in depth; this catches gross
  // drift between the kernels on the real corpora).
  index.Clear();
  if (scalar) {
    xml::ScanStructuralScalar(doc, 0, doc.size(), &index);
  } else {
    xml::ScanStructural(doc, 0, doc.size(), &index);
  }
  ScanCell cell;
  cell.gb_per_sec = best;
  cell.marks = index.marks.size();
  return cell;
}

int Main() {
  std::printf("bench_rawscan: fast path = %s\n", xml::StructuralScanKind());
  std::printf("%-10s %10s  %12s  %12s  %8s\n", "dataset", "bytes",
              "fast GB/s", "scalar GB/s", "speedup");

  struct DatasetRef {
    const char* name;
    const std::string& (*get)();
  };
  const DatasetRef datasets[] = {
      {"Book", &BookDataset},
      {"Benchmark", &AuctionDataset},
      {"Protein", &ProteinDataset},
  };

  for (const DatasetRef& dataset : datasets) {
    const std::string& doc = dataset.get();
    const ScanCell fast = Measure(doc, /*scalar=*/false);
    const ScanCell scalar = Measure(doc, /*scalar=*/true);
    const double speedup =
        scalar.gb_per_sec > 0 ? fast.gb_per_sec / scalar.gb_per_sec : 0;
    std::printf("%-10s %10zu  %12.3f  %12.3f  %7.2fx\n", dataset.name,
                doc.size(), fast.gb_per_sec, scalar.gb_per_sec, speedup);
    if (fast.marks != scalar.marks) {
      std::fprintf(stderr, "FATAL: mark count mismatch on %s (%llu vs %llu)\n",
                   dataset.name,
                   static_cast<unsigned long long>(fast.marks),
                   static_cast<unsigned long long>(scalar.marks));
      return 1;
    }

    BenchRecord record;
    record.bench = "rawscan";
    record.params = {{"dataset", dataset.name},
                     {"scan_kind", xml::StructuralScanKind()}};
    record.wall_ms = 0;
    record.metrics = {
        {"bytes", static_cast<double>(doc.size())},
        {"marks", static_cast<double>(fast.marks)},
        {"fast_gb_per_sec", fast.gb_per_sec},
        {"scalar_gb_per_sec", scalar.gb_per_sec},
        {"speedup", speedup},
        {"is_simd", xml::StructuralScanIsSimd() ? 1.0 : 0.0},
    };
    BenchJson::Get().Add(std::move(record));
  }
  return 0;
}

}  // namespace
}  // namespace twigm::bench

int main(int argc, char** argv) {
  twigm::bench::BenchJson::Get().StripJsonFlag(&argc, argv);
  const int rc = twigm::bench::Main();
  twigm::bench::BenchJson::Get().Write();
  return rc;
}
