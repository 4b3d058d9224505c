// xmlindex — build, query, and inspect persistent structural indexes
// (src/index/, DESIGN.md §15) for stored corpora: ingest a document once,
// then answer XP{/,//,*,[]} queries repeatedly without re-parsing it.
//
//   usage: xmlindex build <file.xml> <index.twgmidx>
//          xmlindex query [-c] <index.twgmidx> '<xpath>' [more queries...]
//          xmlindex stats <index.twgmidx>
//          xmlindex demo
//
//   $ ./xmlindex build book.xml book.twgmidx
//   $ ./xmlindex query book.twgmidx '//section[title]/figure'
//   $ ./xmlindex stats book.twgmidx
//
// `query` prints each match as "pre @byte-offset" (the element's start
// tag in the original document); -c prints only counts. On stderr it
// prints each query's match count, postings touched and join steps, then
// the plan (IndexedEvaluator::Explain) with each step's list size. `demo` runs the
// whole cycle on a small built-in document (it doubles as a smoke test).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/result_sink.h"
#include "index/index_builder.h"
#include "index/index_reader.h"
#include "index/indexed_evaluator.h"

namespace {

using twigm::Result;
using twigm::Status;
using twigm::index::IndexBuilder;
using twigm::index::IndexReader;
using twigm::index::IndexedEvaluator;

int Usage() {
  std::fprintf(stderr,
               "usage: xmlindex build <file.xml> <index.twgmidx>\n"
               "       xmlindex query [-c] <index.twgmidx> '<xpath>'...\n"
               "       xmlindex stats <index.twgmidx>\n"
               "       xmlindex demo\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Build(const char* xml_path, const char* index_path) {
  std::FILE* in = std::fopen(xml_path, "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", xml_path);
    return 1;
  }
  twigm::Stopwatch timer;
  IndexBuilder builder;
  char buffer[1 << 16];
  while (true) {
    const size_t n = std::fread(buffer, 1, sizeof(buffer), in);
    if (n == 0) break;
    const Status s = builder.Consume({std::string_view(buffer, n), false});
    if (!s.ok()) {
      std::fclose(in);
      return Fail(s);
    }
  }
  std::fclose(in);
  Status s = builder.Consume({std::string_view(), true});
  if (s.ok()) s = builder.WriteFile(index_path);
  if (!s.ok()) return Fail(s);
  const double seconds = timer.ElapsedSeconds();
  std::fprintf(
      stderr,
      "indexed %s: %llu elements, %llu symbols, %s of XML in %.3fs "
      "(%.2f GB/s)\n",
      xml_path, static_cast<unsigned long long>(builder.element_count()),
      static_cast<unsigned long long>(builder.symbol_count()),
      twigm::HumanBytes(builder.document_bytes()).c_str(), seconds,
      seconds > 0 ? builder.document_bytes() / seconds / 1e9 : 0.0);
  return 0;
}

int Query(bool count_only, const char* index_path, char** queries, int n) {
  Result<std::unique_ptr<IndexReader>> reader = IndexReader::Open(index_path);
  if (!reader.ok()) return Fail(reader.status());
  for (int i = 0; i < n; ++i) {
    Result<std::unique_ptr<IndexedEvaluator>> eval =
        IndexedEvaluator::Create(queries[i], reader.value().get());
    if (!eval.ok()) return Fail(eval.status());
    twigm::core::VectorResultSink sink;
    const Status s = eval.value()->Evaluate(&sink);
    if (!s.ok()) return Fail(s);
    if (!count_only) {
      for (const twigm::core::MatchInfo& match : sink.matches()) {
        std::printf("%llu @%llu\n",
                    static_cast<unsigned long long>(match.id),
                    static_cast<unsigned long long>(match.byte_offset));
      }
    }
    std::fprintf(stderr, "%s: %llu matches (%llu postings, %llu join steps)\n",
                 queries[i],
                 static_cast<unsigned long long>(sink.matches().size()),
                 static_cast<unsigned long long>(
                     eval.value()->stats().postings_touched),
                 static_cast<unsigned long long>(
                     eval.value()->stats().join_steps));
    std::fputs(eval.value()->Explain().c_str(), stderr);
    if (count_only) {
      std::printf("%llu\n",
                  static_cast<unsigned long long>(sink.matches().size()));
    }
  }
  return 0;
}

int Stats(const char* index_path) {
  Result<std::unique_ptr<IndexReader>> opened = IndexReader::Open(index_path);
  if (!opened.ok()) return Fail(opened.status());
  const IndexReader& reader = *opened.value();
  std::printf("index file:     %s (%s)\n", index_path,
              twigm::HumanBytes(reader.file_bytes()).c_str());
  std::printf("document bytes: %s\n",
              twigm::HumanBytes(reader.document_bytes()).c_str());
  const double doc_bytes = static_cast<double>(reader.document_bytes());
  auto per_doc_byte = [&](uint64_t bytes) {
    return doc_bytes > 0 ? static_cast<double>(bytes) / doc_bytes : 0.0;
  };
  std::printf("image bytes per document byte: %.3f (format version %u)\n",
              per_doc_byte(reader.file_bytes()),
              static_cast<unsigned>(twigm::index::kFormatVersion));
  static constexpr const char* kSectionNames[] = {
      "dictionary",        "post",
      "level",             "symbol",
      "byte offset",       "postings index",
      "postings data",     "text offsets",
      "text blob",         "attribute index",
      "attribute pre ids", "attribute value offsets",
      "attribute blob",
  };
  static_assert(std::size(kSectionNames) == twigm::index::kSectionCount);
  std::printf("sections:\n");
  uint64_t framing = reader.file_bytes();
  for (uint32_t id = 1; id <= twigm::index::kSectionCount; ++id) {
    const uint64_t bytes =
        reader.section_bytes(static_cast<twigm::index::SectionId>(id));
    std::printf("  %-24s %10llu B  %.3f per document byte\n",
                kSectionNames[id - 1], static_cast<unsigned long long>(bytes),
                per_doc_byte(bytes));
    framing -= bytes;
  }
  std::printf("  %-24s %10llu B  %.3f per document byte\n",
              "header, table, padding",
              static_cast<unsigned long long>(framing), per_doc_byte(framing));
  std::printf("elements:       %llu\n",
              static_cast<unsigned long long>(reader.element_count()));
  std::printf("symbols:        %llu (tags + attribute names)\n",
              static_cast<unsigned long long>(reader.symbol_count()));
  // Top tags by occurrence count.
  std::vector<std::pair<uint64_t, uint32_t>> by_count;
  for (uint32_t sym = 0; sym < reader.symbol_count(); ++sym) {
    const uint64_t count = reader.postings(sym).size;
    if (count > 0) by_count.emplace_back(count, sym);
  }
  std::sort(by_count.rbegin(), by_count.rend());
  const size_t top = by_count.size() < 10 ? by_count.size() : 10;
  std::printf("top tags:\n");
  for (size_t i = 0; i < top; ++i) {
    const std::string_view name = reader.dictionary().name(by_count[i].second);
    std::printf("  %-20.*s %llu\n", static_cast<int>(name.size()), name.data(),
                static_cast<unsigned long long>(by_count[i].first));
  }
  return 0;
}

int Demo() {
  const char* doc =
      "<library><book year=\"2001\"><title>Stream Processing</title>"
      "<section><title>Intro</title><figure><image/>"
      "<title>fig one</title></figure></section></book>"
      "<book year=\"1999\"><title>Query Languages</title>"
      "<section><title>XPath</title></section></book></library>";
  const std::string xml_path = "/tmp/xmlindex_demo.xml";
  const std::string index_path = "/tmp/xmlindex_demo.twgmidx";
  std::FILE* f = std::fopen(xml_path.c_str(), "wb");
  if (f == nullptr) return 1;
  std::fwrite(doc, 1, std::strlen(doc), f);
  std::fclose(f);
  if (Build(xml_path.c_str(), index_path.c_str()) != 0) return 1;
  char query1[] = "//section[title]/figure";
  char query2[] = "//book[@year>2000]//title";
  char* queries[] = {query1, query2};
  if (Query(false, index_path.c_str(), queries, 2) != 0) return 1;
  if (Stats(index_path.c_str()) != 0) return 1;
  std::remove(xml_path.c_str());
  std::remove(index_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "build") == 0) {
    if (argc != 4) return Usage();
    return Build(argv[2], argv[3]);
  }
  if (std::strcmp(cmd, "query") == 0) {
    int arg = 2;
    bool count_only = false;
    if (arg < argc && std::strcmp(argv[arg], "-c") == 0) {
      count_only = true;
      ++arg;
    }
    if (argc - arg < 2) return Usage();
    return Query(count_only, argv[arg], argv + arg + 1, argc - arg - 1);
  }
  if (std::strcmp(cmd, "stats") == 0) {
    if (argc != 3) return Usage();
    return Stats(argv[2]);
  }
  if (std::strcmp(cmd, "demo") == 0) return Demo();
  return Usage();
}
