// xpathgrep — a command-line streaming XPath matcher built on the library.
//
//   usage: xpathgrep [-c|-x] '<query>' [file.xml]
//
// Reads the file (or stdin when no file is given) in chunks and prints the
// pre-order index of every matching element as soon as it is proven, plus a
// summary. With -x, the serialized XML fragment of each result is printed
// instead (single-branch queries only). Top-level unions ('|') are
// supported in id mode. Because evaluation is streaming, files far larger
// than memory work fine.
//
//   $ ./xpathgrep '//section[title]//figure | //image' book.xml
//   $ ./xpathgrep -x '//book/title' book.xml

#include <cstdio>
#include <cstring>
#include <string>

#include "common/string_util.h"
#include "core/evaluator.h"
#include "filter/union_query.h"

namespace {

// One observer for both modes: prints ids (or just counts), and in -x mode
// asks the processor for fragment capture and prints each fragment.
class LineSink : public twigm::core::MatchObserver {
 public:
  LineSink(bool quiet, bool fragments)
      : quiet_(quiet), fragments_(fragments) {}

  bool wants_fragments() const override { return fragments_; }

  void OnResult(const twigm::core::MatchInfo& match) override {
    ++count_;
    if (!quiet_ && !fragments_) {
      std::printf("%llu\n", static_cast<unsigned long long>(match.id));
    }
  }

  void OnFragment(twigm::xml::NodeId id, std::string_view xml) override {
    (void)id;
    std::fwrite(xml.data(), 1, xml.size(), stdout);
    std::fputc('\n', stdout);
  }

  uint64_t count() const { return count_; }

 private:
  bool quiet_;
  bool fragments_;
  uint64_t count_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool quiet = false;
  bool fragments = false;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    if (std::strcmp(argv[arg], "-c") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[arg], "-x") == 0) {
      fragments = true;
    } else {
      break;
    }
    ++arg;
  }
  if (arg >= argc) {
    std::fprintf(stderr,
                 "usage: xpathgrep [-c|-x] '<xpath>' [file.xml]\n"
                 "  -c  print only the match count\n"
                 "  -x  print matching XML fragments\n");
    return 2;
  }
  const char* query = argv[arg++];

  std::FILE* in = stdin;
  if (arg < argc) {
    in = std::fopen(argv[arg], "rb");
    if (in == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[arg]);
      return 2;
    }
  }

  LineSink sink(quiet, fragments);
  std::unique_ptr<twigm::core::XPathStreamProcessor> processor;
  std::unique_ptr<twigm::filter::UnionQueryProcessor> union_processor;
  if (fragments) {
    auto created = twigm::core::XPathStreamProcessor::Create(query, &sink);
    if (!created.ok()) {
      std::fprintf(stderr, "query error: %s\n",
                   created.status().ToString().c_str());
      return 2;
    }
    processor = std::move(created).value();
  } else {
    auto created = twigm::filter::UnionQueryProcessor::Create(query, &sink);
    if (!created.ok()) {
      std::fprintf(stderr, "query error: %s\n",
                   created.status().ToString().c_str());
      return 2;
    }
    union_processor = std::move(created).value();
  }
  auto feed = [&](std::string_view chunk) {
    return processor != nullptr ? processor->Consume({chunk, false})
                                : union_processor->Consume({chunk, false});
  };
  auto finish = [&] {
    return processor != nullptr ? processor->Consume({std::string_view(), true})
                                : union_processor->Consume({std::string_view(), true});
  };

  char buffer[1 << 16];
  size_t total = 0;
  while (true) {
    const size_t n = std::fread(buffer, 1, sizeof(buffer), in);
    if (n == 0) break;
    total += n;
    twigm::Status s = feed(std::string_view(buffer, n));
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  twigm::Status s = finish();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  if (in != stdin) std::fclose(in);

  std::fprintf(stderr, "%llu matches in %s of XML\n",
               static_cast<unsigned long long>(sink.count()),
               twigm::HumanBytes(total).c_str());
  if (quiet) std::printf("%llu\n",
                         static_cast<unsigned long long>(sink.count()));
  return 0;
}
