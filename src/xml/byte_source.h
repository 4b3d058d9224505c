// ByteSource — the single chunked-input abstraction of the system.
//
// Every consumer of raw XML bytes (SaxParser, XPathStreamProcessor,
// filter::FilterEngine, serve::ServerStream) accepts input as a sequence
// of InputChunks, either pushed one at a time through Consume() or pulled
// from a ByteSource through Pump(). This replaces the three ad-hoc entry
// points that predated it (Feed/Finish/ParseAll, serve's per-stream
// feeding, FilterEngine's internal parsing loop); see README "Migrating to
// ByteSource".
//
// Contract (DESIGN.md §12):
//   * chunk.bytes may be split at ANY byte boundary — mid-tag, mid-entity,
//     mid-UTF-16 code unit, mid-BOM. The consumer carries all cross-chunk
//     state; the producer never needs to align chunks with the document
//     structure.
//   * chunk.bytes is only read during the Consume()/Pump() call; the
//     consumer copies what it must keep. Producers may reuse the chunk
//     buffer immediately afterwards.
//   * exactly one chunk has last = true, and it is the final one. Its
//     bytes (possibly empty) are consumed, then end-of-document checks run
//     (all tags closed, a root element present). Consuming a last chunk is
//     what Finish() used to be.
//   * errors are sticky: the first non-OK Status poisons the consumer and
//     every later Consume() returns the same Status.

#ifndef TWIGM_XML_BYTE_SOURCE_H_
#define TWIGM_XML_BYTE_SOURCE_H_

#include <algorithm>
#include <cstddef>
#include <string_view>

namespace twigm::xml {

/// One run of raw document bytes. `last` marks the end of the document.
struct InputChunk {
  std::string_view bytes;
  bool last = false;
};

/// Pull-model producer of InputChunks. Implementations wrap files,
/// sockets, in-memory documents, test chunkers, ...
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Fills *chunk with the next run of bytes. Returns false when the
  /// source is exhausted — i.e. after it has produced its last=true chunk.
  virtual bool Next(InputChunk* chunk) = 0;
};

/// A whole in-memory document, optionally delivered in fixed-size pieces
/// (chunk_size = 0 delivers everything in one last=true chunk). The
/// backing bytes must outlive the source.
class StringByteSource : public ByteSource {
 public:
  explicit StringByteSource(std::string_view doc, size_t chunk_size = 0)
      : doc_(doc), chunk_size_(chunk_size == 0 ? doc.size() : chunk_size) {}

  bool Next(InputChunk* chunk) override {
    if (done_) return false;
    const size_t n = std::min(chunk_size_, doc_.size() - offset_);
    chunk->bytes = doc_.substr(offset_, n);
    offset_ += n;
    chunk->last = offset_ >= doc_.size();
    done_ = chunk->last;
    return true;
  }

  /// Rewinds to the start of the document (for repeat parses).
  void Reset() {
    offset_ = 0;
    done_ = false;
  }

 private:
  std::string_view doc_;
  size_t chunk_size_;
  size_t offset_ = 0;
  bool done_ = false;
};

}  // namespace twigm::xml

#endif  // TWIGM_XML_BYTE_SOURCE_H_
