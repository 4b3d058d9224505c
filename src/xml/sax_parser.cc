#include "xml/sax_parser.h"

#include <cstring>

#include "obs/instrumentation.h"

namespace twigm::xml {

namespace {

// Per-byte name/whitespace classes: one table load answers "may this byte
// start a name", "continue a name" and "is it XML whitespace" (the
// parser's byte-oriented name rules: ASCII letters, '_', ':' and every
// byte >= 0x80 start a name; digits, '-' and '.' may follow).
enum : uint8_t { kNameStart = 1, kNameByte = 2, kSpace = 4 };

struct ByteClassTable {
  uint8_t v[256] = {};
  constexpr ByteClassTable() {
    for (int c = 0; c < 256; ++c) {
      const bool start = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                         c == '_' || c == ':' || c >= 0x80;
      const bool name = start || (c >= '0' && c <= '9') || c == '-' || c == '.';
      const bool space = c == ' ' || c == '\t' || c == '\n' || c == '\r';
      v[c] = static_cast<uint8_t>((start ? kNameStart : 0) |
                                  (name ? kNameByte : 0) |
                                  (space ? kSpace : 0));
    }
  }
};
constexpr ByteClassTable kByteClass;

inline bool Is(char c, uint8_t cls) {
  return (kByteClass.v[static_cast<unsigned char>(c)] & cls) != 0;
}

bool IsWhitespace(char c) { return Is(c, kSpace); }

bool IsAllWhitespace(std::string_view s) {
  for (char c : s) {
    if (!IsWhitespace(c)) return false;
  }
  return true;
}

// True iff `cp` is an XML 1.0 Char: #x9 | #xA | #xD | [#x20-#xD7FF] |
// [#xE000-#xFFFD] | [#x10000-#x10FFFF]. Character references outside this
// set (NUL, other C0 controls, surrogates, #xFFFE/#xFFFF) are malformed.
bool IsXmlChar(uint32_t cp) {
  if (cp == 0x9 || cp == 0xA || cp == 0xD) return true;
  if (cp < 0x20) return false;
  if (cp >= 0xD800 && cp <= 0xDFFF) return false;
  if (cp == 0xFFFE || cp == 0xFFFF) return false;
  return cp <= 0x10FFFF;
}

// Appends the UTF-8 encoding of `cp` to `out`. Returns false for invalid
// code points (surrogates, > U+10FFFF).
bool AppendUtf8(uint32_t cp, std::string* out) {
  if (cp >= 0xD800 && cp <= 0xDFFF) return false;
  if (cp > 0x10FFFF) return false;
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
  return true;
}

}  // namespace

bool IsValidXmlName(std::string_view name) {
  if (name.empty() || !Is(name[0], kNameStart)) return false;
  for (size_t i = 1; i < name.size(); ++i) {
    if (!Is(name[i], kNameByte)) return false;
  }
  return true;
}

SaxParser::SaxParser(SaxHandler* handler, SaxParserOptions options)
    : handler_(handler), options_(options) {}

void SaxParser::Reset() {
  buffer_.clear();  // clear() keeps capacity
  pos_ = 0;
  line_ = 1;
  column_ = 1;
  loc_pos_ = 0;
  bytes_consumed_ = 0;
  index_.Clear();  // keeps capacity
  scanned_end_ = 0;
  mark_cursor_ = 0;
  pending_ = Construct::kNone;
  text_has_amp_ = false;
  tag_quote_ = kNoQuote;
  doctype_scanned_ = 0;
  doctype_depth_ = 0;
  doctype_literal_ = 0;
  tag_values_.clear();
  encoding_ = Encoding::kUnknown;
  sniff_len_ = 0;
  have_pending_u16_byte_ = false;
  pending_high_surrogate_ = 0;
  open_tags_.clear();
  seen_root_ = false;
  started_ = false;
  finished_ = false;
  error_ = Status::Ok();
  text_scratch_.clear();
  attr_decode_buf_.clear();
  attr_scratch_.clear();
  attr_fixups_.clear();
  // interner_ deliberately untouched: symbols are stable for the parser's
  // lifetime so machine label bindings survive across documents.
}

// ---------------------------------------------------------------------------
// ByteSource front door

Status SaxParser::Consume(const InputChunk& chunk) {
  if (!error_.ok()) return error_;
  if (finished_) {
    // A bare end-of-input marker after the document already finished is the
    // idempotent Finish() of old; actual bytes are an error.
    if (chunk.bytes.empty() && chunk.last) return Status::Ok();
    error_ = Status::InvalidArgument("Consume() after end of document");
    return error_;
  }
  if (!started_) {
    started_ = true;
    handler_->OnStartDocument();
  }
  error_ = Ingest(chunk.bytes, chunk.last);
  if (!error_.ok()) return error_;
  error_ = Drain();
  if (!error_.ok()) return error_;
  if (AtNul()) {
    // Everything up to the NUL wall has been consumed; the NUL is next.
    error_ = NulError();
    return error_;
  }
  if (options_.max_buffer_bytes > 0 &&
      buffer_.size() - pos_ > options_.max_buffer_bytes) {
    // Everything complete was consumed by Drain, so whatever remains is one
    // incomplete construct that keeps growing — an unterminated tag, CDATA
    // section, comment or text run. buffer_ is the canonical buffer, so the
    // cap binds after BOM stripping and UTF-16→UTF-8 expansion.
    SyncLocation(pos_);
    error_ = Status::ResourceExhausted(
        "unterminated construct exceeds max_buffer_bytes=" +
        std::to_string(options_.max_buffer_bytes) + " (line " +
        std::to_string(line_) + ", column " + std::to_string(column_) + ")");
    return error_;
  }
  if (chunk.last) error_ = FinishInput();
  return error_;
}

Status SaxParser::Pump(ByteSource* source) {
  InputChunk chunk;
  while (source->Next(&chunk)) {
    TWIGM_RETURN_IF_ERROR(Consume(chunk));
  }
  return Status::Ok();
}

Status SaxParser::FinishInput() {
  finished_ = true;
  if (have_pending_u16_byte_ || pending_high_surrogate_ != 0) {
    return ErrorHere("truncated UTF-16 input (document ends mid-character)");
  }
  if (std::memchr(buffer_.data() + pos_, '\0', buffer_.size() - pos_) !=
      nullptr) {
    return NulError();
  }
  // Whatever remains must be trailing whitespace; anything else means the
  // document was truncated.
  std::string_view rest(buffer_.data() + pos_, buffer_.size() - pos_);
  if (!rest.empty()) {
    if (!IsAllWhitespace(rest)) {
      return ErrorHere("unexpected end of document (unterminated construct)");
    }
  }
  if (!open_tags_.empty()) {
    return ErrorHere("document ended with unclosed element <" +
                     std::string(interner_.name(open_tags_.back())) + ">");
  }
  if (!seen_root_) {
    return ErrorHere("document contains no root element");
  }
  if (offset_slot_ != nullptr) *offset_slot_ = bytes_consumed_;
  handler_->OnEndDocument();
  return Status::Ok();
}

Status SaxParser::Ingest(std::string_view bytes, bool last) {
  if (encoding_ == Encoding::kUnknown) {
    // Sniff the byte order mark one byte at a time; chunks may split inside
    // it. Decided as soon as the prefix can no longer be (or definitely is)
    // a BOM: EF BB BF → UTF-8 (dropped), FE FF → UTF-16BE, FF FE → UTF-16LE,
    // anything else → UTF-8 with the sniffed bytes as content.
    size_t consumed = 0;
    while (encoding_ == Encoding::kUnknown) {
      if (sniff_len_ == 3) {
        if (sniff_[0] == 0xEF && sniff_[1] == 0xBB && sniff_[2] == 0xBF) {
          sniff_len_ = 0;  // drop the UTF-8 BOM
        }
        encoding_ = Encoding::kUtf8;
      } else if (sniff_len_ == 2 && sniff_[0] == 0xFE && sniff_[1] == 0xFF) {
        encoding_ = Encoding::kUtf16Be;
        sniff_len_ = 0;
      } else if (sniff_len_ == 2 && sniff_[0] == 0xFF && sniff_[1] == 0xFE) {
        encoding_ = Encoding::kUtf16Le;
        sniff_len_ = 0;
      } else if (sniff_len_ == 2 &&
                 !(sniff_[0] == 0xEF && sniff_[1] == 0xBB)) {
        encoding_ = Encoding::kUtf8;
      } else if (sniff_len_ == 1 && sniff_[0] != 0xEF && sniff_[0] != 0xFE &&
                 sniff_[0] != 0xFF) {
        encoding_ = Encoding::kUtf8;
      } else if (consumed < bytes.size()) {
        sniff_[sniff_len_++] = static_cast<unsigned char>(bytes[consumed++]);
      } else if (last) {
        encoding_ = Encoding::kUtf8;  // partial-BOM-looking bytes: content
      } else {
        return Status::Ok();  // still a proper BOM prefix; wait for bytes
      }
    }
    // Sniffed bytes that turned out to be content lead the canonical stream.
    if (sniff_len_ > 0) {
      buffer_.append(reinterpret_cast<const char*>(sniff_), sniff_len_);
      sniff_len_ = 0;
    }
    bytes.remove_prefix(consumed);
  }
  Status s = Status::Ok();
  if (encoding_ == Encoding::kUtf8) {
    buffer_.append(bytes.data(), bytes.size());
  } else {
    s = DecodeUtf16(bytes);
  }
  ScanAppended();
  return s;
}

Status SaxParser::DecodeUtf16(std::string_view bytes) {
  const bool le = encoding_ == Encoding::kUtf16Le;
  size_t i = 0;
  while (i < bytes.size()) {
    unsigned char first, second;
    if (have_pending_u16_byte_) {
      first = pending_u16_byte_;
      second = static_cast<unsigned char>(bytes[i]);
      ++i;
      have_pending_u16_byte_ = false;
    } else if (i + 1 < bytes.size()) {
      first = static_cast<unsigned char>(bytes[i]);
      second = static_cast<unsigned char>(bytes[i + 1]);
      i += 2;
    } else {
      // A code unit split across chunks; carry its first byte.
      pending_u16_byte_ = static_cast<unsigned char>(bytes[i]);
      have_pending_u16_byte_ = true;
      break;
    }
    const uint32_t unit = le
                              ? (static_cast<uint32_t>(first) |
                                 (static_cast<uint32_t>(second) << 8))
                              : ((static_cast<uint32_t>(first) << 8) |
                                 static_cast<uint32_t>(second));
    if (pending_high_surrogate_ != 0) {
      if (unit < 0xDC00 || unit > 0xDFFF) {
        return ErrorHere("unpaired UTF-16 high surrogate");
      }
      const uint32_t cp = 0x10000 +
                          ((pending_high_surrogate_ - 0xD800) << 10) +
                          (unit - 0xDC00);
      pending_high_surrogate_ = 0;
      AppendUtf8(cp, &buffer_);  // cannot fail: cp <= 0x10FFFF, no surrogate
    } else if (unit >= 0xD800 && unit <= 0xDBFF) {
      pending_high_surrogate_ = unit;  // may pair across a chunk split
    } else if (unit >= 0xDC00 && unit <= 0xDFFF) {
      return ErrorHere("unpaired UTF-16 low surrogate");
    } else {
      // U+0000 encodes to a NUL byte, which the structural scan rejects
      // like any other NUL in the canonical stream.
      AppendUtf8(unit, &buffer_);
    }
  }
  return Status::Ok();
}

void SaxParser::ScanAppended() {
  if (scanned_end_ >= buffer_.size()) return;
  obs::TimerScope timer(scan_timer_slot_);
  if (options_.force_scalar_scan) {
    ScanStructuralScalar(buffer_, scanned_end_, buffer_.size(), &index_);
  } else {
    ScanStructural(buffer_, scanned_end_, buffer_.size(), &index_);
  }
  scanned_end_ = buffer_.size();
}

Status SaxParser::NulError() {
  const char* nul = static_cast<const char*>(
      std::memchr(buffer_.data() + pos_, '\0', buffer_.size() - pos_));
  Advance(static_cast<size_t>(nul - buffer_.data()));
  return ErrorHere("NUL (0x00) byte in document");
}

// ---------------------------------------------------------------------------
// Stage 2: one forward walk over the structural marks
//
// Drain classifies the construct at pos_ once, from its first bytes
// (ClassifyDeclaration sorts out "<!"), and walks its marks from
// mark_cursor_ (Walk*). Each mark is classified exactly once:
// when the buffered input ends inside a construct, the walk leaves
// mark_cursor_ at the first mark it has not classified and keeps what it
// learned from the others (pending_, the open quote, the '&' flag, the
// attribute value spans, the DOCTYPE depth), and the next Drain continues
// from there. The first NUL is itself a mark, so every walk stops at the
// NUL wall by class alone. All walk state is held as offsets from pos_,
// so buffer compaction (which cuts at pos_) only rebases the cursor.
// The per-element helpers (text, start- and end-tag walks, EmitText,
// ConsumeEndTag) are defined `inline` so Drain folds them into its loop.

Status SaxParser::Drain() {
  constexpr size_t npos = StructuralIndex::npos;
  while (pos_ < buffer_.size() && buffer_[pos_] != '\0') {
    // Publish the construct-start offset before any handler fires for it.
    if (offset_slot_ != nullptr) *offset_slot_ = bytes_consumed_;
    if (pending_ == Construct::kNone) {
      if (buffer_[pos_] != '<') {
        text_has_amp_ = false;
        pending_ = Construct::kText;
      } else if (buffer_.size() - pos_ < 2) {
        break;  // too few bytes to tell
      } else if (buffer_[pos_ + 1] == '!') {
        TWIGM_RETURN_IF_ERROR(ClassifyDeclaration());
        if (pending_ == Construct::kNone) break;  // too few bytes to tell
      } else {
        // Dispatch on the byte after '<'. The cursor is on the '<' mark at
        // pos_; the construct's walk starts after it.
        const char c1 = buffer_[pos_ + 1];
        if (c1 == '/') {
          pending_ = Construct::kEndTag;
        } else if (c1 == '?') {
          pending_ = Construct::kPi;
        } else {
          tag_values_.clear();
          pending_ = Construct::kStartTag;
        }
        ++mark_cursor_;
      }
    }
    size_t end = npos;
    switch (pending_) {
      case Construct::kText:
        end = WalkText();
        if (end != npos) TWIGM_RETURN_IF_ERROR(EmitText(end, text_has_amp_));
        break;
      case Construct::kStartTag: {
        bool lt_in_tag = false;
        end = WalkStartTag(&lt_in_tag);
        if (lt_in_tag) return ErrorHere("'<' is not allowed inside a tag");
        if (end != npos) TWIGM_RETURN_IF_ERROR(ConsumeStartTag(end));
        break;
      }
      case Construct::kEndTag:
        end = WalkToGt();
        if (end != npos) TWIGM_RETURN_IF_ERROR(ConsumeEndTag(end));
        break;
      case Construct::kComment:  // "<!--" body "-->"
        end = WalkToTerminator(pos_ + 6, "--");
        if (end != npos) TWIGM_RETURN_IF_ERROR(ConsumeComment(end));
        break;
      case Construct::kCdata:  // "<![CDATA[" body "]]>"
        end = WalkToTerminator(pos_ + 11, "]]");
        if (end != npos) TWIGM_RETURN_IF_ERROR(ConsumeCdata(end));
        break;
      case Construct::kPi:  // "<?" body "?>"
        end = WalkToTerminator(pos_ + 3, "?");
        if (end != npos) TWIGM_RETURN_IF_ERROR(ConsumePi(end));
        break;
      case Construct::kDoctype:  // skipped
        end = WalkDoctype();
        if (end != npos) Advance(end + 1);
        break;
      case Construct::kNone:
        break;
    }
    if (end == npos) break;  // construct incomplete; wait for more input
    pending_ = Construct::kNone;
  }
  Compact();
  return Status::Ok();
}

Status SaxParser::ClassifyDeclaration() {
  // buffer_[pos_, pos_ + 2) == "<!". It must be told apart from its three
  // openers, and stays undecided while the buffered bytes are still a
  // prefix of one of them.
  constexpr std::string_view kCommentOpen = "<!--";
  constexpr std::string_view kCdataOpen = "<![CDATA[";
  constexpr std::string_view kDoctypeOpen = "<!DOCTYPE";
  const size_t avail = buffer_.size() - pos_;
  const std::string_view view(buffer_.data() + pos_, avail);
  Construct kind = Construct::kNone;
  if (view.starts_with(kCommentOpen)) {
    kind = Construct::kComment;
  } else if (avail < kCommentOpen.size() && kCommentOpen.starts_with(view)) {
    return Status::Ok();
  } else if (view.starts_with(kCdataOpen)) {
    kind = Construct::kCdata;
  } else if (avail < kCdataOpen.size() && kCdataOpen.starts_with(view)) {
    return Status::Ok();
  } else if (view.starts_with(kDoctypeOpen)) {
    if (seen_root_ || !open_tags_.empty()) {
      return ErrorHere("DOCTYPE must precede the root element");
    }
    kind = Construct::kDoctype;
    doctype_scanned_ = kDoctypeOpen.size();
    doctype_depth_ = 0;
    doctype_literal_ = 0;
  } else if (avail < kDoctypeOpen.size() && kDoctypeOpen.starts_with(view)) {
    return Status::Ok();
  } else if (avail >= kCdataOpen.size()) {
    return ErrorHere("unrecognized markup declaration");
  } else {
    return Status::Ok();
  }
  ++mark_cursor_;  // past the '<' mark at pos_
  pending_ = kind;
  return Status::Ok();
}

inline size_t SaxParser::WalkText() {
  const uint64_t* marks = index_.marks.data();
  const size_t n = index_.marks.size();
  size_t k = mark_cursor_;
  bool amp = false;
  size_t lt = StructuralIndex::npos;
  for (; k < n; ++k) {
    const StructClass cls = StructuralIndex::ClassOf(marks[k]);
    if (cls == StructClass::kLt) {
      lt = StructuralIndex::PosOf(marks[k]);
      break;
    }
    if (cls == StructClass::kNul) break;
    amp |= cls == StructClass::kAmp;
  }
  mark_cursor_ = k;  // on completion: the '<' that starts the next construct
  text_has_amp_ |= amp;
  return lt;
}

inline size_t SaxParser::WalkStartTag(bool* lt_in_tag) {
  constexpr uint8_t kLt = static_cast<uint8_t>(StructClass::kLt);
  constexpr uint8_t kGt = static_cast<uint8_t>(StructClass::kGt);
  constexpr uint8_t kAmp = static_cast<uint8_t>(StructClass::kAmp);
  constexpr uint8_t kDQuote = static_cast<uint8_t>(StructClass::kDQuote);
  constexpr uint8_t kSQuote = static_cast<uint8_t>(StructClass::kSQuote);
  constexpr uint8_t kNul = static_cast<uint8_t>(StructClass::kNul);
  const uint64_t* marks = index_.marks.data();
  const size_t n = index_.marks.size();
  size_t k = mark_cursor_;
  uint8_t quote = tag_quote_;
  for (; k < n; ++k) {
    const uint64_t mark = marks[k];
    const uint8_t cls = static_cast<uint8_t>(mark & 7);
    if (quote == kNoQuote) {
      if (cls == kGt) {
        mark_cursor_ = k + 1;
        tag_quote_ = kNoQuote;
        return StructuralIndex::PosOf(mark);
      }
      if (cls == kDQuote || cls == kSQuote) {
        // A quote outside a value opens one; pairing is greedy, exactly
        // as the attribute parser will meet the quotes.
        quote = cls;
        tag_values_.push_back(
            {StructuralIndex::PosOf(mark) - pos_, 0, false, false});
      } else if (cls == kLt) {
        *lt_in_tag = true;
        break;
      } else if (cls == kNul) {
        break;
      }
    } else if (cls == quote) {
      tag_values_.back().close = StructuralIndex::PosOf(mark) - pos_;
      quote = kNoQuote;
    } else if (cls == kLt) {
      tag_values_.back().has_lt = true;
    } else if (cls == kAmp) {
      tag_values_.back().has_amp = true;
    } else if (cls == kNul) {
      break;
    }
  }
  mark_cursor_ = k;
  tag_quote_ = quote;
  return StructuralIndex::npos;
}

inline size_t SaxParser::WalkToGt() {
  const uint64_t* marks = index_.marks.data();
  const size_t n = index_.marks.size();
  size_t k = mark_cursor_;
  for (; k < n; ++k) {
    const StructClass cls = StructuralIndex::ClassOf(marks[k]);
    if (cls == StructClass::kGt) {
      mark_cursor_ = k + 1;
      return StructuralIndex::PosOf(marks[k]);
    }
    if (cls == StructClass::kNul) break;
  }
  mark_cursor_ = k;
  return StructuralIndex::npos;
}

size_t SaxParser::WalkToTerminator(size_t min_gt, std::string_view close) {
  const uint64_t* marks = index_.marks.data();
  const size_t n = index_.marks.size();
  const char* b = buffer_.data();
  size_t k = mark_cursor_;
  for (; k < n; ++k) {
    const StructClass cls = StructuralIndex::ClassOf(marks[k]);
    if (cls == StructClass::kGt) {
      const size_t p = StructuralIndex::PosOf(marks[k]);
      if (p >= min_gt &&
          std::memcmp(b + p - close.size(), close.data(), close.size()) == 0) {
        mark_cursor_ = k + 1;
        return p;
      }
    } else if (cls == StructClass::kNul) {
      break;
    }
  }
  mark_cursor_ = k;
  return StructuralIndex::npos;
}

size_t SaxParser::WalkDoctype() {
  const char* b = buffer_.data();
  const size_t size = buffer_.size();
  int depth = doctype_depth_;
  char literal = doctype_literal_;
  size_t i = pos_ + doctype_scanned_;
  // A construct opener or closer split by the chunk end is re-read once
  // the next chunk arrives: the scan stops in front of it.
  const auto buffered = [&](size_t n) { return i + n < size; };
  for (; i < size; ++i) {
    const char c = b[i];
    if (c == '\0') break;  // the NUL wall
    if (literal != 0) {
      if (c != literal) continue;
      if (literal == '-' || literal == '?') {
        // A comment ends at "-->", a PI at "?>".
        const size_t n = literal == '-' ? 2 : 1;
        if (!buffered(n)) break;
        if (b[i + n] != '>' || (n == 2 && b[i + 1] != '-')) continue;
        i += n;
      }
      literal = 0;
    } else if (c == '"' || c == '\'') {
      literal = c;
    } else if (c == '<' && depth > 0) {
      // Comments and PIs of the internal subset may hold any byte.
      if (!buffered(3)) break;
      if (b[i + 1] == '?') {
        literal = '?';
        ++i;
      } else if (b[i + 1] == '!' && b[i + 2] == '-' && b[i + 3] == '-') {
        literal = '-';
        i += 3;
      }
    } else if (c == '[') {
      ++depth;
    } else if (c == ']') {
      --depth;
    } else if (c == '>' && depth == 0) {
      // The declaration's own marks are passed over unclassified.
      const std::vector<uint64_t>& marks = index_.marks;
      while (mark_cursor_ < marks.size() &&
             StructuralIndex::PosOf(marks[mark_cursor_]) <= i) {
        ++mark_cursor_;
      }
      return i;
    }
  }
  doctype_scanned_ = i - pos_;
  doctype_depth_ = depth;
  doctype_literal_ = literal;
  return StructuralIndex::npos;
}

void SaxParser::Compact() {
  // Drop the consumed prefix once it dominates the buffer, so long
  // documents do not accumulate.
  if (pos_ <= 65536 || pos_ <= buffer_.size() / 2) return;
  SyncLocation(pos_);  // the bytes below pos_ are about to disappear
  buffer_.erase(0, pos_);
  mark_cursor_ -= index_.DropBelowAndRebase(pos_);
  scanned_end_ -= pos_;
  loc_pos_ = 0;
  pos_ = 0;
}

inline Status SaxParser::EmitText(size_t lt, bool has_amp) {
  std::string_view raw(buffer_.data() + pos_, lt - pos_);
  if (!raw.empty()) {
    if (open_tags_.empty()) {
      // Outside the root element only whitespace is allowed.
      if (!IsAllWhitespace(raw)) {
        return ErrorHere("character data outside the root element");
      }
    } else if (!has_amp) {
      // Fast path: no entity references, so the raw bytes are the decoded
      // text — emit the buffer view directly, no copy.
      handler_->OnCharacters(raw);
    } else {
      text_scratch_.clear();
      TWIGM_RETURN_IF_ERROR(
          DecodeEntities(raw, "character data", &text_scratch_));
      handler_->OnCharacters(text_scratch_);
    }
  }
  Advance(lt);
  return Status::Ok();
}

Status SaxParser::ConsumeComment(size_t gt) {
  const size_t body_begin = pos_ + 4;  // past "<!--"
  std::string_view body(buffer_.data() + body_begin, gt - 2 - body_begin);
  if (body.find("--") != std::string_view::npos) {
    return ErrorHere("'--' is not allowed inside a comment");
  }
  handler_->OnComment(body);
  Advance(gt + 1);
  return Status::Ok();
}

Status SaxParser::ConsumeCdata(size_t gt) {
  if (open_tags_.empty()) {
    return ErrorHere("CDATA section outside the root element");
  }
  const size_t body_begin = pos_ + 9;  // past "<![CDATA["
  handler_->OnCharacters(
      std::string_view(buffer_.data() + body_begin, gt - 2 - body_begin));
  Advance(gt + 1);
  return Status::Ok();
}

Status SaxParser::ConsumePi(size_t gt) {
  std::string_view body(buffer_.data() + pos_ + 2, gt - 1 - (pos_ + 2));
  size_t name_end = 0;
  while (name_end < body.size() && !IsWhitespace(body[name_end])) {
    ++name_end;
  }
  std::string_view target = body.substr(0, name_end);
  std::string_view data = body.substr(name_end);
  while (!data.empty() && IsWhitespace(data.front())) data.remove_prefix(1);
  if (!IsValidXmlName(target)) {
    return ErrorHere("invalid processing-instruction target");
  }
  // The XML declaration is consumed silently. It must be the first bytes
  // of the canonical stream — right after the BOM, if any (bytes_consumed_
  // counts canonical bytes, so a stripped BOM does not forfeit the
  // position).
  if (target != "xml") {
    handler_->OnProcessingInstruction(target, data);
  } else if (seen_root_ || !open_tags_.empty() || bytes_consumed_ != 0 ||
             pos_ != 0) {
    return ErrorHere("XML declaration must be at the start of the document");
  }
  Advance(gt + 1);
  return Status::Ok();
}

// Both tag parsers rely on buffer_[gt] == '>': it is neither a name byte
// nor whitespace, so the byte loops below need no bound check.

Status SaxParser::ConsumeStartTag(size_t gt) {
  // buffer_[pos_] == '<'; tag_values_ holds the quoted values before gt.
  const char* b = buffer_.data();
  size_t i = pos_ + 1;
  if (!Is(b[i], kNameStart)) return ErrorHere("invalid element name");
  const size_t name_begin = i;
  do {
    ++i;
  } while (Is(b[i], kNameByte));
  const std::string_view name(b + name_begin, i - name_begin);
  if (open_tags_.empty() && seen_root_) {
    return ErrorHere("multiple root elements");
  }
  if (static_cast<int>(open_tags_.size()) >= options_.max_depth) {
    return Status::ResourceExhausted("maximum element depth exceeded");
  }

  attr_scratch_.clear();
  attr_fixups_.clear();
  attr_decode_buf_.clear();
  size_t next_value = 0;
  bool self_closing = false;
  while (i < gt) {
    if (Is(b[i], kSpace)) {
      ++i;
      continue;
    }
    if (b[i] == '/') {
      if (i + 1 != gt) return ErrorHere("'/' must immediately precede '>'");
      self_closing = true;
      ++i;
      continue;
    }
    // Attribute name: a maximal run of name bytes.
    const size_t an_begin = i;
    while (Is(b[i], kNameByte)) ++i;
    std::string_view attr_name(b + an_begin, i - an_begin);
    if (!Is(b[an_begin], kNameStart)) {
      return ErrorHere("invalid attribute name in <" + std::string(name) +
                       ">");
    }
    while (Is(b[i], kSpace)) ++i;
    if (i >= gt || b[i] != '=') {
      return ErrorHere("expected '=' after attribute name '" +
                       std::string(attr_name) + "'");
    }
    ++i;
    while (Is(b[i], kSpace)) ++i;
    if (i >= gt || (b[i] != '"' && b[i] != '\'')) {
      return ErrorHere("attribute value must be quoted");
    }
    // The walk paired this quote with its closing quote already: quotes
    // reach the attribute parser in the order the walk opened them.
    if (next_value >= tag_values_.size() ||
        pos_ + tag_values_[next_value].open != i) {
      return ErrorHere("unterminated attribute value");
    }
    const ValueSpan& span = tag_values_[next_value++];
    if (span.has_lt) {
      return ErrorHere("'<' is not allowed in an attribute value");
    }
    const size_t val_begin = i + 1;
    const size_t val_end = pos_ + span.close;
    std::string_view raw_value(b + val_begin, val_end - val_begin);
    i = val_end + 1;  // past the closing quote
    for (const Attribute& existing : attr_scratch_) {
      if (SameName(existing.name, attr_name)) {
        return ErrorHere("duplicate attribute '" + std::string(attr_name) +
                         "'");
      }
    }
    Attribute attr;
    attr.name = attr_name;
    if (!span.has_amp) {
      // Fast path: no entities, the raw bytes are the value.
      attr.value = raw_value;
    } else {
      // Decode into the shared side buffer; it may reallocate as later
      // values append, so park an (index, offset, length) fixup and patch
      // the view in after the loop.
      const size_t off = attr_decode_buf_.size();
      TWIGM_RETURN_IF_ERROR(
          DecodeEntities(raw_value, "attribute value", &attr_decode_buf_));
      attr_fixups_.push_back(
          {attr_scratch_.size(), off, attr_decode_buf_.size() - off});
    }
    attr_scratch_.push_back(attr);
  }
  for (const AttrFixup& fx : attr_fixups_) {
    attr_scratch_[fx.attr_index].value =
        std::string_view(attr_decode_buf_.data() + fx.offset, fx.length);
  }

  seen_root_ = true;
  const SymbolId sym = interner_.Intern(name);
  const TagToken tag(name, sym);
  handler_->OnStartElement(tag, attr_scratch_);
  if (self_closing) {
    handler_->OnEndElement(tag);
  } else {
    open_tags_.push_back(sym);
  }
  Advance(gt + 1);
  return Status::Ok();
}

inline Status SaxParser::ConsumeEndTag(size_t gt) {
  // buffer_[pos_..pos_+1] == "</", buffer_[gt] == '>'.
  const char* b = buffer_.data();
  const size_t name_begin = pos_ + 2;
  if (!open_tags_.empty()) {
    // Fast path: the bytes spell the open element's name, followed by
    // nothing but whitespace up to the '>'.
    const SymbolId sym = open_tags_.back();
    const std::string_view open = interner_.name(sym);
    if (gt - name_begin >= open.size() &&
        SameNameBytes(b + name_begin, open.data(), open.size())) {
      size_t i = name_begin + open.size();
      while (Is(b[i], kSpace)) ++i;
      if (i == gt) {
        open_tags_.pop_back();
        handler_->OnEndElement(
            TagToken(std::string_view(b + name_begin, open.size()), sym));
        Advance(gt + 1);
        return Status::Ok();
      }
    }
  }
  // Slow path: sort out which error it is.
  size_t i = name_begin;
  while (Is(b[i], kNameByte)) ++i;
  std::string_view name(b + name_begin, i - name_begin);
  while (Is(b[i], kSpace)) ++i;
  if (i != gt || !IsValidXmlName(name)) {
    return ErrorHere("malformed end tag");
  }
  if (open_tags_.empty()) {
    return ErrorHere("end tag </" + std::string(name) +
                     "> with no open element");
  }
  return ErrorHere("mismatched end tag: expected </" +
                   std::string(interner_.name(open_tags_.back())) +
                   ">, found </" + std::string(name) + ">");
}

Status SaxParser::DecodeEntities(std::string_view raw, const char* context,
                                 std::string* out) {
  out->reserve(out->size() + raw.size());
  size_t i = 0;
  while (i < raw.size()) {
    const char c = raw[i];
    if (c != '&') {
      out->push_back(c);
      ++i;
      continue;
    }
    const size_t semi = raw.find(';', i + 1);
    if (semi == std::string_view::npos) {
      return ErrorHere(std::string("unterminated entity reference in ") +
                       context);
    }
    std::string_view entity = raw.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      out->push_back('&');
    } else if (entity == "lt") {
      out->push_back('<');
    } else if (entity == "gt") {
      out->push_back('>');
    } else if (entity == "apos") {
      out->push_back('\'');
    } else if (entity == "quot") {
      out->push_back('"');
    } else if (!entity.empty() && entity[0] == '#') {
      uint32_t cp = 0;
      bool valid = entity.size() > 1;
      if (entity.size() > 2 && (entity[1] == 'x' || entity[1] == 'X')) {
        for (size_t k = 2; k < entity.size() && valid; ++k) {
          const char h = entity[k];
          uint32_t digit;
          if (h >= '0' && h <= '9') {
            digit = static_cast<uint32_t>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            digit = static_cast<uint32_t>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            digit = static_cast<uint32_t>(h - 'A' + 10);
          } else {
            valid = false;
            break;
          }
          cp = cp * 16 + digit;
          if (cp > 0x10FFFF) valid = false;
        }
        valid = valid && entity.size() > 2;
      } else {
        for (size_t k = 1; k < entity.size() && valid; ++k) {
          const char d = entity[k];
          if (d < '0' || d > '9') {
            valid = false;
            break;
          }
          cp = cp * 10 + static_cast<uint32_t>(d - '0');
          if (cp > 0x10FFFF) valid = false;
        }
      }
      // References to non-XML characters (NUL, other C0 controls,
      // surrogates, #xFFFE/#xFFFF) are malformed, not just unusual: they
      // could smuggle bytes the canonical-stream checks already rejected.
      if (!valid || !IsXmlChar(cp) || !AppendUtf8(cp, out)) {
        return ErrorHere(std::string("invalid character reference in ") +
                         context);
      }
    } else {
      return ErrorHere("unknown entity '&" + std::string(entity) + ";' in " +
                       context);
    }
    i = semi + 1;
  }
  return Status::Ok();
}

void SaxParser::SyncLocation(size_t to) {
  const char* base = buffer_.data();
  size_t i = loc_pos_;
  while (i < to) {
    const void* nl = std::memchr(base + i, '\n', to - i);
    if (nl == nullptr) break;
    ++line_;
    column_ = 1;
    i = static_cast<size_t>(static_cast<const char*>(nl) - base) + 1;
  }
  column_ += to - i;
  loc_pos_ = to;
}

Status SaxParser::ErrorHere(const std::string& msg) {
  SyncLocation(pos_);
  return Status::ParseError(msg + " (line " + std::to_string(line_) +
                            ", column " + std::to_string(column_) + ")");
}

}  // namespace twigm::xml
