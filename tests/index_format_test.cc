// The CRC-32 kernels of index_format.cc against a bytewise reference.
//
// Every kernel must return the value of the classic byte-at-a-time table
// loop for every length, alignment, seed and chaining split: section CRCs
// are part of the image format, so a kernel that disagrees would make
// every index written by another build unreadable. The folding kernel is
// reached directly and skipped on CPUs without PCLMULQDQ; the portable
// kernel runs on every host.

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "index/index_format.h"

namespace twigm::index {
namespace {

uint32_t ReferenceCrc32(const unsigned char* p, size_t size, uint32_t seed) {
  uint32_t c = ~seed;
  for (size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return ~c;
}

using Kernel = uint32_t (*)(const void*, size_t, uint32_t);

// Deterministic non-trivial bytes (xorshift), so no lane pattern repeats.
std::vector<unsigned char> Bytes(size_t n) {
  std::vector<unsigned char> out(n);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (unsigned char& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x >> 24);
  }
  return out;
}

void CheckKernel(Kernel kernel, const char* name) {
  SCOPED_TRACE(name);
  EXPECT_EQ(kernel("123456789", 9, 0), 0xCBF43926u);
  EXPECT_EQ(kernel(nullptr, 0, 0), 0u);
  EXPECT_EQ(kernel(nullptr, 0, 0xDEADBEEFu), 0xDEADBEEFu);

  const std::vector<unsigned char> buf = Bytes(4096 + 16);
  for (uint32_t seed : {0u, 0xDEADBEEFu}) {
    for (size_t align = 0; align < 16; ++align) {
      for (size_t len = 0; len <= 300; ++len) {
        const unsigned char* p = buf.data() + align;
        ASSERT_EQ(kernel(p, len, seed), ReferenceCrc32(p, len, seed))
            << "seed=" << seed << " align=" << align << " len=" << len;
      }
    }
  }

  const unsigned char* p = buf.data();
  const size_t n = 4096;
  const uint32_t whole = ReferenceCrc32(p, n, 0);
  ASSERT_EQ(kernel(p, n, 0), whole);
  for (size_t split = 0; split <= n; ++split) {
    ASSERT_EQ(kernel(p + split, n - split, kernel(p, split, 0)), whole)
        << "split=" << split;
  }
}

TEST(IndexFormatTest, Crc32KernelsMatchBytewiseReference) {
  CheckKernel(&detail::Crc32Slice8, "slice-by-8");
  CheckKernel(&Crc32, "dispatched");
  if (!detail::Crc32HasClmul()) {
    GTEST_SKIP() << "no PCLMULQDQ on this CPU: folding kernel not run";
  }
  CheckKernel(&detail::Crc32Clmul, "pclmul folding");
}

}  // namespace
}  // namespace twigm::index
