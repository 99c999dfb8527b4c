#include "common/crc32.h"

#include <gtest/gtest.h>

#include <array>

#include "common/bytes.h"
#include "common/rng.h"

namespace diesel {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: 32 zero bytes -> 0x8A9136AA.
  Bytes zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  // 32 x 0xFF -> 0x62A8AB43.
  Bytes ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
  // "123456789" -> 0xE3069283.
  std::string digits = "123456789";
  EXPECT_EQ(Crc32c(AsBytesView(digits)), 0xE3069283u);
}

TEST(Crc32cTest, EmptyIsZero) { EXPECT_EQ(Crc32c({}), 0u); }

TEST(Crc32cTest, StreamingMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32c(AsBytesView(data));
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t part = Crc32c(AsBytesView(data.substr(0, split)));
    part = Crc32c(AsBytesView(data.substr(split)), part);
    EXPECT_EQ(part, whole) << "split=" << split;
  }
}

TEST(Crc32cTest, SingleBitFlipChangesChecksum) {
  Bytes data(64, 0x55);
  uint32_t base = Crc32c(data);
  for (size_t byte = 0; byte < data.size(); byte += 7) {
    Bytes mutated = data;
    mutated[byte] ^= 1;
    EXPECT_NE(Crc32c(mutated), base) << "byte=" << byte;
  }
}

// Reference CRC32C: one byte per step through the classic 256-entry table.
uint32_t ReferenceCrc32c(std::span<const uint8_t> data, uint32_t crc) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (uint8_t byte : data) c = table[(c ^ byte) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// The kernels under test: the dispatched one (SSE4.2 on most x86 hosts) and
// the portable table kernel, which CPUs without SSE4.2 run instead.
struct Kernel {
  const char* name;
  uint32_t (*fn)(std::span<const uint8_t>, uint32_t);
};
constexpr Kernel kKernels[] = {
    {"Crc32c", &Crc32c},
    {"Crc32cPortable", &crc32_internal::Crc32cPortable},
};

TEST(Crc32cTest, MatchesByteTableAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLen = 1024;
  constexpr size_t kMaxOffset = 8;
  for (const Kernel& k : kKernels) {
    Rng rng(2024);
    Bytes buf(kMaxLen + kMaxOffset);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
    for (size_t offset = 0; offset < kMaxOffset; ++offset) {
      for (size_t len = 0; len <= kMaxLen; ++len) {
        std::span<const uint8_t> data(buf.data() + offset, len);
        uint32_t seed = static_cast<uint32_t>(rng.Next());
        ASSERT_EQ(k.fn(data, 0), ReferenceCrc32c(data, 0))
            << k.name << " offset=" << offset << " len=" << len;
        ASSERT_EQ(k.fn(data, seed), ReferenceCrc32c(data, seed))
            << k.name << " offset=" << offset << " len=" << len
            << " seed=" << seed;
      }
    }
  }
}

TEST(Crc32cTest, RandomSplitsStreamLikeOneShot) {
  for (const Kernel& k : kKernels) {
    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
      Bytes data(rng.Uniform(4096));
      for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
      uint32_t seed = trial % 2 == 0 ? 0 : static_cast<uint32_t>(rng.Next());
      uint32_t whole = ReferenceCrc32c(data, seed);
      std::span<const uint8_t> rest(data);
      uint32_t crc = seed;
      while (!rest.empty()) {
        size_t n = 1 + rng.Uniform(rest.size());
        crc = k.fn(rest.first(n), crc);
        rest = rest.subspan(n);
      }
      ASSERT_EQ(crc, whole) << k.name << " trial=" << trial
                            << " size=" << data.size();
    }
  }
}

}  // namespace
}  // namespace diesel
