#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace diesel {
namespace {

// Slicing-by-8 CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78).
// kTables[0] is the classic byte table; kTables[k][i] is the CRC of byte i
// followed by k zero bytes, so eight lookups fold one 8-byte word at once.
using Table = std::array<uint32_t, 256>;

constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr auto kTables = MakeTables();

// The word load below reads bytes in little-endian order.
static_assert(std::endian::native == std::endian::little);

#if defined(__x86_64__)
// SSE4.2 crc32 instruction: the same polynomial, one 8-byte word per step.
[[gnu::target("sse4.2")]] uint32_t Crc32cSse42(std::span<const uint8_t> data,
                                               uint32_t crc) {
  uint64_t c = crc ^ 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));  // unaligned load
    c = _mm_crc32_u64(c, w);
  }
  auto c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xFFFFFFFFu;
}
#endif

}  // namespace

namespace crc32_internal {

uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t crc) {
  uint32_t c = crc ^ 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));  // unaligned load
    w ^= c;
    c = kTables[7][w & 0xFF] ^ kTables[6][(w >> 8) & 0xFF] ^
        kTables[5][(w >> 16) & 0xFF] ^ kTables[4][(w >> 24) & 0xFF] ^
        kTables[3][(w >> 32) & 0xFF] ^ kTables[2][(w >> 40) & 0xFF] ^
        kTables[1][(w >> 48) & 0xFF] ^ kTables[0][w >> 56];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace crc32_internal

uint32_t Crc32c(std::span<const uint8_t> data, uint32_t crc) {
#if defined(__x86_64__)
  // Picked once, on first use; the CPU check may run during static
  // initialisation, before the runtime's own cpu-model set-up.
  static const auto kernel = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") ? &Crc32cSse42
                                            : &crc32_internal::Crc32cPortable;
  }();
  return kernel(data, crc);
#else
  return crc32_internal::Crc32cPortable(data, crc);
#endif
}

}  // namespace diesel
