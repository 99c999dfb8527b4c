#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

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

}  // namespace

uint32_t Crc32c(std::span<const uint8_t> data, uint32_t crc) {
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

}  // namespace diesel
