// CRC32C (Castagnoli) for chunk payload and header integrity checks.
#pragma once

#include <cstdint>
#include <span>

namespace diesel {

/// CRC32C of `data`, continuing from `crc` (pass 0 to start). Uses the
/// SSE4.2 crc32 instruction when the CPU has it, else Crc32cPortable.
uint32_t Crc32c(std::span<const uint8_t> data, uint32_t crc = 0);

namespace crc32_internal {

/// Table-driven (slicing-by-8) kernel: the only one on CPUs without SSE4.2
/// and on non-x86 builds. Exposed so tests and benches run it everywhere.
uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t crc = 0);

}  // namespace crc32_internal
}  // namespace diesel
