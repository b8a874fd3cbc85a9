#include "common/crc32.h"

#include <array>

namespace turbdb {

namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables: tables[0] is the classic bytewise table, and
/// tables[k][b] is the CRC of byte b followed by k zero bytes.
constexpr Crc32Tables BuildTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = BuildTables();

uint32_t LoadLe32(const uint8_t* in) {
  return static_cast<uint32_t>(in[0]) | (static_cast<uint32_t>(in[1]) << 8) |
         (static_cast<uint32_t>(in[2]) << 16) |
         (static_cast<uint32_t>(in[3]) << 24);
}

}  // namespace

uint32_t Crc32(const void* data, size_t length, uint32_t seed) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  // Eight bytes per step through independent table lookups; the same
  // CRC-32/IEEE value as the bytewise loop below, which takes the tail.
  for (; length >= 8; bytes += 8, length -= 8) {
    const uint32_t low = LoadLe32(bytes) ^ crc;
    const uint32_t high = LoadLe32(bytes + 4);
    crc = kTables[7][low & 0xFFu] ^ kTables[6][(low >> 8) & 0xFFu] ^
          kTables[5][(low >> 16) & 0xFFu] ^ kTables[4][low >> 24] ^
          kTables[3][high & 0xFFu] ^ kTables[2][(high >> 8) & 0xFFu] ^
          kTables[1][(high >> 16) & 0xFFu] ^ kTables[0][high >> 24];
  }
  for (; length > 0; ++bytes, --length) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xFFu];
  }
  return ~crc;
}

}  // namespace turbdb
