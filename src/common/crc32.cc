#include "common/crc32.h"

#include <array>

namespace streamsi {
namespace {

// Table-driven CRC-32C (polynomial 0x1EDC6F41, reflected 0x82F63B78),
// slicing-by-8: table k maps a byte to its CRC contribution k bytes further
// along, so the loop folds eight input bytes per step instead of one.
// Every commit record is checksummed on the commit path, and records carry
// their write sets.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

}  // namespace

std::uint32_t Crc32c(const void* data, std::size_t n, std::uint32_t init) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~init;
  for (; n >= 8; n -= 8, p += 8) {
    // The CRC folds into the first four bytes, least significant first.
    const std::uint32_t lo = (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
                              std::uint32_t{p[2]} << 16 |
                              std::uint32_t{p[3]} << 24) ^
                             crc;
    const std::uint32_t hi = std::uint32_t{p[4]} | std::uint32_t{p[5]} << 8 |
                             std::uint32_t{p[6]} << 16 |
                             std::uint32_t{p[7]} << 24;
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace streamsi
