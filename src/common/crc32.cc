#include "common/crc32.h"

#include <array>

namespace fame {
namespace {

constexpr uint32_t kPoly = 0xedb88320u;  // reflected IEEE polynomial

using Table = std::array<uint32_t, 256>;

/// kTables[0] is the classic byte table. kTables[k][b] is the CRC of byte b
/// followed by k zero bytes, so eight table lookups fold one 8-byte word.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr std::array<Table, 8> kTables = MakeTables();

/// Little-endian 32-bit load assembled from bytes: no alignment or aliasing
/// assumption, the same result on either byte order, and one plain load
/// once a little-endian compiler folds it.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32Extend(uint32_t init_crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = init_crc ^ 0xffffffffu;
  // Slicing-by-8: the first word absorbs the running CRC, then each of
  // the eight bytes is looked up in the table for its distance from the
  // end of the word.
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
        kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
        kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

uint32_t Crc32(const void* data, size_t n) { return Crc32Extend(0, data, n); }

}  // namespace fame
