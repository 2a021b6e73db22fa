// CRC-32 (IEEE 802.3 polynomial, reflected) for page and log-record
// checksumming. Slicing-by-8: eight 256-entry tables (8 KiB of read-only
// data) fold one 8-byte word per step, with a byte-at-a-time tail. Words are
// assembled from bytes, so any alignment and either byte order give the
// same value as the classic one-table loop: pages and WAL frames written
// by either verify under the other. No hardware dependency (no CLMUL or
// CRC instructions), so it runs on the embedded targets the product line
// is aimed at.
#ifndef FAME_COMMON_CRC32_H_
#define FAME_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace fame {

/// Computes the CRC-32 of data[0, n).
uint32_t Crc32(const void* data, size_t n);

/// Extends `init_crc` (a previous Crc32 result) with data[0, n).
uint32_t Crc32Extend(uint32_t init_crc, const void* data, size_t n);

/// Masks a CRC stored alongside the data it covers, so that re-checksumming
/// a buffer that embeds its own checksum does not "verify" trivially
/// (same trick as LevelDB).
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot << 15) | (rot >> 17);
}

}  // namespace fame

#endif  // FAME_COMMON_CRC32_H_
