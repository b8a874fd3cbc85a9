#pragma once

#include <cstddef>
#include <cstdint>

namespace turbdb {

/// CRC-32 (IEEE 802.3 polynomial, reflected), computed slicing-by-8.
/// Checksums atom payloads in the file-backed store (so on-disk
/// corruption is detected at read time rather than silently propagating
/// into derived fields), network frames, WAL records and Merkle digests;
/// all of them persist or exchange these exact values.
uint32_t Crc32(const void* data, size_t length, uint32_t seed = 0);

}  // namespace turbdb
