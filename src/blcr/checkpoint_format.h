// On-disk checkpoint image format, encoded and decoded by image_codec.h
// for CheckpointWriter, RestartReader and the delta images.
//
// Layout (all integers little-endian, written as the *separate small
// writes* BLCR issues — that write pattern, not the format itself, is
// what the paper profiles):
//
//   file header    magic(8) version(4) pid(4) vma_count(4) image_bytes(8)
//   context        kContextRegisters x 8-byte register dumps,
//                  2 x kContextBlobBytes blobs (fpu state, siginfo),
//                  context_crc(8) over the registers + blobs
//   per VMA        start(8) length(8) prot+type(8) seed(8) crc(8)
//                  payload: `length` bytes, emitted in type-dependent
//                  pieces (see CheckpointWriter)
//   trailer        total_payload_crc(8) end-magic(4)
#pragma once

#include <cstdint>

namespace crfs::blcr {

inline constexpr char kMagic[8] = {'C', 'R', 'F', 'S', 'B', 'L', 'C', 'R'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr char kEndMagic[4] = {'E', 'N', 'D', '!'};

/// Number of 8-byte pseudo-register writes in the context section. Chosen
/// with the per-VMA header writes to land the 0-64 B share of operations
/// near Table I's 50.9%.
inline constexpr unsigned kContextRegisters = 32;

/// Size of each of the two context blobs (fpu area, signal state).
inline constexpr unsigned kContextBlobBytes = 128;

/// Writes per VMA header (start, length, prot+type, seed, crc).
inline constexpr unsigned kVmaHeaderWrites = 5;

}  // namespace crfs::blcr
