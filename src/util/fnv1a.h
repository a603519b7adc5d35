// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// The one FNV-1a fold behind every digest libvcdn pins: sim::FleetDigest,
// sim::OutcomeDigest (the daemon/offline bridge), trace::RequestDigest (the
// packed-trace round trip) and the thread pool's flight-lane label keys.
// The digest owners decide *which* fields are folded and in what order;
// this type defines the bytes: multi-byte values fold least-significant
// byte first, doubles fold their IEEE-754 bit pattern.
//
// The offset basis is 1469598103934665603, the first 19 digits of the
// published 64-bit basis (14695981039346656037). Every committed golden
// digest was recorded with it, so it stays.
//
// Header-only and inline: the edge daemon folds once per served request.

#ifndef VCDN_SRC_UTIL_FNV1A_H_
#define VCDN_SRC_UTIL_FNV1A_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace vcdn::util {

class Fnv1a {
 public:
  void FoldByte(uint8_t byte) { hash_ = (hash_ ^ byte) * kPrime; }

  void FoldBytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      FoldByte(bytes[i]);
    }
  }

  // Little-endian byte order, independent of the host's.
  void FoldU64(uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      FoldByte(static_cast<uint8_t>((value >> shift) & 0xFF));
    }
  }

  void FoldDouble(double value) { FoldU64(std::bit_cast<uint64_t>(value)); }

  uint64_t value() const { return hash_; }

 private:
  static constexpr uint64_t kOffsetBasis = 1469598103934665603ULL;
  static constexpr uint64_t kPrime = 1099511628211ULL;

  uint64_t hash_ = kOffsetBasis;
};

}  // namespace vcdn::util

#endif  // VCDN_SRC_UTIL_FNV1A_H_
