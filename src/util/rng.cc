// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/util/rng.h"

#include "src/util/check.h"

namespace vcdn::util {

Pcg32::Pcg32(uint64_t seed, uint64_t stream) {
  inc_ = (stream << 1u) | 1u;
  state_ = 0;
  (void)Next();
  state_ += seed;
  (void)Next();
}

uint32_t Pcg32::NextBounded(uint32_t bound) {
  VCDN_CHECK(bound > 0);
  // Lemire-style rejection to avoid modulo bias.
  uint32_t threshold = static_cast<uint32_t>(-bound) % bound;
  for (;;) {
    uint32_t r = Next();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

}  // namespace vcdn::util
