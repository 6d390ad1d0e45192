// 64-bit FNV-1a, the byte hash behind Micro-C's `hash` instruction. The
// P4 lowering precomputes match keys with it, so both must agree bit for
// bit.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lnic {

constexpr std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace lnic
