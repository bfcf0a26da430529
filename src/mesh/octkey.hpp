// Octant addressing for linear octrees.
//
// An OctKey names one octant of the unit cube: `level` (0 = root) plus
// integer coordinates (x, y, z) in the 2^level-per-side grid of that level.
// Keys sort in depth-first (Morton) order, which is the storage order for
// linear octrees throughout the library — the same organization the quake
// team's etree mesher uses.
#pragma once

#include <compare>
#include <cstdint>

#include "util/vec.hpp"

namespace qv::mesh {

// Deepest level we can address: 3*20 = 60 Morton bits fit in 64.
inline constexpr int kMaxLevel = 20;

// Interleave the low 20 bits of x, y, z (x in bit 0, y in bit 1, z in bit 2).
std::uint64_t morton_encode(std::uint32_t x, std::uint32_t y, std::uint32_t z);
void morton_decode(std::uint64_t code, std::uint32_t& x, std::uint32_t& y,
                   std::uint32_t& z);

struct OctKey {
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  std::uint32_t z = 0;
  std::uint8_t level = 0;

  bool operator==(const OctKey&) const = default;

  // Depth-first order: the Morton order of the anchors at kMaxLevel
  // resolution, then level, so ancestors sort before their descendants.
  // Morton order is decided by the highest bit in which the anchors differ,
  // so compare the coordinate whose XOR has the highest set bit; z wins ties
  // over y and y over x, as z holds the top bit of each interleaved triple.
  std::strong_ordering operator<=>(const OctKey& o) const {
    // True when the highest set bit of a is below that of b.
    auto msb_less = [](std::uint32_t a, std::uint32_t b) {
      return a < b && a < (a ^ b);
    };
    const int sa = kMaxLevel - level, sb = kMaxLevel - o.level;
    std::uint32_t a = z << sa, b = o.z << sb;
    const std::uint32_t ay = y << sa, by = o.y << sb;
    if (msb_less(a ^ b, ay ^ by)) {
      a = ay;
      b = by;
    }
    const std::uint32_t ax = x << sa, bx = o.x << sb;
    if (msb_less(a ^ b, ax ^ bx)) {
      a = ax;
      b = bx;
    }
    if (a != b) return a <=> b;
    return level <=> o.level;
  }

  OctKey child(int octant) const {
    return {(x << 1) | std::uint32_t(octant & 1),
            (y << 1) | std::uint32_t((octant >> 1) & 1),
            (z << 1) | std::uint32_t((octant >> 2) & 1),
            std::uint8_t(level + 1)};
  }
  OctKey parent() const { return {x >> 1, y >> 1, z >> 1, std::uint8_t(level - 1)}; }
  // Ancestor at the given (shallower or equal) level.
  OctKey ancestor(int at_level) const {
    int shift = level - at_level;
    return {x >> shift, y >> shift, z >> shift, std::uint8_t(at_level)};
  }
  bool is_ancestor_of(const OctKey& o) const {
    return o.level >= level && o.ancestor(level) == *this;
  }

  // Face neighbor along axis (0=x,1=y,2=z) in direction dir (-1 or +1).
  // Returns false when the neighbor would fall outside the root cube.
  bool face_neighbor(int axis, int dir, OctKey& out) const;

  // Geometric extent within `domain` (the root cube mapped onto `domain`).
  Box3 box(const Box3& domain) const;
};

}  // namespace qv::mesh
