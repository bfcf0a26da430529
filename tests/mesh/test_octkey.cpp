#include "mesh/octkey.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace qv::mesh {
namespace {

TEST(Morton, EncodeDecodeRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    std::uint32_t x = std::uint32_t(rng.next_below(1u << 20));
    std::uint32_t y = std::uint32_t(rng.next_below(1u << 20));
    std::uint32_t z = std::uint32_t(rng.next_below(1u << 20));
    std::uint32_t dx, dy, dz;
    morton_decode(morton_encode(x, y, z), dx, dy, dz);
    ASSERT_EQ(x, dx);
    ASSERT_EQ(y, dy);
    ASSERT_EQ(z, dz);
  }
}

TEST(Morton, KnownValues) {
  EXPECT_EQ(morton_encode(0, 0, 0), 0u);
  EXPECT_EQ(morton_encode(1, 0, 0), 1u);
  EXPECT_EQ(morton_encode(0, 1, 0), 2u);
  EXPECT_EQ(morton_encode(0, 0, 1), 4u);
  EXPECT_EQ(morton_encode(1, 1, 1), 7u);
  EXPECT_EQ(morton_encode(2, 0, 0), 8u);
}

TEST(OctKey, ChildParentRoundTrip) {
  OctKey root{};
  for (int c = 0; c < 8; ++c) {
    OctKey ch = root.child(c);
    EXPECT_EQ(ch.level, 1);
    EXPECT_EQ(ch.parent(), root);
    EXPECT_EQ(int(ch.x) | (int(ch.y) << 1) | (int(ch.z) << 2), c);
  }
}

TEST(OctKey, AncestorOfDescendant) {
  OctKey k{5, 3, 7, 3};
  OctKey grandchild = k.child(6).child(1);
  EXPECT_TRUE(k.is_ancestor_of(grandchild));
  EXPECT_FALSE(grandchild.is_ancestor_of(k));
  EXPECT_EQ(grandchild.ancestor(3), k);
  // A key is its own ancestor at its own level.
  EXPECT_TRUE(k.is_ancestor_of(k));
}

TEST(OctKey, DepthFirstOrdering) {
  // Ancestors sort before descendants; disjoint octants sort by Morton.
  OctKey a{0, 0, 0, 1};
  OctKey a_child = a.child(3);
  OctKey b{1, 0, 0, 1};
  EXPECT_LT(a, a_child);
  EXPECT_LT(a_child, b);
  EXPECT_LT(a, b);
}

// operator<=> interleaves no bits, yet must order exactly as the Morton code
// of the anchor at kMaxLevel resolution, then the level.
TEST(OctKey, OrderMatchesMortonAtMaxLevelThenLevel) {
  auto reference = [](const OctKey& a, const OctKey& b) {
    auto code = [](const OctKey& k) {
      int s = kMaxLevel - k.level;
      return morton_encode(k.x << s, k.y << s, k.z << s);
    };
    if (code(a) != code(b)) return code(a) <=> code(b);
    return a.level <=> b.level;
  };
  Rng rng(41);
  auto random_key = [&rng] {
    auto level = std::uint8_t(rng.next_below(kMaxLevel + 1));
    std::uint64_t side = 1ull << level;
    return OctKey{std::uint32_t(rng.next_below(side)),
                  std::uint32_t(rng.next_below(side)),
                  std::uint32_t(rng.next_below(side)), level};
  };
  for (int i = 0; i < 1'000'000; ++i) {
    OctKey a = random_key();
    OctKey b = a;
    switch (i % 5) {
      case 0:  // unrelated keys
        b = random_key();
        break;
      case 1:  // equal keys
        break;
      case 2:  // an ancestor, which may or may not share the anchor
        b = a.ancestor(int(rng.next_below(a.level + 1u)));
        break;
      case 3:  // a descendant that shares the anchor
        for (int d = int(rng.next_below(kMaxLevel - a.level + 1u)); d > 0; --d)
          b = b.child(0);
        break;
      default: {  // same level, differing only in low bits: msb ties
        std::uint64_t mask = (1ull << rng.next_below(a.level + 1u)) - 1;
        b.x ^= std::uint32_t(rng.next_below(mask + 1));
        b.y ^= std::uint32_t(rng.next_below(mask + 1));
        b.z ^= std::uint32_t(rng.next_below(mask + 1));
        break;
      }
    }
    ASSERT_TRUE((a <=> b) == reference(a, b) && (b <=> a) == reference(b, a))
        << "pair " << i << ": (" << a.x << "," << a.y << "," << a.z << ")@"
        << int(a.level) << " vs (" << b.x << "," << b.y << "," << b.z
        << ")@" << int(b.level);
  }
}

TEST(OctKey, FaceNeighborInterior) {
  OctKey k{2, 2, 2, 3};
  OctKey n;
  ASSERT_TRUE(k.face_neighbor(0, +1, n));
  EXPECT_EQ(n.x, 3u);
  EXPECT_EQ(n.y, 2u);
  ASSERT_TRUE(k.face_neighbor(2, -1, n));
  EXPECT_EQ(n.z, 1u);
}

TEST(OctKey, FaceNeighborAtBoundary) {
  OctKey corner{0, 0, 0, 2};
  OctKey n;
  EXPECT_FALSE(corner.face_neighbor(0, -1, n));
  EXPECT_FALSE(corner.face_neighbor(1, -1, n));
  OctKey far{3, 3, 3, 2};
  EXPECT_FALSE(far.face_neighbor(0, +1, n));
  ASSERT_TRUE(far.face_neighbor(0, -1, n));
  EXPECT_EQ(n.x, 2u);
}

TEST(OctKey, BoxGeometry) {
  Box3 domain{{0, 0, 0}, {8, 8, 8}};
  OctKey k{1, 0, 3, 2};  // level 2: 4 cells per side, each 2 units
  Box3 b = k.box(domain);
  EXPECT_FLOAT_EQ(b.lo.x, 2);
  EXPECT_FLOAT_EQ(b.lo.y, 0);
  EXPECT_FLOAT_EQ(b.lo.z, 6);
  EXPECT_FLOAT_EQ(b.hi.x, 4);
  EXPECT_FLOAT_EQ(b.hi.z, 8);
}

TEST(OctKey, SiblingBoxesTile) {
  Box3 domain{{-1, -1, -1}, {1, 1, 1}};
  OctKey parent{0, 0, 0, 0};
  Box3 pb = parent.box(domain);
  float child_volume = 0;
  for (int c = 0; c < 8; ++c) {
    Vec3 e = parent.child(c).box(domain).extent();
    child_volume += e.x * e.y * e.z;
  }
  Vec3 pe = pb.extent();
  EXPECT_NEAR(child_volume, pe.x * pe.y * pe.z, 1e-5f);
}

}  // namespace
}  // namespace qv::mesh
