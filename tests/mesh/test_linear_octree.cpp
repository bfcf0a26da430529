#include "mesh/linear_octree.hpp"

#include <gtest/gtest.h>

#include <map>

#include "util/rng.hpp"

namespace qv::mesh {
namespace {

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};

// Total volume of the leaves must tile the domain exactly once.
double leaf_volume(const LinearOctree& t) {
  double v = 0;
  for (const auto& k : t.leaves()) {
    Vec3 e = k.box(t.domain()).extent();
    v += double(e.x) * e.y * e.z;
  }
  return v;
}

TEST(LinearOctree, UniformHasExpectedLeafCount) {
  for (int level = 0; level <= 3; ++level) {
    auto t = LinearOctree::uniform(kUnit, level);
    EXPECT_EQ(t.leaf_count(), std::size_t(1) << (3 * level));
    EXPECT_EQ(t.max_leaf_level(), level);
    EXPECT_EQ(t.min_leaf_level(), level);
    EXPECT_NEAR(leaf_volume(t), 1.0, 1e-6);
  }
}

TEST(LinearOctree, AdaptiveBuildRefinesNearTarget) {
  // Ask for fine cells near one corner only.
  auto size = [](Vec3 p) {
    float d = (p - Vec3{0, 0, 0}).norm();
    return d < 0.3f ? 0.04f : 0.5f;
  };
  auto t = LinearOctree::build(kUnit, size, 1, 6);
  EXPECT_GT(t.max_leaf_level(), t.min_leaf_level());
  EXPECT_NEAR(leaf_volume(t), 1.0, 1e-5);
  EXPECT_TRUE(t.is_balanced());
  // The leaf containing the refined corner is deeper than the far corner's.
  auto near_idx = t.find_leaf(Vec3{0.02f, 0.02f, 0.02f});
  auto far_idx = t.find_leaf(Vec3{0.9f, 0.9f, 0.9f});
  ASSERT_GE(near_idx, 0);
  ASSERT_GE(far_idx, 0);
  EXPECT_GT(int(t.leaves()[std::size_t(near_idx)].level),
            int(t.leaves()[std::size_t(far_idx)].level));
}

TEST(LinearOctree, BalanceEnforcedOnPathologicalInput) {
  // Point refinement to depth 7 in one corner: without balancing the corner
  // leaf would neighbor level-1 cells.
  auto size = [](Vec3 p) {
    return (p - Vec3{0.01f, 0.01f, 0.01f}).norm() < 0.02f ? 0.01f : 1.0f;
  };
  auto t = LinearOctree::build(kUnit, size, 0, 7);
  EXPECT_TRUE(t.is_balanced());
  EXPECT_NEAR(leaf_volume(t), 1.0, 1e-5);
}

TEST(LinearOctree, FindLeafLocatesEveryCellCenter) {
  auto size = [](Vec3 p) { return p.x < 0.5f ? 0.1f : 0.3f; };
  auto t = LinearOctree::build(kUnit, size, 1, 5);
  for (std::size_t i = 0; i < t.leaf_count(); ++i) {
    Vec3 c = t.leaves()[i].box(kUnit).center();
    EXPECT_EQ(t.find_leaf(c), std::ptrdiff_t(i));
  }
}

TEST(LinearOctree, FindLeafOutsideDomain) {
  auto t = LinearOctree::uniform(kUnit, 2);
  EXPECT_EQ(t.find_leaf(Vec3{-0.1f, 0.5f, 0.5f}), -1);
  EXPECT_EQ(t.find_leaf(Vec3{0.5f, 0.5f, 1.5f}), -1);
}

// The three tree shapes the renderer sees (uniform, balanced adaptive, and
// an adaptive tree clipped to a rendering level), plus a from_leaves set in
// which some leaves contain others: only there can a leaf contain a key
// while a later leaf still sorts at or before it.
std::vector<LinearOctree> range_test_trees() {
  auto size = [](Vec3 p) { return 0.02f + 0.3f * p.z + 0.1f * p.x; };
  auto adaptive = LinearOctree::build(kUnit, size, 1, 6);
  auto coarse = LinearOctree::uniform(kUnit, 2);
  std::vector<OctKey> nested(coarse.leaves().begin(), coarse.leaves().end());
  for (std::size_t i = 0; i < 64; i += 3) {
    nested.push_back(nested[i].child(int(i % 8)));
    nested.push_back(nested[i].child(0).child(7));
  }
  return {LinearOctree::uniform(kUnit, 3), adaptive, adaptive.clipped(4),
          LinearOctree::from_leaves(kUnit, std::move(nested))};
}

// Keys find_leaf meets: quantized random points, quantized leaf corners,
// and keys at every level (a coarse key covered by finer leaves has no
// containing leaf).
OctKey random_probe_key(const LinearOctree& t, Rng& rng) {
  OctKey q;
  switch (rng.next_below(3)) {
    case 0: {
      Vec3 p{rng.next_float(), rng.next_float(), rng.next_float()};
      EXPECT_TRUE(t.quantize(p, q));
      return q;
    }
    case 1: {
      Box3 b = t.leaves()[rng.next_below(t.leaf_count())].box(kUnit);
      Vec3 p{rng.next_below(2) ? b.hi.x : b.lo.x,
             rng.next_below(2) ? b.hi.y : b.lo.y,
             rng.next_below(2) ? b.hi.z : b.lo.z};
      EXPECT_TRUE(t.quantize(p, q));
      return q;
    }
    default: {
      auto level = std::uint8_t(rng.next_below(kMaxLevel + 1));
      std::uint64_t side = 1ull << level;
      return {std::uint32_t(rng.next_below(side)),
              std::uint32_t(rng.next_below(side)),
              std::uint32_t(rng.next_below(side)), level};
    }
  }
}

TEST(LinearOctree, QuantizeIsTheKeyFindLeafSearches) {
  for (const LinearOctree& t : range_test_trees()) {
    Rng rng(13);
    for (int i = 0; i < 2000; ++i) {
      Vec3 p{rng.next_float(), rng.next_float(), rng.next_float()};
      OctKey q;
      ASSERT_TRUE(t.quantize(p, q));
      EXPECT_EQ(q.level, kMaxLevel);
      EXPECT_EQ(t.find_leaf(q), t.find_leaf(p));
    }
    OctKey q;
    EXPECT_FALSE(t.quantize(Vec3{-0.1f, 0.5f, 0.5f}, q));
    EXPECT_FALSE(t.quantize(Vec3{0.5f, 0.5f, 1.5f}, q));
  }
}

// find_leaf(key, first, last) answers find_leaf(key) when that lies in the
// range and -1 otherwise, for arbitrary ranges and for block ranges.
TEST(LinearOctree, RangedFindLeafAnswersOnlyInsideTheRange) {
  for (const LinearOctree& t : range_test_trees()) {
    SCOPED_TRACE(::testing::Message() << t.leaf_count() << " leaves");
    const std::size_t n = t.leaf_count();
    std::vector<std::pair<std::size_t, std::size_t>> ranges = {{0, n}, {0, 0}};
    for (std::uint32_t b = 0; b < 8; ++b)
      ranges.push_back(t.subtree_range(OctKey{}.child(int(b))));
    Rng rng(29);
    for (int i = 0; i < 20000; ++i) {
      OctKey key = random_probe_key(t, rng);
      std::ptrdiff_t want_global = t.find_leaf(key);
      auto [first, last] = ranges[rng.next_below(ranges.size())];
      if (i % 2) {
        first = rng.next_below(n + 1);
        last = first + rng.next_below(n - first + 1);
      }
      bool inside = want_global >= std::ptrdiff_t(first) &&
                    want_global < std::ptrdiff_t(last);
      ASSERT_EQ(t.find_leaf(key, first, last), inside ? want_global : -1)
          << "key (" << key.x << "," << key.y << "," << key.z << ")@"
          << int(key.level) << " range [" << first << "," << last << ")";
    }
  }
}

// leaf_holds(i, q) is true exactly when find_leaf(q) == i, including at the
// last leaf, where there is no next leaf to compare with.
TEST(LinearOctree, LeafHoldsIsFindLeafEquality) {
  for (const LinearOctree& t : range_test_trees()) {
    const std::size_t n = t.leaf_count();
    Rng rng(31);
    for (int i = 0; i < 20000; ++i) {
      OctKey key = random_probe_key(t, rng);
      std::ptrdiff_t found = t.find_leaf(key);
      std::size_t near = found >= 0 ? std::size_t(found) : rng.next_below(n);
      for (std::size_t cand : {near, near + 1, near - 1, std::size_t(0), n - 1,
                               std::size_t(rng.next_below(n))}) {
        if (cand >= n) continue;
        ASSERT_EQ(t.leaf_holds(cand, key), found == std::ptrdiff_t(cand))
            << "leaf " << cand << " key (" << key.x << "," << key.y << ","
            << key.z << ")@" << int(key.level);
      }
    }
  }
}

TEST(LinearOctree, ClippedCoarsensDeepLeaves) {
  auto size = [](Vec3) { return 0.06f; };  // forces level >= 5 everywhere
  auto t = LinearOctree::build(kUnit, size, 2, 5);
  auto c = t.clipped(3);
  EXPECT_EQ(c.max_leaf_level(), 3);
  EXPECT_EQ(c.leaf_count(), std::size_t(1) << 9);  // uniform level 3
  EXPECT_NEAR(leaf_volume(c), 1.0, 1e-6);
}

TEST(LinearOctree, ClippedKeepsShallowLeaves) {
  auto size = [](Vec3 p) { return p.x < 0.5f ? 0.05f : 0.6f; };
  auto t = LinearOctree::build(kUnit, size, 1, 5);
  int shallow_before = 0;
  for (const auto& k : t.leaves())
    if (int(k.level) <= 2) ++shallow_before;
  auto c = t.clipped(4);
  int shallow_after = 0;
  for (const auto& k : c.leaves())
    if (int(k.level) <= 2) ++shallow_after;
  EXPECT_EQ(shallow_before, shallow_after);
  EXPECT_NEAR(leaf_volume(c), 1.0, 1e-5);
}

TEST(LinearOctree, SubtreeRangeCoversExactlyTheDescendants) {
  auto t = LinearOctree::uniform(kUnit, 3);
  OctKey block{1, 0, 1, 1};  // one octant at level 1
  auto [lo, hi] = t.subtree_range(block);
  EXPECT_EQ(hi - lo, 64u);  // 4^3 level-3 leaves per level-1 octant
  for (std::size_t i = lo; i < hi; ++i) {
    EXPECT_TRUE(block.is_ancestor_of(t.leaves()[i]));
  }
  // Leaves outside the range are not descendants.
  if (lo > 0) EXPECT_FALSE(block.is_ancestor_of(t.leaves()[lo - 1]));
  if (hi < t.leaf_count()) EXPECT_FALSE(block.is_ancestor_of(t.leaves()[hi]));
}

TEST(LinearOctree, SubtreeRangeOfBlockInsideShallowLeaf) {
  auto t = LinearOctree::uniform(kUnit, 1);  // 8 leaves at level 1
  OctKey deep_block{2, 2, 2, 2};             // level-2 octant inside leaf (1,1,1)
  auto [lo, hi] = t.subtree_range(deep_block);
  EXPECT_EQ(hi - lo, 1u);
  EXPECT_TRUE(t.leaves()[lo].is_ancestor_of(deep_block));
}

TEST(LinearOctree, FromLeavesRoundTrip) {
  auto size = [](Vec3 p) { return p.z < 0.4f ? 0.08f : 0.4f; };
  auto t = LinearOctree::build(kUnit, size, 1, 5);
  std::vector<OctKey> keys(t.leaves().begin(), t.leaves().end());
  auto u = LinearOctree::from_leaves(kUnit, std::move(keys));
  ASSERT_EQ(u.leaf_count(), t.leaf_count());
  for (std::size_t i = 0; i < t.leaf_count(); ++i) {
    EXPECT_EQ(u.leaves()[i], t.leaves()[i]);
  }
}

TEST(LinearOctree, LeavesAreSortedAndDisjoint) {
  auto size = [](Vec3 p) { return 0.05f + 0.4f * p.y; };
  auto t = LinearOctree::build(kUnit, size, 1, 6);
  for (std::size_t i = 1; i < t.leaf_count(); ++i) {
    EXPECT_LT(t.leaves()[i - 1], t.leaves()[i]);
    EXPECT_FALSE(t.leaves()[i - 1].is_ancestor_of(t.leaves()[i]));
  }
}

// Property sweep: random size fields produce valid balanced octrees.
class OctreeProperty : public ::testing::TestWithParam<int> {};

TEST_P(OctreeProperty, RandomFieldsYieldValidTrees) {
  Rng rng(std::uint64_t(GetParam()) * 77 + 1);
  Vec3 hot{rng.next_float(), rng.next_float(), rng.next_float()};
  float fine = 0.03f + 0.05f * rng.next_float();
  auto size = [hot, fine](Vec3 p) {
    float d = (p - hot).norm();
    return fine + 0.5f * d;
  };
  auto t = LinearOctree::build(kUnit, size, 1, 6);
  EXPECT_TRUE(t.is_balanced());
  EXPECT_NEAR(leaf_volume(t), 1.0, 1e-5);
  // Every leaf found at its own center.
  Rng probe(99);
  for (int i = 0; i < 200; ++i) {
    Vec3 p{probe.next_float(), probe.next_float(), probe.next_float()};
    auto idx = t.find_leaf(p);
    ASSERT_GE(idx, 0);
    EXPECT_TRUE(t.leaves()[std::size_t(idx)].box(kUnit).contains(p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctreeProperty, ::testing::Range(0, 6));

}  // namespace
}  // namespace qv::mesh
