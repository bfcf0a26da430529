#include "io/block_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

#include "util/rng.hpp"

namespace qv::io {
namespace {

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};

struct Fixture {
  mesh::HexMesh mesh;
  std::vector<octree::Block> blocks;
  BlockNodeIndex index;

  Fixture()
      : mesh(mesh::LinearOctree::build(
            kUnit,
            [](Vec3 p) { return p.x + p.y > 1.0f ? 0.08f : 0.3f; }, 1, 4)),
        blocks(octree::decompose(mesh.octree(), 1)),
        index(mesh, blocks) {}
};

TEST(BlockNodeIndex, ListsAreSortedUniqueAndComplete) {
  Fixture f;
  for (std::size_t b = 0; b < f.blocks.size(); ++b) {
    auto nodes = f.index.block_nodes(b);
    ASSERT_FALSE(nodes.empty());
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      EXPECT_LT(nodes[i - 1], nodes[i]);
    }
    // Every node of every cell in the block appears.
    std::set<mesh::NodeId> s(nodes.begin(), nodes.end());
    for (std::size_t c = f.blocks[b].cell_begin; c < f.blocks[b].cell_end; ++c) {
      for (auto n : f.mesh.cell_nodes(c)) EXPECT_TRUE(s.count(n));
    }
  }
}

TEST(BlockNodeIndex, TotalEntriesMatches) {
  Fixture f;
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < f.blocks.size(); ++b)
    total += f.index.block_nodes(b).size();
  EXPECT_EQ(f.index.total_entries(), total);
}

TEST(MergedNodes, DeduplicatesAcrossBlocks) {
  Fixture f;
  std::vector<std::size_t> all(f.blocks.size());
  for (std::size_t b = 0; b < all.size(); ++b) all[b] = b;
  auto merged = merged_nodes(f.index, all);
  // Sorted unique, covering the whole mesh's used nodes (= all nodes).
  for (std::size_t i = 1; i < merged.size(); ++i)
    EXPECT_LT(merged[i - 1], merged[i]);
  EXPECT_EQ(merged.size(), f.mesh.node_count());
  // Merging a subset is smaller.
  std::vector<std::size_t> one = {0};
  EXPECT_LT(merged_nodes(f.index, one).size(), merged.size());
}

TEST(ForwardMap, SlicesPartitionEveryBlockEntry) {
  // Union over m slices of the forward map must hit every (block, pos)
  // exactly once — the §5.3.2 guarantee that renderer merges need no
  // inter-processor coordination.
  Fixture f;
  const auto node_count = mesh::NodeId(f.mesh.node_count());
  for (int m : {1, 2, 3, 5}) {
    std::map<std::pair<std::uint32_t, std::uint32_t>, int> seen;
    for (int mi = 0; mi < m; ++mi) {
      auto [lo, hi] = slice_bounds(node_count, mi, m);
      auto entries = build_forward_map(f.index, lo, hi);
      for (const auto& e : entries) {
        // slice_pos must be within the slice.
        EXPECT_LT(e.slice_pos, hi - lo);
        seen[{e.block, e.block_pos}]++;
      }
    }
    std::uint64_t expect = f.index.total_entries();
    EXPECT_EQ(seen.size(), expect) << "m=" << m;
    for (const auto& [key, count] : seen) EXPECT_EQ(count, 1);
  }
}

TEST(ForwardMap, EntriesPointAtTheRightNodes) {
  Fixture f;
  auto [lo, hi] = slice_bounds(mesh::NodeId(f.mesh.node_count()), 1, 3);
  auto entries = build_forward_map(f.index, lo, hi);
  for (const auto& e : entries) {
    auto nodes = f.index.block_nodes(e.block);
    EXPECT_EQ(nodes[e.block_pos], lo + e.slice_pos);
  }
}

TEST(ForwardMap, GroupedByBlockThenPosition) {
  Fixture f;
  auto entries =
      build_forward_map(f.index, 0, mesh::NodeId(f.mesh.node_count()));
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i - 1].block == entries[i].block) {
      EXPECT_LT(entries[i - 1].block_pos, entries[i].block_pos);
    } else {
      EXPECT_LT(entries[i - 1].block, entries[i].block);
    }
  }
}

// --- equivalence wall of the linear builds -----------------------------------
// The per-node-stamp block lists, the bitmap merge and the dense-table
// positions must equal the sort+unique and lower_bound answers computed
// here, on uniform, graded (LinearOctree::build) and clipped meshes at block
// levels 0-3, with seeded random block subsets (QV_FUZZ_SEED shifts them).

std::uint64_t base_seed() {
  if (const char* s = std::getenv("QV_FUZZ_SEED"))
    return std::strtoull(s, nullptr, 10);
  return 1;
}

std::vector<mesh::HexMesh> wall_meshes() {
  auto graded = mesh::LinearOctree::build(
      kUnit,
      [](Vec3 p) {
        const float d = (p - Vec3{0.3f, 0.6f, 0.4f}).norm();
        return d < 0.25f ? 0.05f : 0.3f;
      },
      1, 5);
  std::vector<mesh::HexMesh> out;
  out.emplace_back(mesh::LinearOctree::uniform(kUnit, 4));
  out.emplace_back(graded.clipped(4));
  out.emplace_back(std::move(graded));
  return out;
}

std::vector<mesh::NodeId> sorted_unique_nodes(const mesh::HexMesh& mesh,
                                              const octree::Block& b) {
  std::vector<mesh::NodeId> v;
  for (std::size_t c = b.cell_begin; c < b.cell_end; ++c)
    for (mesh::NodeId n : mesh.cell_nodes(c)) v.push_back(n);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// A seeded block subset in random order: empty, every block, or each block
// kept with a drawn probability, sometimes twice.
std::vector<std::size_t> random_subset(Rng& rng, std::size_t blocks) {
  std::vector<std::size_t> ids;
  const std::uint64_t shape = rng.next_below(4);
  if (shape == 0) return ids;
  const double keep = shape == 1 ? 1.0 : rng.next_double();
  for (std::size_t b = 0; b < blocks; ++b) {
    if (rng.next_double() >= keep) continue;
    ids.push_back(b);
    if (shape == 3 && rng.next_below(4) == 0) ids.push_back(b);
  }
  for (std::size_t i = ids.size(); i > 1; --i)
    std::swap(ids[i - 1], ids[rng.next_below(i)]);
  return ids;
}

TEST(BlockNodeIndex, MatchesSortUniqueReference) {
  const auto meshes = wall_meshes();
  for (std::size_t mi = 0; mi < meshes.size(); ++mi) {
    const mesh::HexMesh& mesh = meshes[mi];
    for (int level = 0; level <= 3; ++level) {
      SCOPED_TRACE(::testing::Message() << "mesh " << mi << " level " << level);
      const auto blocks = octree::decompose(mesh.octree(), level);
      const BlockNodeIndex index(mesh, blocks);
      ASSERT_EQ(index.block_count(), blocks.size());
      std::uint64_t total = 0;
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        const auto want = sorted_unique_nodes(mesh, blocks[b]);
        const auto got = index.block_nodes(b);
        ASSERT_EQ(std::vector<mesh::NodeId>(got.begin(), got.end()), want)
            << "block " << b;
        total += want.size();
      }
      EXPECT_EQ(index.total_entries(), total);
    }
  }
}

TEST(MergedNodes, MatchSortUniqueAndLowerBoundReference) {
  const std::uint64_t base = base_seed();
  const auto meshes = wall_meshes();
  for (std::size_t mi = 0; mi < meshes.size(); ++mi) {
    const mesh::HexMesh& mesh = meshes[mi];
    for (int level = 0; level <= 3; ++level) {
      const auto blocks = octree::decompose(mesh.octree(), level);
      const BlockNodeIndex index(mesh, blocks);
      for (int round = 0; round < 6; ++round) {
        std::uint64_t state = base * 0x9e3779b97f4a7c15ULL +
                              std::uint64_t(mi * 100 + std::size_t(level) * 10) +
                              std::uint64_t(round);
        const std::uint64_t seed = splitmix64(state);
        SCOPED_TRACE(::testing::Message()
                     << "mesh " << mi << " level " << level << " round "
                     << round << " seed " << seed << " (QV_FUZZ_SEED=" << base
                     << ")");
        Rng rng(seed);
        const auto ids = random_subset(rng, blocks.size());

        std::vector<mesh::NodeId> want;
        for (std::size_t b : ids) {
          auto nodes = index.block_nodes(b);
          want.insert(want.end(), nodes.begin(), nodes.end());
        }
        std::sort(want.begin(), want.end());
        want.erase(std::unique(want.begin(), want.end()), want.end());
        const auto merged = merged_nodes(index, ids);
        ASSERT_EQ(merged, want);

        // The 2DIP-collective message positions.
        const auto positions = merged_positions(index, ids, merged);
        ASSERT_EQ(positions.size(), ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) {
          std::vector<std::uint32_t> pos;
          for (mesh::NodeId n : index.block_nodes(ids[i]))
            pos.push_back(std::uint32_t(
                std::lower_bound(merged.begin(), merged.end(), n) -
                merged.begin()));
          ASSERT_EQ(positions[i], pos) << "block " << ids[i];
        }
      }
    }
  }
}

TEST(MergedNodes, PositionsRejectANodeMissingFromTheMergedList) {
  Fixture f;
  const std::vector<std::size_t> first = {0}, last = {f.blocks.size() - 1};
  const auto merged = merged_nodes(f.index, first);
  EXPECT_THROW(merged_positions(f.index, last, merged), std::invalid_argument);
  EXPECT_THROW(merged_positions(f.index, last, {}), std::invalid_argument);
}

TEST(SliceBounds, ExactPartition) {
  for (std::uint64_t n : {0ull, 1ull, 7ull, 100ull, 101ull}) {
    for (int m : {1, 2, 3, 7}) {
      mesh::NodeId prev_hi = 0;
      for (int i = 0; i < m; ++i) {
        auto [lo, hi] = slice_bounds(n, i, m);
        EXPECT_EQ(lo, prev_hi);
        EXPECT_LE(lo, hi);
        prev_hi = hi;
      }
      EXPECT_EQ(prev_hi, n);
    }
  }
}

}  // namespace
}  // namespace qv::io
