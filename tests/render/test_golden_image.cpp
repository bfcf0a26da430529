// Golden-image regression: small canonical frames (unlit and lit on a
// uniform mesh, lit on an adaptive one) are pinned by the SHA-256 of their
// 8-bit tone-mapped bytes. Any change to the transfer function, sampling,
// compositing, or shading math that shifts even one output byte fails
// loudly here instead of silently drifting the figures. If a change is
// *intended* to alter output, re-baseline by
// copying the printed actual hashes into kGoldenUnlit / kGoldenLit /
// kGoldenAdaptiveLit — deliberately, in the same commit as the change.
#include <gtest/gtest.h>

#include <set>

#include "io/block_index.hpp"
#include "quake/synthetic.hpp"
#include "render/raycast.hpp"
#include "util/sha256.hpp"
#include "util/thread_pool.hpp"

namespace qv::render {
namespace {

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};

constexpr const char* kGoldenUnlit =
    "c154838b2a065942058b73248fdbf856b0e6c803c33a7d2db874c335d0e8eda0";
constexpr const char* kGoldenLit =
    "38f5d51d65d01bf0ebb26a6933d7743025ecc25649da664a169403be3de9c846";
constexpr const char* kGoldenAdaptiveLit =
    "3a05d71d5aae166d9b763cafd4325ff1015f60f8d823f01a0ee07dd9c3a84663";

// The hash of the frame of `rblocks`, the blocks of `mesh`.
std::string blocks_hash(const mesh::HexMesh& mesh,
                        std::span<const octree::Block> blocks,
                        std::vector<RenderBlock>& rblocks, bool lighting,
                        int threads) {
  quake::SyntheticQuake q;
  auto positions = mesh.node_positions();
  std::vector<float> values(mesh.node_count());
  for (std::size_t n = 0; n < values.size(); ++n)
    values[n] = q.velocity_at(positions[n], 1.25f).norm();
  for (auto& rb : rblocks) rb.gather_values(values);

  auto tf = TransferFunction::seismic();
  RenderOptions opt;
  opt.value_hi = 3.0f;
  opt.lighting = lighting;
  Camera cam = Camera::overview(kUnit, 64, 48);
  util::ThreadPool pool(threads);
  img::Image frame = render_frame(cam, tf, opt, rblocks, blocks, kUnit,
                                  nullptr, &pool);
  img::Image8 bytes = img::to_8bit(frame);
  return util::Sha256::hex(bytes.data(), bytes.byte_count());
}

std::string frame_hash(mesh::LinearOctree tree, bool lighting, int threads) {
  mesh::HexMesh mesh(std::move(tree));
  auto blocks = octree::decompose(mesh.octree(), 1);
  io::BlockNodeIndex index(mesh, blocks);
  std::vector<RenderBlock> rblocks = build_render_blocks(mesh, blocks, index);
  return blocks_hash(mesh, blocks, rblocks, lighting, threads);
}

std::string canonical_frame_hash(bool lighting, int threads = 1) {
  return frame_hash(mesh::LinearOctree::uniform(kUnit, 3), lighting, threads);
}

// Balanced and refined toward one interior point, so it has several leaf
// levels, hanging faces and single-leaf macrocells, which the uniform
// canonical mesh lacks.
mesh::LinearOctree adaptive_tree() {
  return mesh::LinearOctree::build(
      kUnit,
      [](Vec3 p) { return 0.04f + 0.3f * (p - Vec3{0.3f, 0.6f, 0.4f}).norm(); },
      1, 5);
}

TEST(GoldenImage, UnlitCanonicalFrame) {
  std::string got = canonical_frame_hash(false);
  EXPECT_EQ(got, kGoldenUnlit)
      << "canonical unlit frame changed; if intended, set kGoldenUnlit to "
      << got;
}

TEST(GoldenImage, LitCanonicalFrame) {
  std::string got = canonical_frame_hash(true);
  EXPECT_EQ(got, kGoldenLit)
      << "canonical lit frame changed; if intended, set kGoldenLit to "
      << got;
}

TEST(GoldenImage, AdaptiveLitFrame) {
  mesh::LinearOctree tree = adaptive_tree();
  ASSERT_TRUE(tree.is_balanced());
  std::set<int> levels;
  for (const mesh::OctKey& k : tree.leaves()) levels.insert(int(k.level));
  ASSERT_GE(levels.size(), 3u);
  std::string got = frame_hash(std::move(tree), true, 1);
  EXPECT_EQ(got, kGoldenAdaptiveLit)
      << "adaptive lit frame changed; if intended, set kGoldenAdaptiveLit to "
      << got;
  EXPECT_EQ(frame_hash(adaptive_tree(), true, 4), got);
}

// The hash must not depend on the execution schedule: threaded rendering of
// the same canonical scene produces the same golden bytes.
TEST(GoldenImage, HashIsScheduleInvariant) {
  EXPECT_EQ(canonical_frame_hash(false, 3), kGoldenUnlit);
  EXPECT_EQ(canonical_frame_hash(true, 7), kGoldenLit);
}

// One NodeRemap serves every build on a mesh: a node list missing one node
// still throws, each build clears the table however it ends (a second
// missing node would otherwise find the first attempt's stale entry and
// pass), and blocks built afterwards with the same table render the
// canonical frame bit-exactly.
TEST(RenderBlock, MissingNodeThrowsAndLeavesTheRemapTableClean) {
  mesh::HexMesh mesh(mesh::LinearOctree::uniform(kUnit, 3));
  auto blocks = octree::decompose(mesh.octree(), 1);
  io::BlockNodeIndex index(mesh, blocks);
  NodeRemap remap(mesh.node_count());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    SCOPED_TRACE(::testing::Message() << "block " << b);
    const auto nodes = index.block_nodes(b);
    const std::vector<mesh::NodeId> full(nodes.begin(), nodes.end());
    (void)RenderBlock(mesh, blocks[b], full, remap);
    for (std::size_t drop : {std::size_t(0), full.size() / 2, full.size() - 1}) {
      std::vector<mesh::NodeId> partial = full;
      partial.erase(partial.begin() + std::ptrdiff_t(drop));
      EXPECT_THROW(RenderBlock(mesh, blocks[b], partial, remap),
                   std::runtime_error)
          << "without node " << full[drop];
    }
    std::vector<mesh::NodeId> outside = full;
    outside.push_back(mesh::NodeId(mesh.node_count()));
    EXPECT_THROW(RenderBlock(mesh, blocks[b], outside, remap),
                 std::runtime_error);
  }
  std::vector<RenderBlock> after;
  for (std::size_t b = 0; b < blocks.size(); ++b)
    after.emplace_back(mesh, blocks[b], index.block_nodes(b), remap);
  EXPECT_EQ(blocks_hash(mesh, blocks, after, false, 1), kGoldenUnlit);
}

}  // namespace
}  // namespace qv::render
