#include "render/raycast.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "io/block_index.hpp"
#include "quake/synthetic.hpp"
#include "util/rng.hpp"

namespace qv::render {
namespace {

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};

struct Scene {
  mesh::HexMesh mesh;
  std::vector<octree::Block> blocks;
  io::BlockNodeIndex index;
  std::vector<RenderBlock> rblocks;

  Scene(int level, int block_level)
      : mesh(mesh::LinearOctree::uniform(kUnit, level)),
        blocks(octree::decompose(mesh.octree(), block_level)),
        index(mesh, blocks),
        rblocks(build_render_blocks(mesh, blocks, index)) {
    octree::estimate_workloads(mesh.octree(), blocks,
                               octree::WorkloadModel::kCellCount);
  }

  void fill(const std::function<float(Vec3)>& f) {
    auto positions = mesh.node_positions();
    std::vector<float> values(mesh.node_count());
    for (std::size_t n = 0; n < values.size(); ++n)
      values[n] = f(positions[n]);
    for (auto& rb : rblocks) rb.gather_values(values);
  }
};

TEST(RenderBlock, SampleMatchesMeshInterpolation) {
  Scene scene(3, 1);
  scene.fill([](Vec3 p) { return p.x * p.y + 0.3f * p.z; });
  Rng rng(4);
  int inside = 0;
  for (int i = 0; i < 500; ++i) {
    Vec3 p{rng.next_float(), rng.next_float(), rng.next_float()};
    for (std::size_t b = 0; b < scene.rblocks.size(); ++b) {
      mesh::HexMesh::CellSample cs;
      if (scene.rblocks[b].locate(p, cs)) {
        float v = scene.rblocks[b].interpolate(cs);
        ++inside;
        // Trilinear on node samples of a bilinear-in-xy field is exact at
        // the sample point only for multilinear fields; x*y is bilinear, so
        // exact.
        EXPECT_NEAR(v, p.x * p.y + 0.3f * p.z, 1e-4f);
      }
    }
  }
  EXPECT_GT(inside, 400);  // nearly every point is in exactly one block
}

TEST(RenderBlock, SampleRejectsOtherBlocksRegion) {
  Scene scene(2, 1);
  scene.fill([](Vec3) { return 1.0f; });
  // A point in block 0's octant must not be claimed by a different block.
  Vec3 p = scene.blocks[0].bounds.center();
  int claims = 0;
  for (const auto& rb : scene.rblocks) {
    mesh::HexMesh::CellSample cs;
    if (rb.locate(p, cs)) ++claims;
  }
  EXPECT_EQ(claims, 1);
}

TEST(RenderBlock, GradientOfLinearField) {
  Scene scene(3, 0);  // single block
  scene.fill([](Vec3 p) { return 4.0f * p.x - 2.0f * p.y + p.z; });
  Vec3 g;
  ASSERT_TRUE(scene.rblocks[0].sample_gradient({0.5f, 0.5f, 0.5f}, 0.05f, g));
  EXPECT_NEAR(g.x, 4.0f, 0.05f);
  EXPECT_NEAR(g.y, -2.0f, 0.05f);
  EXPECT_NEAR(g.z, 1.0f, 0.05f);
}

// Analytic check: a homogeneous volume with constant transfer-function
// opacity op over a path of length L at reference length R accumulates
// alpha = 1 - (1-op)^(L/R) regardless of step size (the opacity-correction
// identity). Verify the rendered alpha against the closed form.
TEST(Raycaster, HomogeneousVolumeMatchesClosedFormAlpha) {
  Scene scene(2, 0);
  scene.fill([](Vec3) { return 1.0f; });  // constant scalar 1
  const TransferFunction::ControlPoint pts[] = {
      {0.0f, {1, 1, 1}, 0.3f},
      {1.0f, {1, 1, 1}, 0.3f},
  };
  TransferFunction tf(pts);

  // Orthogonal-ish view straight down the z axis through the cube center.
  Camera cam({0.5f, 0.5f, 5.0f}, {0.5f, 0.5f, 0.0f}, {0, 1, 0}, 10.0f, 64, 64);
  RenderOptions opt;
  opt.step_scale = 0.25f;
  opt.early_exit_alpha = 1.1f;  // disable early exit for the math check
  opt.ref_length = 0.1f;        // R
  Raycaster rc(tf, opt, 1.0f);
  PartialImage out = rc.render_block(cam, scene.rblocks[0], 0);
  ASSERT_FALSE(out.rect.empty());
  // Center pixel: path length ~1 through the unit cube (vertical ray).
  float alpha = out.at_screen(32, 32).a;
  float expect = 1.0f - std::pow(1.0f - 0.3f, 1.0f / 0.1f);
  EXPECT_NEAR(alpha, expect, 0.03f);
}

TEST(Raycaster, StepSizeInvarianceViaOpacityCorrection) {
  Scene scene(2, 0);
  scene.fill([](Vec3) { return 0.8f; });
  auto tf = TransferFunction::grayscale();
  Camera cam({0.5f, 0.5f, 4.0f}, {0.5f, 0.5f, 0.0f}, {0, 1, 0}, 12.0f, 32, 32);
  float alphas[2];
  int i = 0;
  for (float step : {0.5f, 0.125f}) {
    RenderOptions opt;
    opt.step_scale = step;
    opt.early_exit_alpha = 1.1f;
    Raycaster rc(tf, opt, 1.0f);
    PartialImage out = rc.render_block(cam, scene.rblocks[0], 0);
    alphas[i++] = out.at_screen(16, 16).a;
  }
  EXPECT_NEAR(alphas[0], alphas[1], 0.05f);
}

TEST(Raycaster, EmptyTransferFunctionYieldsTransparentImage) {
  Scene scene(2, 0);
  scene.fill([](Vec3) { return 0.0f; });  // maps to zero opacity
  auto tf = TransferFunction::seismic();
  Camera cam = Camera::overview(kUnit, 48, 48);

  // Without empty-space skipping every in-volume sample is interpolated
  // and found transparent.
  RenderOptions noskip;
  noskip.empty_skipping = false;
  Raycaster rc_ref(tf, noskip, 1.0f);
  RenderStats ref_stats;
  PartialImage ref = rc_ref.render_block(cam, scene.rblocks[0], 0, &ref_stats);
  EXPECT_GT(ref_stats.samples, 0u);
  EXPECT_EQ(ref_stats.shaded_samples, 0u);
  EXPECT_EQ(ref_stats.skipped_samples, 0u);
  for (const auto& px : ref.pixels.pixels()) EXPECT_TRUE(px.transparent());

  // With skipping (the default) the all-zero block is provably empty:
  // samples are jumped over, never interpolated — and the image is still
  // identical (transparent).
  Raycaster rc(tf, {}, 1.0f);
  RenderStats stats;
  PartialImage out = rc.render_block(cam, scene.rblocks[0], 0, &stats);
  EXPECT_EQ(stats.samples, 0u);
  EXPECT_GT(stats.skipped_samples, 0u);
  EXPECT_GT(stats.macro_skips, 0u);
  EXPECT_EQ(stats.shaded_samples, 0u);
  for (const auto& px : out.pixels.pixels()) EXPECT_TRUE(px.transparent());
}

TEST(Raycaster, MissingRaysDontSample) {
  Scene scene(1, 0);
  scene.fill([](Vec3) { return 1.0f; });
  auto tf = TransferFunction::grayscale();
  // Camera looking away from the cube.
  Camera cam({3, 3, 3}, {6, 6, 6}, {0, 0, 1}, 45.0f, 32, 32);
  Raycaster rc(tf, {}, 1.0f);
  PartialImage out = rc.render_block(cam, scene.rblocks[0], 0);
  EXPECT_TRUE(out.rect.empty());
}

TEST(RenderFrame, BlockDecompositionInvariance) {
  // The same scene rendered with 1 block vs 64 blocks must produce (nearly)
  // the same image: the global step phase plus exact visibility ordering
  // make the block structure invisible.
  quake::SyntheticQuake q;
  auto tf = TransferFunction::seismic();
  RenderOptions opt;
  opt.value_hi = 3.0f;
  Camera cam = Camera::overview(kUnit, 96, 96);

  img::Image images[2];
  int which = 0;
  for (int block_level : {0, 2}) {
    Scene scene(3, block_level);
    scene.fill([&](Vec3 p) { return q.velocity_at(p, 1.2f).norm(); });
    images[which++] = render_frame(cam, tf, opt, scene.rblocks, scene.blocks,
                                   kUnit, nullptr);
  }
  EXPECT_EQ(images[0].width(), 96);
  double err = img::rmse(images[0], images[1]);
  EXPECT_LT(err, 0.01) << "block decomposition changed the image";
}

TEST(RenderFrame, LightingChangesButDoesNotBreakImage) {
  quake::SyntheticQuake q;
  Scene scene(3, 1);
  scene.fill([&](Vec3 p) { return q.velocity_at(p, 1.0f).norm(); });
  auto tf = TransferFunction::seismic();
  Camera cam = Camera::overview(kUnit, 64, 64);
  RenderOptions flat;
  flat.value_hi = 3.0f;
  RenderOptions lit = flat;
  lit.lighting = true;
  auto a = render_frame(cam, tf, flat, scene.rblocks, scene.blocks, kUnit);
  auto b = render_frame(cam, tf, lit, scene.rblocks, scene.blocks, kUnit);
  EXPECT_GT(img::rmse(a, b), 1e-4);  // lighting has a visible effect
  for (const auto& px : b.pixels()) {
    ASSERT_TRUE(std::isfinite(px.r) && std::isfinite(px.a));
    ASSERT_GE(px.a, 0.0f);
    ASSERT_LE(px.a, 1.0f + 1e-4f);
  }
}

TEST(RenderStats, CountsAccumulate) {
  Scene scene(2, 0);
  scene.fill([](Vec3) { return 0.9f; });
  auto tf = TransferFunction::grayscale();
  Camera cam = Camera::overview(kUnit, 32, 32);
  Raycaster rc(tf, {}, 1.0f);
  RenderStats stats;
  rc.render_block(cam, scene.rblocks[0], 0, &stats);
  EXPECT_GT(stats.rays, 0u);
  EXPECT_GT(stats.samples, 0u);
  EXPECT_GE(stats.samples, stats.shaded_samples);
}

}  // namespace
}  // namespace qv::render
