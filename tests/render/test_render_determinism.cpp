// The parallel-rendering contract: for ANY thread count, tile size, and
// stealing schedule, the threaded frame is byte-for-byte identical to the
// serial reference, and empty-space skipping never changes a pixel. ~20
// seeded random (camera, transfer function, block set, thread count)
// combinations; the seed of any failing combination is printed so it can be
// replayed. QV_FUZZ_SEED varies the whole family (CI runs two seeds).
//
// The exact-location wall: the renderer's hinted cell location must answer
// exactly what HexMesh::locate plus the block check answers, for any hint.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <vector>

#include "io/block_index.hpp"
#include "quake/synthetic.hpp"
#include "render/raycast.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qv::render {
namespace {

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};

std::uint64_t base_seed() {
  if (const char* s = std::getenv("QV_FUZZ_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 1;
}

struct Scene {
  mesh::HexMesh mesh;
  std::vector<octree::Block> blocks;
  io::BlockNodeIndex index;
  std::vector<RenderBlock> rblocks;

  Scene(int level, int block_level)
      : Scene(mesh::LinearOctree::uniform(kUnit, level), block_level) {}

  Scene(mesh::LinearOctree tree, int block_level)
      : mesh(std::move(tree)),
        blocks(octree::decompose(mesh.octree(), block_level)),
        index(mesh, blocks),
        rblocks(build_render_blocks(mesh, blocks, index)) {}

  void fill(const std::function<float(Vec3)>& f) {
    auto positions = mesh.node_positions();
    std::vector<float> values(mesh.node_count());
    for (std::size_t n = 0; n < values.size(); ++n)
      values[n] = f(positions[n]);
    for (auto& rb : rblocks) rb.gather_values(values);
  }
};

// A randomized scene: mesh resolution, block decomposition, camera orbit,
// transfer function, value field (with deliberate all-zero quiet regions so
// macrocell skipping fires), lighting, and image size all drawn from `rng`.
struct RandomCase {
  int level;
  int block_level;
  Camera camera;
  TransferFunction tf;
  RenderOptions opt;
  int tile;

  static RandomCase make(Rng& rng) {
    int level = 2 + int(rng.next_below(2));              // 2..3
    int block_level = int(rng.next_below(std::uint64_t(level) + 1));
    int width = 40 + int(rng.next_below(4)) * 8;         // 40..64
    int height = 32 + int(rng.next_below(3)) * 8;        // 32..48

    // Camera on a sphere around the cube; elevation capped away from the
    // up axis so the view matrix stays well-conditioned.
    float radius = 1.6f + rng.next_float() * 1.4f;
    float azim = rng.next_float() * 6.2831853f;
    float elev = (rng.next_float() - 0.5f) * 2.0f;  // +-1 rad
    Vec3 center = kUnit.center();
    Vec3 eye = center + Vec3{radius * std::cos(elev) * std::cos(azim),
                             radius * std::sin(elev),
                             radius * std::cos(elev) * std::sin(azim)};
    Camera cam(eye, center, {0, 1, 0}, 30.0f + rng.next_float() * 30.0f,
               width, height);

    // Random piecewise-linear transfer function with a transparent toe so
    // part of the value range is provably empty.
    std::vector<TransferFunction::ControlPoint> pts;
    float toe = 0.1f + rng.next_float() * 0.3f;
    pts.push_back({0.0f, {0.1f, 0.1f, 0.4f}, 0.0f});
    pts.push_back({toe, {0.2f, 0.5f, 0.6f}, 0.0f});
    int extra = 2 + int(rng.next_below(3));
    for (int i = 0; i < extra; ++i) {
      pts.push_back({toe + (1.0f - toe) * rng.next_float(),
                     {rng.next_float(), rng.next_float(), rng.next_float()},
                     rng.next_float() * 0.8f});
    }
    pts.push_back({1.0f, {0.9f, 0.2f, 0.1f}, 0.3f + rng.next_float() * 0.6f});
    TransferFunction tf(pts);

    RenderOptions opt;
    opt.step_scale = 0.35f + rng.next_float() * 0.4f;
    opt.lighting = rng.next_below(2) == 0;
    opt.value_hi = 1.5f + rng.next_float() * 2.0f;
    int tile = 5 + int(rng.next_below(40));  // deliberately odd sizes too

    return RandomCase{level, block_level, cam, tf, opt, tile};
  }
};

void fill_random_field(Scene& scene, Rng& rng) {
  quake::SyntheticQuake q;
  float tsnap = 0.5f + rng.next_float() * 1.5f;
  float quiet_z = rng.next_float();  // below this z the ground is silent
  scene.fill([&](Vec3 p) {
    if (p.z < quiet_z) return 0.0f;
    return q.velocity_at(p, tsnap).norm();
  });
}

bool images_identical(const img::Image& a, const img::Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  auto pa = a.pixels();
  auto pb = b.pixels();
  return std::memcmp(pa.data(), pb.data(), pa.size_bytes()) == 0;
}

void expect_stats_eq(const RenderStats& a, const RenderStats& b) {
  EXPECT_EQ(a.rays, b.rays);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.shaded_samples, b.shaded_samples);
  EXPECT_EQ(a.skipped_samples, b.skipped_samples);
  EXPECT_EQ(a.macro_skips, b.macro_skips);
}

// 5 random scenes x thread counts {1,2,4,7} = 20 seeded combinations.
TEST(RenderDeterminism, ThreadedFrameMatchesSerialByteForByte) {
  const std::uint64_t base = base_seed();
  for (int combo = 0; combo < 5; ++combo) {
    std::uint64_t state = base * 1000003u + std::uint64_t(combo);
    std::uint64_t seed = splitmix64(state);
    SCOPED_TRACE(::testing::Message()
                 << "combo " << combo << " seed " << seed
                 << " (QV_FUZZ_SEED=" << base << ")");
    Rng rng(seed);
    RandomCase rc = RandomCase::make(rng);
    Scene scene(rc.level, rc.block_level);
    fill_random_field(scene, rng);

    RenderStats serial_stats;
    img::Image serial =
        render_frame(rc.camera, rc.tf, rc.opt, scene.rblocks, scene.blocks,
                     kUnit, &serial_stats);

    for (int threads : {1, 2, 4, 7}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads);
      util::ThreadPool pool(threads);
      RenderStats stats;
      img::Image threaded =
          render_frame(rc.camera, rc.tf, rc.opt, scene.rblocks, scene.blocks,
                       kUnit, &stats, &pool, rc.tile);
      EXPECT_TRUE(images_identical(serial, threaded));
      expect_stats_eq(serial_stats, stats);
    }
  }
}

// Empty-space skipping must be invisible in the image (it only jumps
// samples that are provably transparent) while actually firing.
TEST(RenderDeterminism, EmptySpaceSkippingIsBitExact) {
  const std::uint64_t base = base_seed();
  std::uint64_t total_skipped = 0;
  for (int combo = 0; combo < 6; ++combo) {
    std::uint64_t state = base * 7777777u + std::uint64_t(combo);
    std::uint64_t seed = splitmix64(state);
    SCOPED_TRACE(::testing::Message()
                 << "combo " << combo << " seed " << seed
                 << " (QV_FUZZ_SEED=" << base << ")");
    Rng rng(seed);
    RandomCase rc = RandomCase::make(rng);
    Scene scene(rc.level, rc.block_level);
    fill_random_field(scene, rng);

    RenderOptions skip_on = rc.opt;
    skip_on.empty_skipping = true;
    RenderOptions skip_off = rc.opt;
    skip_off.empty_skipping = false;

    RenderStats on_stats, off_stats;
    img::Image with_skip = render_frame(rc.camera, rc.tf, skip_on,
                                        scene.rblocks, scene.blocks, kUnit,
                                        &on_stats);
    img::Image without = render_frame(rc.camera, rc.tf, skip_off,
                                      scene.rblocks, scene.blocks, kUnit,
                                      &off_stats);
    EXPECT_TRUE(images_identical(with_skip, without));
    EXPECT_EQ(on_stats.rays, off_stats.rays);
    EXPECT_EQ(on_stats.shaded_samples, off_stats.shaded_samples);
    // Skipping trades interpolated samples for skipped ones, never more.
    EXPECT_LE(on_stats.samples, off_stats.samples);
    EXPECT_EQ(off_stats.skipped_samples, 0u);
    total_skipped += on_stats.skipped_samples;
  }
  // At least one of the quiet-region scenes must actually skip something,
  // or the optimization (and this test) is vacuous.
  EXPECT_GT(total_skipped, 0u);
}

// Tile-size invariance: the decomposition is a scheduling detail.
TEST(RenderDeterminism, TileSizeCannotChangeTheImage) {
  const std::uint64_t base = base_seed();
  std::uint64_t state = base * 31337u;
  std::uint64_t seed = splitmix64(state);
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  Rng rng(seed);
  RandomCase rc = RandomCase::make(rng);
  Scene scene(rc.level, rc.block_level);
  fill_random_field(scene, rng);

  img::Image ref = render_frame(rc.camera, rc.tf, rc.opt, scene.rblocks,
                                scene.blocks, kUnit);
  util::ThreadPool pool(3);
  for (int tile : {1, 7, 16, 1000}) {
    SCOPED_TRACE(::testing::Message() << "tile " << tile);
    img::Image t = render_frame(rc.camera, rc.tf, rc.opt, scene.rblocks,
                                scene.blocks, kUnit, nullptr, &pool, tile);
    EXPECT_TRUE(images_identical(ref, t));
  }
}

// The definition of the lit renderer's gradient: every probe located by
// HexMesh::locate (a search of the whole mesh), kept only when the cell is
// in the block, and interpolated from the block's values.
bool reference_gradient(const Scene& scene, const RenderBlock& rb, Vec3 p,
                        float h, Vec3& out) {
  auto value_at = [&](Vec3 x, float& v) {
    mesh::HexMesh::CellSample cs;
    if (!scene.mesh.locate(x, cs)) return false;
    if (cs.cell < rb.block().cell_begin || cs.cell >= rb.block().cell_end)
      return false;
    v = rb.interpolate(cs);
    return true;
  };
  float center;
  if (!value_at(p, center)) return false;
  float g[3];
  for (int a = 0; a < 3; ++a) {
    Vec3 d{a == 0 ? h : 0.0f, a == 1 ? h : 0.0f, a == 2 ? h : 0.0f};
    float fp = center, fm = center;
    bool okp = value_at(p + d, fp);
    bool okm = value_at(p - d, fm);
    float denom = (okp && okm) ? 2.0f * h : h;
    g[a] = (okp || okm) ? (fp - fm) / denom : 0.0f;
  }
  out = {g[0], g[1], g[2]};
  return true;
}

// A point on or near the block: random inside its bounds (or a little
// beyond), or snapped to a face, edge or corner of one of its cells or of
// the block itself.
Vec3 wall_point(const Scene& scene, const RenderBlock& rb, Rng& rng) {
  Box3 box = rb.bounds();
  const std::uint64_t kind = rng.next_below(4);
  if (kind == 1 && rb.block().cell_count() > 0) {
    std::size_t c = rb.block().cell_begin +
                    std::size_t(rng.next_below(rb.block().cell_count()));
    box = scene.mesh.cell_box(c);
  }
  Vec3 e = box.extent();
  Vec3 p{box.lo.x + e.x * rng.next_float(), box.lo.y + e.y * rng.next_float(),
         box.lo.z + e.z * rng.next_float()};
  if (kind == 0) {
    Vec3 margin = e * 0.1f;
    return p + Vec3{margin.x * (2 * rng.next_float() - 1),
                    margin.y * (2 * rng.next_float() - 1),
                    margin.z * (2 * rng.next_float() - 1)};
  }
  // Snap one (face), two (edge) or three (corner) coordinates.
  int snapped = 1 + int(rng.next_below(3));
  int first = int(rng.next_below(3));
  for (int k = 0; k < snapped; ++k) {
    int axis = (first + k) % 3;
    bool hi = rng.next_below(2) != 0;
    if (axis == 0) p.x = hi ? box.hi.x : box.lo.x;
    if (axis == 1) p.y = hi ? box.hi.y : box.lo.y;
    if (axis == 2) p.z = hi ? box.hi.z : box.lo.z;
  }
  return p;
}

bool same_gradient(bool ok_a, Vec3 a, bool ok_b, Vec3 b) {
  return ok_a == ok_b && (!ok_a || std::memcmp(&a, &b, sizeof(Vec3)) == 0);
}

// Seeded uniform and adaptive meshes at block levels 0-2; random and
// snapped points; hints that are the right cell, a face neighbour, a cell
// of another block, and none. The hinted gradient must equal the unhinted
// one and the reference bit for bit, and a locate() whose hint box misses p
// must equal HexMesh::locate plus the block check.
TEST(RenderDeterminism, HintedLocationIsExact) {
  const std::uint64_t base = base_seed();
  std::uint64_t compared = 0;
  for (int combo = 0; combo < 8; ++combo) {
    std::uint64_t state = base * 4099u + std::uint64_t(combo);
    std::uint64_t seed = splitmix64(state);
    SCOPED_TRACE(::testing::Message()
                 << "combo " << combo << " seed " << seed
                 << " (QV_FUZZ_SEED=" << base << ")");
    Rng rng(seed);
    mesh::LinearOctree tree;
    if (combo % 2 == 0) {
      tree = mesh::LinearOctree::uniform(kUnit, 2 + int(rng.next_below(2)));
    } else {
      Vec3 hot{rng.next_float(), rng.next_float(), rng.next_float()};
      float fine = 0.03f + 0.04f * rng.next_float();
      tree = mesh::LinearOctree::build(
          kUnit, [hot, fine](Vec3 p) { return fine + 0.6f * (p - hot).norm(); },
          1, 5);
    }
    Scene scene(std::move(tree), combo / 2 % 3);
    fill_random_field(scene, rng);
    const std::size_t cells = scene.mesh.cell_count();

    for (const RenderBlock& rb : scene.rblocks) {
      const octree::Block& blk = rb.block();
      if (blk.cell_count() == 0) continue;
      for (int i = 0; i < 60; ++i) {
        Vec3 p = wall_point(scene, rb, rng);
        mesh::HexMesh::CellSample at;
        bool located = scene.mesh.locate(p, at);
        std::size_t right = located ? at.cell : blk.cell_begin;
        std::size_t neighbour = right;
        Vec3 step = p;
        float edge = scene.mesh.cell_box(right).extent().x;
        int axis = int(rng.next_below(3));
        float dir = rng.next_below(2) ? 1.0f : -1.0f;
        if (axis == 0) step.x += dir * edge;
        if (axis == 1) step.y += dir * edge;
        if (axis == 2) step.z += dir * edge;
        if (scene.mesh.locate(step, at)) neighbour = at.cell;
        std::size_t other =
            blk.cell_count() < cells
                ? (blk.cell_end + std::size_t(rng.next_below(
                                      cells - blk.cell_count()))) % cells
                : RenderBlock::kNoCell;
        const float hs[] = {rb.finest_cell_edge() * 0.5f, edge,
                            edge * (0.2f + rng.next_float())};
        for (float h : hs) {
          Vec3 want{};
          bool want_ok = reference_gradient(scene, rb, p, h, want);
          Vec3 plain{};
          bool plain_ok = rb.sample_gradient(p, h, plain);
          ASSERT_TRUE(same_gradient(want_ok, want, plain_ok, plain))
              << "unhinted: p (" << p.x << "," << p.y << "," << p.z
              << ") h " << h;
          for (std::size_t hint :
               {right, neighbour, other, RenderBlock::kNoCell}) {
            Vec3 g{};
            bool ok = rb.sample_gradient(p, h, g, hint);
            ASSERT_TRUE(same_gradient(want_ok, want, ok, g))
                << "hint " << hint << ": p (" << p.x << "," << p.y << ","
                << p.z << ") h " << h;
            ++compared;
          }
        }
        // The public locate() takes a hint cell whose box holds p as it is;
        // when the box misses p it must answer like the reference.
        for (std::size_t hint : {right, neighbour, other}) {
          if (hint < cells && scene.mesh.cell_box(hint).contains(p)) continue;
          mesh::HexMesh::CellSample got{}, ref{};
          std::size_t h = hint;
          bool got_ok = rb.locate(p, got, &h);
          bool ref_ok = scene.mesh.locate(p, ref) &&
                        ref.cell >= blk.cell_begin && ref.cell < blk.cell_end;
          ASSERT_EQ(got_ok, ref_ok) << "locate hint " << hint;
          if (!got_ok) continue;
          ASSERT_EQ(got.cell, ref.cell) << "locate hint " << hint;
          ASSERT_EQ(h, ref.cell);
          const float got_uvw[] = {got.u, got.v, got.w};
          const float ref_uvw[] = {ref.u, ref.v, ref.w};
          ASSERT_EQ(std::memcmp(got_uvw, ref_uvw, sizeof(got_uvw)), 0)
              << "locate hint " << hint;
        }
      }
    }
  }
  EXPECT_GT(compared, 10000u);
}

}  // namespace
}  // namespace qv::render
