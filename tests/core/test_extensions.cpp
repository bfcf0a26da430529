// Tests of the §7 extension features: per-step camera orbits (spatial
// exploration), variable-domain selection, fine-grain dynamic load
// redistribution, and simulation-time (in-situ) visualization.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>

#include "core/insitu.hpp"
#include "core/pipeline.hpp"
#include "core/serial.hpp"
#include "io/block_index.hpp"
#include "render/raycast.hpp"
#include "quake/synthetic.hpp"
#include "util/sha256.hpp"

namespace qv::core {
namespace {

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};
constexpr int kSteps = 4;
constexpr int kW = 64;
constexpr int kH = 48;

class ExtensionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // PID-unique: ctest runs each case as its own process, concurrently.
    dir_ = (std::filesystem::temp_directory_path() /
            ("qv_ext_ds." + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    auto size = [](Vec3 p) { return p.z > 0.5f ? 0.12f : 0.3f; };
    mesh::HexMesh fine(mesh::LinearOctree::build(kUnit, size, 1, 3));
    io::DatasetWriter writer(dir_, fine, 2, 3, 0.25f);
    quake::SyntheticQuake q;
    for (int s = 0; s < kSteps; ++s) {
      writer.write_step(q.sample_nodes(fine, 0.6f + 0.4f * float(s)));
    }
    writer.finish();
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }

  static PipelineConfig base_config() {
    PipelineConfig cfg;
    cfg.dataset_dir = dir_;
    cfg.width = kW;
    cfg.height = kH;
    cfg.render.value_hi = 3.0f;
    cfg.input_procs = 2;
    cfg.render_procs = 3;
    return cfg;
  }
  static std::string dir_;
};
std::string ExtensionTest::dir_;

TEST(CameraOrbit, ZeroDegreesIsOverview) {
  Box3 dom{{0, 0, 0}, {10, 10, 10}};
  auto a = render::Camera::overview(dom, 64, 64);
  auto b = render::Camera::orbit(dom, 64, 64, 0.0f);
  EXPECT_FLOAT_EQ(a.eye().x, b.eye().x);
  EXPECT_FLOAT_EQ(a.eye().z, b.eye().z);
}

TEST(CameraOrbit, FullCircleReturnsAndPreservesRadius) {
  Box3 dom{{0, 0, 0}, {10, 10, 10}};
  Vec3 c = dom.center();
  auto a = render::Camera::orbit(dom, 64, 64, 0.0f);
  auto b = render::Camera::orbit(dom, 64, 64, 360.0f);
  EXPECT_NEAR(a.eye().x, b.eye().x, 1e-3f);
  EXPECT_NEAR(a.eye().y, b.eye().y, 1e-3f);
  for (float deg : {30.0f, 90.0f, 200.0f}) {
    auto cam = render::Camera::orbit(dom, 64, 64, deg);
    EXPECT_NEAR((cam.eye() - c).norm(), (a.eye() - c).norm(), 1e-2f);
    EXPECT_FLOAT_EQ(cam.eye().z, a.eye().z);  // rotation about the z axis
  }
}

TEST_F(ExtensionTest, OrbitingPipelineMatchesPerStepSerialCameras) {
  auto cfg = base_config();
  cfg.orbit_deg_per_step = 25.0f;
  std::vector<img::Image> frames;
  run_pipeline(cfg, &frames);
  ASSERT_EQ(frames.size(), std::size_t(kSteps));

  io::DatasetReader reader(dir_);
  SerialRenderConfig scfg;
  scfg.render.value_hi = 3.0f;
  scfg.quantize = true;
  auto tf = render::TransferFunction::seismic();
  for (int s = 0; s < kSteps; ++s) {
    auto cam = render::Camera::orbit(reader.meta().domain, kW, kH,
                                     25.0f * float(s));
    img::Image want = render_step(reader, s, cam, tf, scfg);
    EXPECT_LT(img::rmse(frames[std::size_t(s)], want), 1e-5) << "frame " << s;
  }
  // And the view actually moved between frames.
  EXPECT_GT(img::rmse(frames[0], frames[2]), 1e-3);
}

TEST(DeriveScalar, VariableDefinitions) {
  std::vector<float> rec = {3, -4, 12};
  auto mag = io::derive_scalar(rec, 3, io::Variable::kMagnitude);
  auto vx = io::derive_scalar(rec, 3, io::Variable::kComponentX);
  auto vy = io::derive_scalar(rec, 3, io::Variable::kComponentY);
  auto vz = io::derive_scalar(rec, 3, io::Variable::kComponentZ);
  auto hz = io::derive_scalar(rec, 3, io::Variable::kHorizontal);
  EXPECT_FLOAT_EQ(mag[0], 13.0f);
  EXPECT_FLOAT_EQ(vx[0], 3.0f);
  EXPECT_FLOAT_EQ(vy[0], 4.0f);
  EXPECT_FLOAT_EQ(vz[0], 12.0f);
  EXPECT_FLOAT_EQ(hz[0], 5.0f);
}

TEST(DeriveScalar, MissingComponentsReadZero) {
  std::vector<float> rec = {7.0f};
  EXPECT_FLOAT_EQ(io::derive_scalar(rec, 1, io::Variable::kComponentZ)[0], 0.0f);
  EXPECT_FLOAT_EQ(io::derive_scalar(rec, 1, io::Variable::kHorizontal)[0], 7.0f);
}

TEST_F(ExtensionTest, VariableSelectionFlowsThroughThePipeline) {
  std::vector<img::Image> mag_frames, vz_frames;
  auto cfg = base_config();
  run_pipeline(cfg, &mag_frames);
  cfg.variable = io::Variable::kComponentZ;
  run_pipeline(cfg, &vz_frames);
  // Different variables give different images...
  EXPECT_GT(img::rmse(mag_frames[1], vz_frames[1]), 1e-4);
  // ...and each matches its serial counterpart.
  io::DatasetReader reader(dir_);
  SerialRenderConfig scfg;
  scfg.render.value_hi = 3.0f;
  scfg.quantize = true;
  scfg.variable = io::Variable::kComponentZ;
  auto cam = render::Camera::overview(reader.meta().domain, kW, kH);
  auto tf = render::TransferFunction::seismic();
  img::Image want = render_step(reader, 1, cam, tf, scfg);
  EXPECT_LT(img::rmse(vz_frames[1], want), 1e-5);
}

TEST_F(ExtensionTest, DynamicRebalanceKeepsFramesCorrect) {
  auto cfg = base_config();
  // Deliberately bad initial assignment so redistribution has work to do.
  cfg.assign = octree::AssignStrategy::kRoundRobin;
  cfg.rebalance_every = 2;  // epochs of 2 steps over 4 steps
  std::vector<img::Image> frames;
  auto report = run_pipeline(cfg, &frames);
  ASSERT_EQ(frames.size(), std::size_t(kSteps));
  // Frames identical to the static run (redistribution must not change
  // the image).
  auto cfg2 = base_config();
  std::vector<img::Image> want;
  run_pipeline(cfg2, &want);
  for (int s = 0; s < kSteps; ++s) {
    EXPECT_LT(img::rmse(frames[std::size_t(s)], want[std::size_t(s)]), 1e-6)
        << "frame " << s;
  }
  // One epoch boundary -> one imbalance record, and the replanned
  // assignment is no worse than what was measured.
  ASSERT_EQ(report.epoch_imbalance.size(), 1u);
  ASSERT_EQ(report.epoch_imbalance_replanned.size(), 1u);
  EXPECT_LE(report.epoch_imbalance_replanned[0],
            report.epoch_imbalance[0] + 1e-9);
}

TEST_F(ExtensionTest, CompressedBlockTrafficIsLossless) {
  std::vector<img::Image> raw, packed;
  auto cfg = base_config();
  auto rep_raw = run_pipeline(cfg, &raw);
  cfg.compress_blocks = true;
  auto rep_packed = run_pipeline(cfg, &packed);
  for (std::size_t s = 0; s < raw.size(); ++s) {
    EXPECT_LT(img::rmse(raw[s], packed[s]), 1e-9) << "frame " << s;
  }
  EXPECT_EQ(rep_raw.block_bytes_raw, rep_packed.block_bytes_raw);
  EXPECT_EQ(rep_raw.block_bytes_sent, rep_raw.block_bytes_raw);
  // This dataset's wave fills much of the volume; compression still helps
  // (never hurts — payloads fall back to raw when RLE loses).
  EXPECT_LT(rep_packed.block_bytes_sent, rep_raw.block_bytes_raw);
}

TEST(CompressedBlocks, QuietEarlyStepsCompressHard) {
  // Before the wave arrives almost everything quantizes to zero: the
  // pipeline's block traffic must collapse.
  auto dir =
      (std::filesystem::temp_directory_path() /
       ("qv_quiet_ds." + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  mesh::HexMesh fine(mesh::LinearOctree::uniform(kUnit, 3));
  io::DatasetWriter writer(dir, fine, 2, 3, 0.05f);
  quake::SyntheticQuake q;
  for (int s = 0; s < 3; ++s) {
    writer.write_step(q.sample_nodes(fine, 0.02f + 0.02f * float(s)));
  }
  writer.finish();

  PipelineConfig cfg;
  cfg.dataset_dir = dir;
  cfg.width = 48;
  cfg.height = 36;
  // Wide quantization window: the faint early motion quantizes to zero
  // nearly everywhere, as late-time quiet ground does at production scale.
  cfg.render.value_hi = 30.0f;
  cfg.input_procs = 1;
  cfg.render_procs = 2;
  cfg.compress_blocks = true;
  auto report = run_pipeline(cfg);
  EXPECT_LT(report.block_bytes_sent, report.block_bytes_raw / 5);
  std::filesystem::remove_all(dir);
}

TEST_F(ExtensionTest, CompressedBlocksWorkForEveryStrategy) {
  for (auto strategy :
       {IoStrategy::kTwoDipCollective, IoStrategy::kTwoDipIndependent}) {
    auto cfg = base_config();
    cfg.strategy = strategy;
    cfg.groups = 2;
    std::vector<img::Image> raw, packed;
    run_pipeline(cfg, &raw);
    cfg.compress_blocks = true;
    run_pipeline(cfg, &packed);
    for (std::size_t s = 0; s < raw.size(); ++s) {
      EXPECT_LT(img::rmse(raw[s], packed[s]), 1e-9);
    }
  }
}

TEST_F(ExtensionTest, RebalanceRequiresOneDip) {
  auto cfg = base_config();
  cfg.rebalance_every = 2;
  cfg.strategy = IoStrategy::kTwoDipIndependent;
  EXPECT_THROW(run_pipeline(cfg), std::runtime_error);
}

// --- in-situ ---------------------------------------------------------------

InsituConfig small_insitu() {
  InsituConfig cfg;
  cfg.domain = {{0, 0, 0}, {1000, 1000, 1000}};
  cfg.basin.basin_center = {500, 500, 1000};
  cfg.basin.basin_radius = 400;
  cfg.basin.basin_depth = 300;
  cfg.basin.surface_z = 1000;
  cfg.mesh_max_freq_hz = 0.8f;
  cfg.mesh_min_level = 2;
  cfg.mesh_max_level = 3;
  cfg.source.position = {500, 500, 700};
  cfg.source.peak_freq_hz = 0.8f;
  cfg.source.delay_s = 1.0f;
  cfg.source.amplitude = 1e11f;
  cfg.steps_per_snapshot = 6;
  cfg.snapshots = 3;
  cfg.render_procs = 2;
  cfg.width = 48;
  cfg.height = 36;
  cfg.render.value_hi = 0.05f;
  return cfg;
}

TEST(Insitu, ProducesFramesWhileSimulating) {
  auto cfg = small_insitu();
  std::vector<img::Image> frames;
  auto report = run_insitu(cfg, &frames);
  EXPECT_EQ(report.snapshots, 3);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_GT(report.sim_seconds, 0.0);
  EXPECT_GT(report.sim_time_reached, 0.0);
  ASSERT_EQ(report.frame_seconds.size(), 3u);
  for (std::size_t i = 1; i < report.frame_seconds.size(); ++i) {
    EXPECT_GE(report.frame_seconds[i], report.frame_seconds[i - 1]);
  }
}

// small_insitu() with an orbit rendered by a threaded pool: the render stage
// re-places the camera and visibility order every snapshot.
InsituConfig orbiting_insitu() {
  auto cfg = small_insitu();
  cfg.orbit_deg_per_step = 40.0f;
  cfg.render_threads = 3;
  return cfg;
}

// SHA-256 of a run's frames as the output rank writes them: tone-mapped to
// 8 bits, in step order.
std::string frames_sha(const std::vector<img::Image>& frames) {
  std::vector<std::uint8_t> bytes;
  for (const img::Image& f : frames) {
    const img::Image8 b = img::to_8bit(f, {0.02f, 0.02f, 0.05f});
    bytes.insert(bytes.end(), b.data(), b.data() + b.byte_count());
  }
  return util::Sha256::hex(bytes.data(), bytes.size());
}

bool same_pixels(const img::Image& a, const img::Image& b) {
  return a.pixels().size() == b.pixels().size() &&
         std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixels().size_bytes()) == 0;
}

TEST(Insitu, FramesMatchOfflineRenderOfTheSameSolverState) {
  // The fixed overview camera, and the orbiting threaded variant.
  for (const InsituConfig& cfg : {small_insitu(), orbiting_insitu()}) {
    SCOPED_TRACE("orbit " + std::to_string(cfg.orbit_deg_per_step) +
                 ", threads " + std::to_string(cfg.render_threads));
    std::vector<img::Image> frames;
    run_insitu(cfg, &frames);
    ASSERT_EQ(frames.size(), std::size_t(cfg.snapshots));

    // Re-run the identical (deterministic) simulation offline and render
    // the state at every snapshot with the serial machinery, at in situ's
    // fixed choices: level-2 blocks, the seismic transfer function and the
    // velocity magnitude.
    mesh::HexMesh mesh = build_insitu_mesh(cfg);
    quake::WaveSolver solver(mesh, cfg.basin.field(), cfg.solver);
    solver.add_source(cfg.source);
    auto blocks = octree::decompose(mesh.octree(), 2);
    octree::estimate_workloads(mesh.octree(), blocks,
                               octree::WorkloadModel::kCellCount);
    io::BlockNodeIndex index(mesh, blocks);
    auto tf = render::TransferFunction::seismic();
    for (int snap = 0; snap < cfg.snapshots; ++snap) {
      for (int k = 0; k < cfg.steps_per_snapshot; ++k) solver.step();
      auto scalar = io::derive_scalar(solver.velocity_interleaved(), 3,
                                      io::Variable::kMagnitude);
      auto q = io::quantize(scalar, cfg.render.value_lo, cfg.render.value_hi);
      for (std::size_t i = 0; i < scalar.size(); ++i)
        scalar[i] = q.dequantize(i);
      auto rblocks = render::build_render_blocks(mesh, blocks, index);
      for (auto& rb : rblocks) rb.gather_values(scalar);
      auto cam = render::Camera::orbit(mesh.domain(), cfg.width, cfg.height,
                                       cfg.orbit_deg_per_step * float(snap));
      img::Image want = render::render_frame(cam, tf, cfg.render, rblocks,
                                             blocks, mesh.domain());
      EXPECT_LT(img::rmse(frames[std::size_t(snap)], want), 1e-5)
          << "snapshot " << snap;
    }
    if (cfg.orbit_deg_per_step != 0.0f) {
      // And the view actually moved between snapshots.
      EXPECT_GT(img::rmse(frames[1], frames[2]), 1e-3);
    }
  }
}

// Pinned byte for byte, as the output rank writes them: no change to the
// rank body, the render and output roles or the solver role may move an in
// situ output byte unnoticed. If a change is meant to alter the frames, copy
// the printed hashes here in the same commit.
TEST(Insitu, FramesArePinned) {
  constexpr const char* kFixed =
      "87d008a2941ae1107e3a853832253ce77233f2c9bf05158cd0e93bea786232ff";
  constexpr const char* kOrbiting =
      "dd7bd1c46f7db8ab90f36197120f062bf3da9250e7ef521e8a39188dfc584d4c";
  std::vector<img::Image> frames;
  run_insitu(small_insitu(), &frames);
  std::string got = frames_sha(frames);
  EXPECT_EQ(got, kFixed) << "fixed-camera frames changed; if intended, set "
                            "kFixed to "
                         << got;
  frames.clear();
  run_insitu(orbiting_insitu(), &frames);
  got = frames_sha(frames);
  EXPECT_EQ(got, kOrbiting) << "orbiting frames changed; if intended, set "
                               "kOrbiting to "
                            << got;
}

TEST(Insitu, ParallelSimulationGroupMatchesSingleSimRank) {
  auto cfg = small_insitu();
  std::vector<img::Image> one, three;
  cfg.sim_procs = 1;
  run_insitu(cfg, &one);
  cfg.sim_procs = 3;
  auto report = run_insitu(cfg, &three);
  EXPECT_EQ(report.snapshots, cfg.snapshots);
  ASSERT_EQ(one.size(), three.size());
  for (std::size_t s = 0; s < one.size(); ++s) {
    // The distributed solver's force summation order differs, but the
    // rendered frames must agree to visual precision.
    EXPECT_LT(img::rmse(one[s], three[s]), 1e-3) << "snapshot " << s;
  }
}

// The corruption wall: one corrupted block message, the first or the last
// of any snapshot, degrades that snapshot's frame and no other. The renderer
// NACKs it, the sim root answers with a skip marker (the solver has moved
// on), and the run returns with every other frame bit-identical to the
// fault-free run's.
TEST(Insitu, CorruptBlockDegradesOnlyItsSnapshot) {
  // The sim root sends each snapshot as one message per block, in block
  // order: its n-th user send is block n % B of snapshot n / B.
  const std::uint64_t B =
      octree::decompose(build_insitu_mesh(small_insitu()).octree(), 2).size();
  ASSERT_EQ(B, 64u);
  for (int sim_procs : {1, 3}) {
    for (int renderers : {2, 3}) {
      auto cfg = small_insitu();
      cfg.sim_procs = sim_procs;
      cfg.render_procs = renderers;
      std::vector<img::Image> want;
      const auto clean = run_insitu(cfg, &want);
      ASSERT_EQ(clean.corrupt_blocks_detected, 0u);
      ASSERT_EQ(clean.degraded_frames, 0);
      for (std::uint64_t k = 0; k < std::uint64_t(cfg.snapshots); ++k) {
        for (std::uint64_t n : {k * B, (k + 1) * B - 1}) {
          SCOPED_TRACE(::testing::Message()
                       << "sim_procs " << sim_procs << ", renderers "
                       << renderers << ", corrupt send " << n);
          auto plan = std::make_shared<vmpi::FaultPlan>();
          plan->corrupt_sends = {{0, n}};
          cfg.fault_plan = plan;
          std::vector<img::Image> got;
          const auto rep = run_insitu(cfg, &got);
          EXPECT_EQ(rep.corrupt_blocks_detected, 1u);
          EXPECT_EQ(rep.resend_requests, 1u);
          EXPECT_EQ(rep.degraded_frames, 1);
          EXPECT_EQ(rep.degraded_steps, std::vector<int>{int(n / B)});
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t s = 0; s < got.size(); ++s) {
            if (s == n / B) continue;
            EXPECT_TRUE(same_pixels(got[s], want[s])) << "frame " << s;
          }
        }
      }
    }
  }
}

TEST(Insitu, BadConfigThrows) {
  auto cfg = small_insitu();
  cfg.render_procs = 0;
  EXPECT_THROW(run_insitu(cfg), std::runtime_error);
  cfg = small_insitu();
  cfg.snapshots = 0;
  EXPECT_THROW(run_insitu(cfg), std::runtime_error);
  cfg = small_insitu();
  cfg.width = 0;
  EXPECT_THROW(run_insitu(cfg), std::runtime_error);
  cfg = small_insitu();
  cfg.height = 0;
  EXPECT_THROW(run_insitu(cfg), std::runtime_error);
  // The sim group's force reduction cannot survive a death.
  cfg = small_insitu();
  auto kill = std::make_shared<vmpi::FaultPlan>();
  kill->kill_rank = 0;
  kill->kill_at_step = 1;
  cfg.fault_plan = kill;
  EXPECT_THROW(run_insitu(cfg), std::runtime_error);
}

}  // namespace
}  // namespace qv::core
