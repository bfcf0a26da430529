// End-to-end delivery determinism: a one-client fleet's viewer must see
// byte-for-byte the frames the output processor wrote locally, across
// render-thread counts, link bandwidths, and both drivers (batch pipeline
// and in situ) — a starved link must degrade per policy without inflating
// the pipeline's interframe delay — and the shared output stage's epoch
// rule must hold in both drivers.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "core/insitu.hpp"
#include "core/pipeline.hpp"
#include "img/image.hpp"
#include "io/dataset.hpp"
#include "quake/synthetic.hpp"
#include "util/sha256.hpp"

namespace qv::core {
namespace {

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};
constexpr int kSteps = 6;
constexpr int kW = 64;
constexpr int kH = 48;

std::string sha_of_image(const img::Image8& im) {
  return util::Sha256::hex(im.data(), im.byte_count());
}

std::string sha_of_ppm(const std::string& path) {
  img::Image8 im;
  EXPECT_TRUE(img::read_ppm(path, im)) << path;
  return sha_of_image(im);
}

std::string temp_path(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "." + std::to_string(::getpid())))
      .string();
}

std::string ppm_name(int step) {
  char name[64];
  std::snprintf(name, sizeof(name), "/frame_%04d.ppm", step);
  return name;
}

class StreamDeliveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("qv_stream_ds." + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    auto size = [](Vec3 p) { return p.z > 0.5f ? 0.12f : 0.3f; };
    mesh::HexMesh fine(mesh::LinearOctree::build(kUnit, size, 1, 3));
    io::DatasetWriter writer(dir_, fine, 2, 3, 0.25f);
    quake::SyntheticQuake q;
    for (int s = 0; s < kSteps; ++s) {
      writer.write_step(q.sample_nodes(fine, 0.55f + 0.25f * float(s)));
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
    // A point-to-point stream: one verified client at the default 20 ms.
    cfg.serve.enabled = true;
    cfg.serve.count = 1;
    return cfg;
  }

  // A few snapshots of a small in-situ run, delivered the same way.
  static InsituConfig insitu_config() {
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
    cfg.snapshots = 4;
    cfg.render_procs = 2;
    cfg.width = kW;
    cfg.height = kH;
    cfg.render.value_hi = 0.05f;
    cfg.serve.enabled = true;
    cfg.serve.count = 1;
    return cfg;
  }

  static std::string dir_;
};
std::string StreamDeliveryTest::dir_;

// Uncontended link: nothing dropped, never degraded, and every delivered
// frame's SHA-256 equals the SHA-256 of the PPM written for that step.
// Appends the delivered SHAs, in step order, to `shas`.
void expect_delivered_match_ppms(const stream::ServerReport& server,
                                 const stream::ServerCapture& capture,
                                 const std::string& out_dir, int steps,
                                 std::vector<std::string>& shas) {
  ASSERT_EQ(server.clients.size(), 1u);
  const auto& client = server.clients[0];
  EXPECT_EQ(client.frames_dropped, 0u);
  EXPECT_EQ(client.frames_delivered, std::uint64_t(steps));
  EXPECT_EQ(server.decode_failures, 0u);
  EXPECT_EQ(client.peak_level, 0);

  ASSERT_EQ(capture.frames.size(), std::size_t(steps));
  for (int s = 0; s < steps; ++s) {
    const auto& f = capture.frames[std::size_t(s)];
    ASSERT_EQ(f.step, s);
    EXPECT_EQ(f.tier, 0);
    shas.push_back(sha_of_image(f.image));
    EXPECT_EQ(shas.back(), sha_of_ppm(out_dir + ppm_name(s))) << "step " << s;
  }
}

TEST_F(StreamDeliveryTest, DeliveredFramesMatchWrittenPpmsBitExactly) {
  // Across render-thread counts (rendering is bit-exact by construction)
  // and uncontended bandwidths, every delivered frame's SHA-256 equals the
  // SHA-256 of the PPM the output processor wrote for that step.
  std::vector<std::string> reference_sha;
  for (int threads : {1, 4}) {
    for (double bandwidth : {1e8, 1e9}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads
                                        << " bandwidth " << bandwidth);
      auto out_dir = temp_path("qv_stream_out") + "." +
                     std::to_string(threads) + "." +
                     std::to_string(int(bandwidth / 1e8));
      std::filesystem::create_directories(out_dir);
      stream::ServerCapture capture;
      auto cfg = base_config();
      cfg.render_threads = threads;
      cfg.output_dir = out_dir;
      cfg.serve.bandwidth_hi = bandwidth;
      cfg.serve.server.capture = &capture;
      auto report = run_pipeline(cfg);

      std::vector<std::string> shas;
      ASSERT_NO_FATAL_FAILURE(expect_delivered_match_ppms(
          report.server, capture, out_dir, kSteps, shas));
      // And identical across every (threads, bandwidth) combination.
      if (reference_sha.empty()) {
        reference_sha = shas;
      } else {
        EXPECT_EQ(shas, reference_sha);
      }
      std::filesystem::remove_all(out_dir);
    }
  }
  // The in situ driver hands its frames to the same output stage.
  SCOPED_TRACE("insitu");
  auto out_dir = temp_path("qv_stream_insitu");
  std::filesystem::create_directories(out_dir);
  stream::ServerCapture capture;
  auto cfg = insitu_config();
  cfg.output_dir = out_dir;
  cfg.serve.bandwidth_hi = 1e8;
  cfg.serve.server.capture = &capture;
  auto report = run_insitu(cfg);
  std::vector<std::string> shas;
  ASSERT_NO_FATAL_FAILURE(expect_delivered_match_ppms(
      report.server, capture, out_dir, cfg.snapshots, shas));
  std::filesystem::remove_all(out_dir);
}

TEST_F(StreamDeliveryTest, StarvedLinkDegradesWithoutStallingPipeline) {
  // ~9 KB keyframes over a 2 KB/s link: seconds of virtual service per
  // frame. The sender must keep pace anyway (drop, don't block), walk the
  // degradation ladder to keyframe-only, and report the drops.
  auto cfg = base_config();
  cfg.serve.bandwidth_hi = 2000.0;
  // Tight thresholds so a 6-frame run exercises the whole ladder: escalate
  // from depth 2, drop from depth 3.
  cfg.serve.server.controller.queue_capacity = 3;
  cfg.serve.server.controller.high_water = 2;
  cfg.serve.server.controller.low_water = 0;
  auto report = run_pipeline(cfg);

  ASSERT_EQ(report.server.clients.size(), 1u);
  const auto& client = report.server.clients[0];
  EXPECT_EQ(report.server.frames_submitted, std::uint64_t(kSteps));
  EXPECT_GT(client.frames_dropped, 0u);
  EXPECT_EQ(client.peak_level, 3);
  EXPECT_EQ(client.final_level, 3);
  EXPECT_EQ(client.decode_failures, 0u);
  // The local pipeline never waited on the link: interframe delay stays at
  // render cost (well under a single frame's multi-second service time).
  EXPECT_LT(report.avg_interframe, 1.0);
  // Dropped + delivered + still-in-flight-at-finish == submitted; drain()
  // delivers the stragglers, so here delivered + dropped == submitted.
  EXPECT_EQ(client.frames_delivered + client.frames_dropped,
            report.server.frames_submitted);
}

TEST_F(StreamDeliveryTest, RecordFileReplaysIdentically) {
  // The record file is the offline viewer's input: decoding it must yield
  // exactly the frames the in-process viewer saw.
  auto rec = temp_path("qv_stream_rec") + ".bin";
  stream::ServerCapture capture;
  auto cfg = base_config();
  cfg.serve.bandwidth_hi = 1e8;
  cfg.serve.server.record_path = rec;
  cfg.serve.server.capture = &capture;
  run_pipeline(cfg);

  auto frames = stream::read_record_file(rec);
  ASSERT_TRUE(frames.has_value());
  ASSERT_EQ(frames->size(), capture.frames.size());
  stream::FrameDecoder dec;
  for (std::size_t i = 0; i < frames->size(); ++i) {
    auto f = dec.decode((*frames)[i]);
    ASSERT_TRUE(f.has_value()) << "frame " << i;
    EXPECT_EQ(f->step, capture.frames[i].step);
    EXPECT_EQ(sha_of_image(f->image), sha_of_image(capture.frames[i].image));
  }
  std::filesystem::remove(rec);
}

// The output stage's epoch rule, seen by one verified client: every
// delivered frame echoes its step's view epoch, and the first frame of each
// new epoch is a keyframe exactly when the epoch is a steering edit.
// `epoch_of` is the expected epoch per step.
void expect_epoch_rule(const stream::ServerReport& server,
                       const std::vector<std::uint32_t>& epoch_of,
                       bool keyframe_on_change) {
  EXPECT_EQ(server.decode_failures, 0u);
  ASSERT_EQ(server.clients.size(), 1u);
  const auto& ds = server.clients[0].deliveries;
  ASSERT_EQ(ds.size(), epoch_of.size());
  int changes = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    ASSERT_EQ(ds[i].step, int(i));
    EXPECT_EQ(ds[i].epoch, epoch_of[i]) << "step " << i;
    if (i > 0 && epoch_of[i] != epoch_of[i - 1]) {
      ++changes;
      EXPECT_EQ(ds[i].keyframe, keyframe_on_change) << "step " << i;
      EXPECT_EQ(ds[i].tier, 0) << "step " << i;
    }
  }
  EXPECT_GT(changes, 0) << "no epoch change; the test is vacuous";
}

// Controller thresholds above anything a 6-frame run can queue: only the
// epoch rule can make a frame a keyframe, whatever the host's speed.
void pin_lossless(stream::ServeFleetConfig& serve) {
  serve.server.controller.queue_capacity = 64;
  serve.server.controller.high_water = 64;
}

TEST_F(StreamDeliveryTest, EpochRuleHoldsInBothDrivers) {
  // Steering edits at steps 1 and 3 re-anchor every delta chain.
  auto trace = temp_path("qv_stream_steer") + ".txt";
  std::ofstream(trace) << "1 camera 30\n3 transfer 0 0.5\n";
  auto cfg = base_config();
  pin_lossless(cfg.serve);
  cfg.steer.enabled = true;
  cfg.steer.trace_path = trace;
  {
    SCOPED_TRACE("pipeline, steering");
    expect_epoch_rule(run_pipeline(cfg).server, {0, 1, 1, 2, 2, 2}, true);
  }
  {
    auto icfg = insitu_config();
    pin_lossless(icfg.serve);
    icfg.steer = cfg.steer;
    SCOPED_TRACE("insitu, steering");
    expect_epoch_rule(run_insitu(icfg).server, {0, 1, 1, 2}, true);
  }
  std::filesystem::remove(trace);
  // A rebalance epoch only relabels the frame id: the view is unchanged, so
  // the delta chain carries on across it.
  cfg.steer = {};
  cfg.rebalance_every = 2;
  SCOPED_TRACE("pipeline, rebalance");
  expect_epoch_rule(run_pipeline(cfg).server, {0, 0, 1, 1, 2, 2}, false);
}

}  // namespace
}  // namespace qv::core
