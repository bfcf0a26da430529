// Integration tests of the full distributed pipeline: every I/O strategy,
// compositor, and preprocessing option must reproduce the serial reference
// renderer's frames on a real on-disk dataset.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "core/serial.hpp"
#include "metrics/metrics.hpp"
#include "quake/synthetic.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace qv::core {
namespace {

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};
constexpr int kSteps = 3;
constexpr int kW = 64;
constexpr int kH = 48;
constexpr float kValueHi = 3.0f;

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // PID-unique: ctest runs each case as its own process, concurrently; a
    // shared path would be re-created by one case mid-read of another.
    dir_ = (std::filesystem::temp_directory_path() /
            ("qv_pipe_ds." + std::to_string(::getpid())))
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
    cfg.render.value_hi = kValueHi;
    cfg.input_procs = 2;
    cfg.render_procs = 3;
    return cfg;
  }

  // Serial frames with the identical quantized path.
  static std::vector<img::Image> reference_frames(bool enhancement) {
    io::DatasetReader reader(dir_);
    auto cam = render::Camera::overview(reader.meta().domain, kW, kH);
    auto tf = render::TransferFunction::seismic();
    SerialRenderConfig cfg;
    cfg.render.value_hi = kValueHi;
    cfg.quantize = true;
    cfg.enhancement = enhancement;
    std::vector<img::Image> frames;
    for (int s = 0; s < kSteps; ++s) {
      frames.push_back(render_step(reader, s, cam, tf, cfg));
    }
    return frames;
  }

  static void expect_frames_match(const std::vector<img::Image>& got,
                                  const std::vector<img::Image>& want,
                                  double tol = 1e-5) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t s = 0; s < got.size(); ++s) {
      EXPECT_LT(img::rmse(got[s], want[s]), tol) << "frame " << s;
    }
  }

  static std::string dir_;
};
std::string PipelineTest::dir_;

TEST_F(PipelineTest, OneDipMatchesSerialReference) {
  auto cfg = base_config();
  cfg.strategy = IoStrategy::kOneDip;
  std::vector<img::Image> frames;
  auto report = run_pipeline(cfg, &frames);
  EXPECT_EQ(report.steps, kSteps);
  ASSERT_EQ(report.frame_seconds.size(), std::size_t(kSteps));
  expect_frames_match(frames, reference_frames(false));
  EXPECT_GT(report.avg_render, 0.0);
  EXPECT_GT(report.avg_fetch, 0.0);
}

TEST_F(PipelineTest, TwoDipCollectiveMatchesSerialReference) {
  auto cfg = base_config();
  cfg.strategy = IoStrategy::kTwoDipCollective;
  cfg.input_procs = 2;  // group width
  cfg.groups = 2;
  std::vector<img::Image> frames;
  run_pipeline(cfg, &frames);
  expect_frames_match(frames, reference_frames(false));
}

TEST_F(PipelineTest, TwoDipIndependentMatchesSerialReference) {
  auto cfg = base_config();
  cfg.strategy = IoStrategy::kTwoDipIndependent;
  cfg.input_procs = 3;
  cfg.groups = 2;
  std::vector<img::Image> frames;
  run_pipeline(cfg, &frames);
  expect_frames_match(frames, reference_frames(false));
}

TEST_F(PipelineTest, AllStrategiesAgreeWithEachOther) {
  // With enhancement every reader also fetches s-1 and s+1.
  for (bool enhancement : {false, true}) {
    SCOPED_TRACE(enhancement ? "enhanced" : "plain");
    std::vector<std::vector<img::Image>> results;
    for (auto strategy :
         {IoStrategy::kOneDip, IoStrategy::kTwoDipCollective,
          IoStrategy::kTwoDipIndependent}) {
      auto cfg = base_config();
      cfg.strategy = strategy;
      cfg.groups = 2;
      cfg.enhancement = enhancement;
      std::vector<img::Image> frames;
      run_pipeline(cfg, &frames);
      results.push_back(std::move(frames));
    }
    for (std::size_t k = 1; k < results.size(); ++k) {
      ASSERT_EQ(results[k].size(), results[0].size());
      for (std::size_t s = 0; s < results[0].size(); ++s) {
        EXPECT_LT(img::rmse(results[k][s], results[0][s]), 1e-6)
            << "strategy " << k << " frame " << s;
      }
    }
  }
}

TEST_F(PipelineTest, EveryStrategyRecordsEachInputStageOnce) {
  // One input loop, one instrument per stage: with metrics on and tracing
  // off, every strategy records a fetch span per attempted step and a
  // preprocess and send_blocks span per completed step.
  ASSERT_FALSE(trace::enabled());
  for (auto strategy :
       {IoStrategy::kOneDip, IoStrategy::kTwoDipCollective,
        IoStrategy::kTwoDipIndependent}) {
    SCOPED_TRACE("strategy " + std::to_string(int(strategy)));
    auto cfg = base_config();
    cfg.strategy = strategy;
    cfg.groups = 2;
    metrics::enable();
    auto rep = run_pipeline(cfg);
    auto snap = metrics::collect();
    metrics::disable();
    auto count = [&](const char* name) -> std::uint64_t {
      auto it = snap.histograms.find(name);
      return it == snap.histograms.end() ? 0 : it->second.count;
    };
    EXPECT_GE(rep.input_steps_attempted, kSteps);
    EXPECT_EQ(count("span.pipeline.fetch"),
              std::uint64_t(rep.input_steps_attempted));
    EXPECT_EQ(count("span.pipeline.preprocess"),
              std::uint64_t(rep.input_steps_completed));
    EXPECT_EQ(count("span.pipeline.send_blocks"),
              std::uint64_t(rep.input_steps_completed));
  }
}

TEST_F(PipelineTest, RendererCountInvariance) {
  std::vector<img::Image> one, many;
  auto cfg = base_config();
  cfg.render_procs = 1;
  run_pipeline(cfg, &one);
  cfg = base_config();
  cfg.render_procs = 5;
  cfg.assign = octree::AssignStrategy::kLargestFirst;
  run_pipeline(cfg, &many);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t s = 0; s < one.size(); ++s) {
    EXPECT_LT(img::rmse(one[s], many[s]), 1e-6) << "frame " << s;
  }
}

TEST_F(PipelineTest, DirectSendCompositorAgreesWithSlic) {
  std::vector<img::Image> slic_frames, ds_frames;
  auto cfg = base_config();
  cfg.compositor = Compositor::kSlic;
  run_pipeline(cfg, &slic_frames);
  cfg.compositor = Compositor::kDirectSend;
  run_pipeline(cfg, &ds_frames);
  for (std::size_t s = 0; s < slic_frames.size(); ++s) {
    EXPECT_LT(img::rmse(slic_frames[s], ds_frames[s]), 1e-6);
  }
}

TEST_F(PipelineTest, BinarySwapCompositorMatchesDirectSendExactly) {
  // Binary swap is the deferred-blend k=2 radix-k: identical per-pixel
  // float sequence as direct-send, so the frames must be bit-equal at
  // pipeline granularity too (an eager swap is only approximate on the
  // pipeline's depth-interleaved morton assignment).
  std::vector<img::Image> ds_frames, bs_frames;
  auto cfg = base_config();
  cfg.render_procs = 4;  // power of two: the classic swap pairing
  cfg.compositor = Compositor::kDirectSend;
  run_pipeline(cfg, &ds_frames);
  cfg.compositor = Compositor::kRadixK;
  cfg.composite_k = 2;
  auto rep = run_pipeline(cfg, &bs_frames);
  EXPECT_EQ(rep.steps, kSteps);
  EXPECT_EQ(rep.compositor, "radix-k(k=2)");
  ASSERT_EQ(ds_frames.size(), bs_frames.size());
  for (std::size_t s = 0; s < ds_frames.size(); ++s) {
    EXPECT_EQ(img::rmse(ds_frames[s], bs_frames[s]), 0.0) << "frame " << s;
  }
}

TEST_F(PipelineTest, RadixKCompositorMatchesDirectSendExactly) {
  std::vector<img::Image> ds_frames, rk_frames;
  auto cfg = base_config();
  ASSERT_EQ(cfg.render_procs, 3);  // not a power of two, not 3-smooth-free
  cfg.compositor = Compositor::kDirectSend;
  run_pipeline(cfg, &ds_frames);
  cfg.compositor = Compositor::kRadixK;
  cfg.composite_k = 3;
  auto rep = run_pipeline(cfg, &rk_frames);
  EXPECT_EQ(rep.compositor, "radix-k(k=3)");
  ASSERT_EQ(ds_frames.size(), rk_frames.size());
  for (std::size_t s = 0; s < ds_frames.size(); ++s) {
    EXPECT_EQ(img::rmse(ds_frames[s], rk_frames[s]), 0.0) << "frame " << s;
  }
}

TEST_F(PipelineTest, BinarySwapRoutesToRadixKOnNonPowerOfTwoRenderers) {
  // render_procs = 3 has no classic swap pairing; radix-k with k=2 folds
  // the remainder rank and still matches direct-send bit for bit.
  std::vector<img::Image> bs_frames, ds_frames;
  auto cfg = base_config();
  ASSERT_EQ(cfg.render_procs, 3);
  cfg.compositor = Compositor::kRadixK;
  cfg.composite_k = 2;
  auto rep = run_pipeline(cfg, &bs_frames);
  EXPECT_EQ(rep.steps, kSteps);
  EXPECT_EQ(rep.compositor, "radix-k(k=2)");
  cfg.compositor = Compositor::kDirectSend;
  auto ds_rep = run_pipeline(cfg, &ds_frames);
  EXPECT_EQ(ds_rep.compositor, "direct-send");
  ASSERT_EQ(bs_frames.size(), ds_frames.size());
  for (std::size_t s = 0; s < bs_frames.size(); ++s) {
    EXPECT_EQ(img::rmse(bs_frames[s], ds_frames[s]), 0.0) << "frame " << s;
  }
}

TEST_F(PipelineTest, SelectedCompositorLandsInMetricsRegistry) {
  // qv-run-report carries the selected algorithm via the
  // compositing.algo.* counters in the metrics snapshot.
  metrics::enable();
  auto cfg = base_config();
  cfg.compositor = Compositor::kRadixK;  // binary-swap: k = 2
  cfg.composite_k = 2;
  run_pipeline(cfg);
  auto snap = metrics::collect();
  metrics::disable();
  ASSERT_TRUE(snap.counters.count("compositing.algo.radix_k"));
  EXPECT_GE(snap.counters.at("compositing.algo.radix_k"), 1u);
  EXPECT_GT(snap.counters.at("compositing.bytes_sent"), 0u);
}

TEST_F(PipelineTest, SingleFrameRunHasZeroInterframe) {
  auto cfg = base_config();
  cfg.num_steps = 1;
  auto report = run_pipeline(cfg);
  EXPECT_EQ(report.steps, 1);
  ASSERT_EQ(report.frame_seconds.size(), 1u);
  // One frame has no interframe delay; the report must say exactly 0.0,
  // never NaN and never the lone frame's completion time.
  EXPECT_EQ(report.avg_interframe, 0.0);
}

TEST_F(PipelineTest, InterframeUsesSteadyStateWindow) {
  auto cfg = base_config();
  auto report = run_pipeline(cfg);
  // The reported value is pinned to the second-half window of the recorded
  // completion times — recomputing it from frame_seconds must agree.
  EXPECT_DOUBLE_EQ(report.avg_interframe,
                   steady_interframe(report.frame_seconds));
  EXPECT_EQ(report.input_steps_attempted, kSteps);
  EXPECT_EQ(report.input_steps_completed, kSteps);
}

TEST_F(PipelineTest, CompressedCompositingIsLossless) {
  std::vector<img::Image> raw, packed;
  auto cfg = base_config();
  run_pipeline(cfg, &raw);
  cfg.compress_compositing = true;
  run_pipeline(cfg, &packed);
  for (std::size_t s = 0; s < raw.size(); ++s) {
    EXPECT_LT(img::rmse(raw[s], packed[s]), 1e-9);  // RLE is exact
  }
}

TEST_F(PipelineTest, EnhancementPipelineMatchesEnhancedSerial) {
  auto cfg = base_config();
  cfg.enhancement = true;
  std::vector<img::Image> frames;
  run_pipeline(cfg, &frames);
  expect_frames_match(frames, reference_frames(true));
}

TEST_F(PipelineTest, AdaptiveLevelPipelineRuns) {
  auto cfg = base_config();
  cfg.adaptive_level = 2;
  std::vector<img::Image> frames;
  auto report = run_pipeline(cfg, &frames);
  EXPECT_EQ(report.steps, kSteps);
  // The coarse image is close to the fine one (Figure 3 behaviour).
  auto fine = reference_frames(false);
  EXPECT_LT(img::rmse(frames[1], fine[1]), 0.08);
}

TEST_F(PipelineTest, LicOverlayAddsTheGroundLayer) {
  auto cfg = base_config();
  cfg.lic_overlay = true;
  cfg.lic_resolution = 32;
  std::vector<img::Image> with_lic;
  run_pipeline(cfg, &with_lic);
  cfg.lic_overlay = false;
  std::vector<img::Image> without;
  run_pipeline(cfg, &without);
  ASSERT_EQ(with_lic.size(), without.size());
  // The LIC layer must add opaque coverage where the volume was transparent.
  double a_with = 0, a_without = 0;
  for (const auto& px : with_lic[1].pixels()) a_with += px.a;
  for (const auto& px : without[1].pixels()) a_without += px.a;
  EXPECT_GT(a_with, a_without * 1.2);
}

TEST_F(PipelineTest, LicRequiresOneDip) {
  auto cfg = base_config();
  cfg.lic_overlay = true;
  cfg.strategy = IoStrategy::kTwoDipIndependent;
  EXPECT_THROW(run_pipeline(cfg), std::runtime_error);
}

TEST_F(PipelineTest, WritesFramesToDisk) {
  auto out = (std::filesystem::temp_directory_path() /
              ("qv_pipe_out." + std::to_string(::getpid())))
                 .string();
  std::filesystem::remove_all(out);
  std::filesystem::create_directories(out);
  auto cfg = base_config();
  cfg.output_dir = out;
  run_pipeline(cfg);
  for (int s = 0; s < kSteps; ++s) {
    char name[64];
    std::snprintf(name, sizeof(name), "/frame_%04d.ppm", s);
    EXPECT_TRUE(std::filesystem::exists(out + name));
  }
  std::filesystem::remove_all(out);
}

TEST_F(PipelineTest, ReportTimingsAreConsistent) {
  auto cfg = base_config();
  auto report = run_pipeline(cfg);
  EXPECT_GT(report.avg_fetch, 0.0);
  EXPECT_GE(report.avg_preprocess, 0.0);
  EXPECT_GE(report.avg_send, 0.0);
  EXPECT_GT(report.avg_render, 0.0);
  EXPECT_GT(report.avg_composite, 0.0);
  EXPECT_GT(report.composite_bytes, 0u);
  ASSERT_EQ(report.frame_seconds.size(), std::size_t(kSteps));
  for (std::size_t i = 1; i < report.frame_seconds.size(); ++i) {
    EXPECT_GE(report.frame_seconds[i], report.frame_seconds[i - 1]);
  }
}

TEST_F(PipelineTest, BadConfigurationsThrow) {
  auto cfg = base_config();
  cfg.render_procs = 0;
  EXPECT_THROW(run_pipeline(cfg), std::runtime_error);
  cfg = base_config();
  cfg.dataset_dir = "/nonexistent/qv_nowhere";
  EXPECT_THROW(run_pipeline(cfg), std::runtime_error);
}

}  // namespace
}  // namespace qv::core
