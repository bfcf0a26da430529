// Output checks of the benchmark and the self-test that proves they bite.
#include <cstdio>
#include <filesystem>

#include "perfbench.hpp"
#include "stream/control.hpp"
#include "util/sha256.hpp"

namespace perfbench {

using namespace qv;

std::string frame_digest(const img::Image& frame) {
  const auto px = frame.pixels();
  return util::Sha256::hex(px.data(), px.size_bytes());
}

std::vector<std::string> check_frames(const std::vector<img::Image>& got,
                                      const std::vector<img::Image>& want,
                                      double tol) {
  std::vector<std::string> problems;
  if (got.size() != want.size()) {
    problems.push_back("checked " + std::to_string(got.size()) +
                       " frames against " + std::to_string(want.size()) +
                       " references");
    return problems;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].width() != want[i].width() ||
        got[i].height() != want[i].height()) {
      problems.push_back("frame " + std::to_string(i) + ": wrong size");
      continue;
    }
    const double e = img::rmse(got[i], want[i]);
    // `!(e < tol)` also rejects a NaN error.
    if (!(e < tol)) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "frame %zu: RMSE %.3g vs the serial reference",
                    i, e);
      problems.push_back(buf);
    }
  }
  return problems;
}

std::vector<std::string> check_epoch_echo(const stream::SteerLoopReport& rep) {
  std::vector<std::string> problems;
  for (const auto& c : rep.server.clients) {
    for (const auto& d : c.deliveries) {
      const std::string at = "client " + std::to_string(c.id) + " step " +
                             std::to_string(d.step) + ": ";
      if (d.step < 0 || std::size_t(d.step) >= rep.epochs.size()) {
        problems.push_back(at + "delivered a step that was never submitted");
      } else if (d.epoch != rep.epochs[std::size_t(d.step)]) {
        problems.push_back(at + "epoch echo " + std::to_string(d.epoch) +
                           " but rendered under epoch " +
                           std::to_string(rep.epochs[std::size_t(d.step)]));
      }
    }
  }
  return problems;
}

bool checker_selftest(const std::string& scratch_dir) {
  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    std::printf("checker selftest: %-52s %s\n", what, cond ? "ok" : "FAILED");
    ok = ok && cond;
  };

  // Frames: a tiny real movie against its serial references, then the same
  // frames with one pixel channel nudged by a single 8-bit step.
  const std::string dir = scratch_dir + "/selftest_movie";
  std::filesystem::remove_all(dir);
  generate_inputs("movie_lit", 1, /*tiny=*/true, dir);
  MovieCheckCase mc = movie_check_case("movie_lit", dir, /*tiny=*/true);
  expect(mc.frames.size() == mc.references.size() && !mc.frames.empty(),
         "tiny movie produced every frame");
  expect(check_frames(mc.frames, mc.references, kFrameRmseTol).empty(),
         "good frames pass");
  std::vector<img::Image> corrupted = mc.frames;
  auto px = corrupted.back().pixels();
  px[px.size() / 2].r += 1.0f / 255.0f;
  expect(!check_frames(corrupted, mc.references, kFrameRmseTol).empty(),
         "a frame with one channel off by 1/255 is caught");
  expect(frame_digest(corrupted.back()) != frame_digest(mc.frames.back()),
         "the corrupted frame's digest differs");
  std::filesystem::remove_all(dir);

  // Epoch echo: a tiny scripted steering pass, then the same report with
  // one delivery claiming an epoch its step was not rendered under.
  const std::string sdir = scratch_dir + "/selftest_steer";
  std::filesystem::remove_all(sdir);
  generate_inputs("steer_fleet", 1, /*tiny=*/true, sdir);
  stream::SteerLoopReport rep = scripted_steer_pass(sdir, /*tiny=*/true);
  std::size_t deliveries = 0;
  for (const auto& c : rep.server.clients) deliveries += c.deliveries.size();
  expect(deliveries > 0 && rep.edits_applied > 0,
         "tiny steering pass delivered frames and applied edits");
  expect(rep.violations.empty() && check_epoch_echo(rep).empty(),
         "good epoch echoes pass");
  bool tampered = false;
  for (auto& c : rep.server.clients) {
    if (!c.deliveries.empty()) {
      c.deliveries.back().epoch += 1;
      tampered = true;
      break;
    }
  }
  expect(tampered && !check_epoch_echo(rep).empty(),
         "a wrong epoch echo is caught");
  std::filesystem::remove_all(sdir);
  return ok;
}

}  // namespace perfbench
