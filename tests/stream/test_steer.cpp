// The stale/fresh property wall (steered serve loop) plus the cancellation
// stress and the tier-continuity regression.
//
// The contract under test (see stream/control.hpp): a delivered frame whose
// header echoes epoch >= R provably renders the view with edit R applied.
// run_steer_loop checks the invariants from INSIDE the loop (epoch echo +
// pixel SHA per delivered frame, no delta across an epoch boundary, first
// post-edit frame is a keyframe, for every client incl. late joiners); the
// tests here run it across seeds, client counts, and bandwidths, then
// independently re-render reference frames with a fresh SteerScene and
// compare SHA-256 — so a loop that lied to itself still fails.
#include "stream/steer.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "stream/chaos.hpp"
#include "stream/control.hpp"
#include "stream/server.hpp"
#include "util/sha256.hpp"

namespace qv::stream {
namespace {

std::uint64_t fuzz_seed() {
  if (const char* s = std::getenv("QV_FUZZ_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 1;
}

std::string image_sha(const img::Image8& im) {
  return util::Sha256::hex(im.data(), im.byte_count());
}

// The view that served epoch E: the last fold entry with epoch <= E.
SteeringState view_at(const SteerLoopReport& rep, std::uint32_t epoch) {
  SteeringState v;
  for (const auto& [e, s] : rep.views)
    if (e <= epoch) v = s;
  return v;
}

SteerLoopConfig small_cfg(std::uint64_t seed) {
  SteerLoopConfig cfg;
  cfg.width = 96;
  cfg.height = 72;
  cfg.frames = 16;
  cfg.level = 2;
  cfg.block_level = 1;
  cfg.render_threads = 2;
  cfg.seed = seed;
  cfg.fleet.count = 3;
  return cfg;
}

// --- the property wall ------------------------------------------------------

TEST(SteerPropertyWall, ScriptedTracesAcrossSeedsClientsAndBandwidths) {
  const std::uint64_t base = fuzz_seed();
  const int client_counts[] = {1, 3, 6};
  const double bandwidth_lo[] = {0.0, 4e4};  // uniform fleet / log-spread
  for (std::uint64_t seed : {base, base + 1}) {
    int variant = 0;
    for (int clients : client_counts) {
      for (double lo : bandwidth_lo) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " clients " << clients << " lo "
                     << lo << " (QV_FUZZ_SEED=" << base << ")");
        SteerLoopConfig cfg = small_cfg(seed + std::uint64_t(variant) * 131);
        cfg.frames = 14;
        cfg.fleet.count = clients;
        cfg.fleet.bandwidth_lo = lo;
        cfg.trace = make_steer_trace(cfg.seed * 31 + 7, cfg.frames, 5,
                                     /*allow_scrub=*/true);
        auto rep = run_steer_loop(cfg);
        for (const auto& v : rep.violations) ADD_FAILURE() << v;
        EXPECT_GT(rep.edits_applied, 0u) << "trace never fired; vacuous";
        // Ids are assigned 1..N in post order, so the final epoch is the
        // trace size even when same-kind bursts coalesced to fewer applies.
        EXPECT_EQ(rep.final_epoch, std::uint32_t(cfg.trace.size()));
        EXPECT_LE(rep.edits_applied, std::uint64_t(cfg.trace.size()));
        // Epoch echoes are monotone over submitted frames: an edit can
        // never un-apply.
        for (std::size_t i = 1; i < rep.epochs.size(); ++i)
          EXPECT_GE(rep.epochs[i], rep.epochs[i - 1]) << "frame " << i;
        ++variant;
      }
    }
  }
}

TEST(SteerPropertyWall, LateJoinersSeeKeyframeFirstAndFreshPixels) {
  const std::uint64_t base = fuzz_seed();
  for (std::uint64_t seed : {base, base + 1}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed
                                      << " (QV_FUZZ_SEED=" << base << ")");
    SteerLoopConfig cfg = small_cfg(seed);
    cfg.frames = 18;
    cfg.fleet.count = 6;            // indices 2 and 5 join late
    cfg.late_join_frame = 7;        // mid-trace: joiners land between edits
    cfg.trace = make_steer_trace(seed ^ 0xABCDu, cfg.frames, 6, true);
    auto rep = run_steer_loop(cfg);
    for (const auto& v : rep.violations) ADD_FAILURE() << v;
    EXPECT_GT(rep.edits_applied, 0u);
    for (const auto& c : rep.server.clients) {
      EXPECT_TRUE(c.rejoin_keyframe_ok) << "client " << c.id;
      EXPECT_GT(c.frames_delivered, 0u) << "client " << c.id;
    }
  }
}

TEST(SteerPropertyWall, IndependentReferenceRendersMatchSubmittedShas) {
  // The loop's internal expected-pixels check shares the scene object with
  // the loop itself. Rebuild the scene from the config alone and re-render
  // the view the fold history says served each epoch: a loop applying edits
  // to the render differently than the fold records would slip past its own
  // check but not this one.
  SteerLoopConfig cfg = small_cfg(fuzz_seed());
  cfg.trace = make_steer_trace(cfg.seed + 5, cfg.frames, 5, true);
  auto rep = run_steer_loop(cfg);
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  ASSERT_EQ(rep.epochs.size(), rep.submitted_sha256.size());
  ASSERT_EQ(rep.epochs.size(), rep.field_steps.size());
  ASSERT_FALSE(rep.views.empty());

  SteerScene scene(cfg);
  // Every frame right after an epoch change, plus the first and the last.
  std::vector<std::size_t> picks = {0, rep.epochs.size() - 1};
  for (std::size_t i = 1; i < rep.epochs.size(); ++i)
    if (rep.epochs[i] != rep.epochs[i - 1]) picks.push_back(i);
  for (std::size_t i : picks) {
    SCOPED_TRACE(::testing::Message() << "frame " << i << " epoch "
                                      << rep.epochs[i]);
    auto ref = scene.render(view_at(rep, rep.epochs[i]), rep.field_steps[i]);
    EXPECT_EQ(image_sha(ref), rep.submitted_sha256[i]);
  }
}

TEST(SteerPropertyWall, ScrubJumpsTheFieldStepWithoutAViewChange) {
  SteerLoopConfig cfg = small_cfg(3);
  cfg.frames = 10;
  SteerEvent ev;
  ev.step = 4;
  ev.msg.kind = SteerKind::kScrub;
  ev.msg.f0 = 20.0f;
  cfg.trace = {ev};
  auto rep = run_steer_loop(cfg);
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  ASSERT_EQ(rep.field_steps.size(), 10u);
  EXPECT_EQ(rep.field_steps[3], 3);
  EXPECT_EQ(rep.field_steps[4], 20);  // the scrub landed at its boundary
  EXPECT_EQ(rep.field_steps[5], 21);  // and playback resumes from there
  // A scrub is not a view change, but it IS a new epoch (the echo tells the
  // viewer its request was honored).
  EXPECT_EQ(rep.final_epoch, 1u);
  EXPECT_EQ(rep.epochs[4], 1u);
}

// --- cancellation stress (run under TSan by ci.sh) --------------------------

TEST(SteerCancellation, LiveStressAcrossThreadCounts) {
  // Live mode: a monitor thread posts edits mid-render and fires the
  // CancelToken while worker threads are inside the raycaster. Under TSan
  // this is the data-race wall; everywhere it also pins the accounting:
  // every render attempt either completes into a submitted frame or is
  // cancelled — a cancelled render NEVER produces a frame message.
  const std::uint64_t base = fuzz_seed();
  for (int threads : {1, 2, 4, 7}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads
                                      << " (QV_FUZZ_SEED=" << base << ")");
    SteerLoopConfig cfg = small_cfg(base + std::uint64_t(threads));
    cfg.frames = 8;
    cfg.render_threads = threads;
    cfg.live = true;
    cfg.cancellation = true;
    cfg.fire_fraction = 0.3;
    cfg.trace = make_steer_trace(base + 17 * std::uint64_t(threads),
                                 cfg.frames, 4, true);
    auto rep = run_steer_loop(cfg);
    for (const auto& v : rep.violations) ADD_FAILURE() << v;
    EXPECT_EQ(rep.renders,
              rep.cancelled_renders + std::uint64_t(rep.epochs.size()));
    EXPECT_EQ(rep.server.frames_submitted, std::uint64_t(rep.epochs.size()));
    EXPECT_GT(rep.edits_applied, 0u);
  }
}

TEST(SteerCancellation, DisabledMeansEveryRenderCompletes) {
  SteerLoopConfig cfg = small_cfg(11);
  cfg.frames = 6;
  cfg.live = true;
  cfg.cancellation = false;
  cfg.trace = make_steer_trace(11, cfg.frames, 3, true);
  auto rep = run_steer_loop(cfg);
  for (const auto& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_EQ(rep.cancelled_renders, 0u);
  EXPECT_EQ(rep.renders, std::uint64_t(rep.epochs.size()));
}

// --- tier continuity across epoch bumps (the latent-bug regression) ---------

TEST(SteerTierContinuity, ServerClientKeepsEarnedTierAcrossViewChange) {
  // A view change invalidates delta chains but is NOT a network event: the
  // per-client DegradationController's level and recovery credit must ride
  // through apply_view_change untouched. The buggy alternative (tearing the
  // client state down like reconnect() does) resets the tier to 0 and the
  // congested link immediately re-enters the whole escalation ramp.
  constexpr int kW = 48, kH = 36;
  ServerConfig cfg;
  DeliveryServer server(cfg, kW, kH);
  ClientLinkConfig slow;
  slow.bandwidth_bytes_per_s = 2.2e4;  // congests against ~52 kB/s offered
  const int id = server.join(0.0, slow);
  for (int s = 0; s < 30; ++s)
    server.submit(0.1 * s, s, chaos_frame(kW, kH, 99, s));
  const auto& mid = server.client(id);
  ASSERT_FALSE(mid.deliveries.empty());
  const int earned_tier = mid.deliveries.back().tier;
  ASSERT_GT(earned_tier, 0) << "link never escalated; test is vacuous";
  const std::size_t before = mid.deliveries.size();

  server.apply_view_change(9);
  for (int s = 30; s < 45; ++s)
    server.submit(0.1 * s, s, chaos_frame(kW, kH, 99, s));
  auto rep = server.finish();
  const auto& c = rep.clients[std::size_t(id)];
  ASSERT_GT(c.deliveries.size(), before);
  // Frames already in flight when the edit landed still carry epoch 0; the
  // first delivery ENCODED after the change is the first with the new echo.
  std::size_t i = before;
  while (i < c.deliveries.size() && c.deliveries[i].epoch != 9u) ++i;
  ASSERT_LT(i, c.deliveries.size()) << "no post-edit frame ever delivered";
  const auto& first = c.deliveries[i];
  EXPECT_TRUE(first.keyframe) << "post-edit frame rode in on a delta";
  // Tier continuity: still degraded, not restarted from tier 0.
  EXPECT_GE(first.tier, earned_tier);
  EXPECT_EQ(rep.reconnects, 0u);
  EXPECT_EQ(rep.decode_failures, 0u);
}

}  // namespace
}  // namespace qv::stream
