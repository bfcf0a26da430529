#include "stream/steer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <thread>

#include "img/delta.hpp"
#include "io/block_index.hpp"
#include "mesh/hex_mesh.hpp"
#include "mesh/linear_octree.hpp"
#include "obs/lineage.hpp"
#include "octree/blocks.hpp"
#include "render/block_data.hpp"
#include "render/camera.hpp"
#include "render/order.hpp"
#include "render/partial_image.hpp"
#include "render/raycast.hpp"
#include "render/transfer.hpp"
#include "util/sha256.hpp"
#include "util/stats.hpp"

namespace qv::stream {

namespace {

const Box3 kSteerDomain{{0, 0, 0}, {1, 1, 1}};
const Vec3 kSteerBackground{0.02f, 0.02f, 0.05f};

// The analytic field the loop renders: smooth, time-varying, in [0, 2] so
// the default [0, 1] window shows structure and a TF edit visibly changes
// the image (the property wall's SHA comparisons depend on edits actually
// changing pixels).
float steer_field(const Vec3& p, int step, std::uint64_t seed) {
  const float t = float(step);
  const float ph = float(seed % 977u) * 0.01f;
  return (1.0f + std::sin(4.1f * p.x + 0.7f * t + ph) *
                     std::cos(3.3f * p.y - 0.41f * t)) *
             0.7f +
         0.6f * p.z;
}

render::TransferFunction steer_tf() {
  std::vector<render::TransferFunction::ControlPoint> pts;
  pts.push_back({0.0f, {0.1f, 0.1f, 0.4f}, 0.0f});
  pts.push_back({0.25f, {0.2f, 0.5f, 0.6f}, 0.08f});
  pts.push_back({0.6f, {0.9f, 0.7f, 0.2f}, 0.35f});
  pts.push_back({1.0f, {0.9f, 0.2f, 0.1f}, 0.8f});
  return render::TransferFunction(pts);
}

}  // namespace

// --- the scene --------------------------------------------------------------

struct SteerScene::Impl {
  int width, height;
  std::uint64_t seed;
  mesh::HexMesh mesh;
  std::vector<octree::Block> blocks;
  io::BlockNodeIndex index;
  std::vector<render::RenderBlock> rblocks;
  render::TransferFunction tf;
  int filled_step = -1;

  Impl(const SteerLoopConfig& cfg)
      : width(cfg.width),
        height(cfg.height),
        seed(cfg.seed),
        mesh(mesh::LinearOctree::uniform(kSteerDomain, cfg.level)),
        blocks(octree::decompose(mesh.octree(), cfg.block_level)),
        index(mesh, blocks),
        rblocks(render::build_render_blocks(mesh, blocks, index)),
        tf(steer_tf()) {}

  void fill(int step) {
    if (filled_step == step) return;
    auto positions = mesh.node_positions();
    std::vector<float> values(mesh.node_count());
    for (std::size_t n = 0; n < values.size(); ++n)
      values[n] = steer_field(positions[n], step, seed);
    for (auto& rb : rblocks) rb.gather_values(values);
    filled_step = step;
  }
};

SteerScene::SteerScene(const SteerLoopConfig& cfg)
    : impl_(std::make_unique<Impl>(cfg)) {}

SteerScene::~SteerScene() = default;

std::optional<img::Image8> SteerScene::render_cancellable(
    const SteeringState& view, int step, util::ThreadPool* pool,
    const util::CancelToken* cancel) {
  Impl& s = *impl_;
  s.fill(step);
  render::Camera camera =
      render::Camera::orbit(kSteerDomain, s.width, s.height, view.azimuth_deg);
  render::RenderOptions opt;
  opt.value_lo = view.value_lo;
  opt.value_hi = view.value_hi;
  render::Raycaster rc(s.tf, opt, kSteerDomain.extent().x);
  auto order = render::visibility_order(s.blocks, kSteerDomain, camera.eye());
  std::vector<std::uint32_t> rank(s.blocks.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    rank[order[i]] = std::uint32_t(i);
  auto partials = render::render_blocks_cancellable(
      camera, rc, s.rblocks, rank, pool, cancel);
  if (!partials) return std::nullopt;
  std::vector<const render::PartialImage*> ptrs;
  ptrs.reserve(partials->size());
  for (const auto& p : *partials) ptrs.push_back(&p);
  img::Image frame =
      render::compose_reference(std::move(ptrs), s.width, s.height);
  return img::to_8bit(frame, kSteerBackground);
}

img::Image8 SteerScene::render(const SteeringState& view, int step) {
  return *render_cancellable(view, step, nullptr, nullptr);
}

// --- invariant checking -----------------------------------------------------

namespace {

std::string image_sha(const img::Image8& im) {
  const std::size_t n = std::size_t(im.width()) * im.height() * 3;
  return util::Sha256::hex(im.data(), n);
}

// SHA of the submitted frame re-quantized at `tier` — exactly what a
// correct decode of any (key or delta) tier-t chain must reconstruct.
std::string quantized_sha(const img::Image8& frame, int tier) {
  const std::size_t n = std::size_t(frame.width()) * frame.height() * 3;
  std::vector<std::uint8_t> planes(n);
  img::deinterleave_rgb({frame.data(), n}, planes);
  img::quantize_tier(planes, tier);
  std::vector<std::uint8_t> inter(n);
  img::interleave_rgb(planes, inter);
  return util::Sha256::hex(inter.data(), inter.size());
}

void check_invariants(SteerLoopReport& rep, const ServerCapture& capture,
                      const std::vector<img::Image8>& submitted) {
  std::map<std::pair<int, int>, std::string> qsha;
  auto expected_sha = [&](int step, int tier) -> const std::string& {
    auto key = std::make_pair(step, tier);
    auto it = qsha.find(key);
    if (it == qsha.end())
      it = qsha.emplace(key, quantized_sha(submitted[std::size_t(step)], tier))
               .first;
    return it->second;
  };
  std::map<int, std::uint32_t> last_epoch;  // per client
  for (const auto& f : capture.frames) {
    const std::string at = "client " + std::to_string(f.client) + " step " +
                           std::to_string(f.step) + " epoch " +
                           std::to_string(f.epoch) + ": ";
    if (f.step < 0 || std::size_t(f.step) >= submitted.size()) {
      rep.violations.push_back(at + "delivered a step that was never submitted");
      continue;
    }
    // (a) the epoch echo names the view the frame was rendered under...
    if (f.epoch != rep.epochs[std::size_t(f.step)]) {
      rep.violations.push_back(
          at + "epoch echo lies: step was rendered under epoch " +
          std::to_string(rep.epochs[std::size_t(f.step)]));
    }
    // ...and the pixels are that view's frame, tier-quantized, bit-exactly.
    if (image_sha(f.image) != expected_sha(f.step, f.tier)) {
      rep.violations.push_back(at + "delivered pixels are not the tier-" +
                               std::to_string(f.tier) +
                               " quantization of the submitted frame");
    }
    // (b) a delta's base lives in the same epoch.
    if (!f.keyframe) {
      if (f.base_step < 0 || std::size_t(f.base_step) >= submitted.size()) {
        rep.violations.push_back(at + "delta against unknown base step " +
                                 std::to_string(f.base_step));
      } else if (rep.epochs[std::size_t(f.base_step)] != f.epoch) {
        rep.violations.push_back(
            at + "delta crosses an epoch boundary (base step " +
            std::to_string(f.base_step) + " was epoch " +
            std::to_string(rep.epochs[std::size_t(f.base_step)]) + ")");
      }
    }
    // (c) the first frame after an epoch change is a keyframe.
    auto it = last_epoch.find(f.client);
    if (it != last_epoch.end() && it->second != f.epoch && !f.keyframe) {
      rep.violations.push_back(at +
                               "first frame after a view change is a delta");
    }
    last_epoch[f.client] = f.epoch;
  }
  for (const auto& c : rep.server.clients) {
    if (!c.rejoin_keyframe_ok) {
      rep.violations.push_back("client " + std::to_string(c.id) +
                               ": (re)join not anchored by a keyframe");
    }
  }
}

}  // namespace

// --- the loop ---------------------------------------------------------------

SteerLoopReport run_steer_loop(const SteerLoopConfig& cfg) {
  SteerLoopReport rep;
  SteerScene scene(cfg);
  util::ThreadPool pool(std::max(1, cfg.render_threads));

  ServerConfig scfg = cfg.fleet.server;
  ServerCapture capture;
  if (cfg.check_invariants) {
    scfg.verify_clients = true;
    scfg.capture = &capture;
  }
  DeliveryServer server(scfg, cfg.width, cfg.height);
  auto links = make_fleet(cfg.fleet);
  double vnow = 0.0;
  std::vector<std::size_t> deferred;
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (cfg.late_join_frame >= 0 && i % 3 == 2)
      deferred.push_back(i);
    else
      server.join(vnow, links[i]);
  }

  SteeringState view;
  rep.views.push_back({0u, view});

  const int frames = std::max(cfg.frames, 1);
  std::vector<std::vector<SteerMsg>> sched;
  sched.resize(std::size_t(frames));
  for (const auto& ev : cfg.trace) {
    if (ev.step >= 0 && ev.step < frames)
      sched[std::size_t(ev.step)].push_back(ev.msg);
  }

  // Live mode: one timed warm-up render calibrates when the monitor thread
  // fires relative to a frame's render time.
  double calib_s = 0.0;
  if (cfg.live) {
    WallTimer t;
    (void)scene.render_cancellable(view, 0, &pool, nullptr);
    calib_s = t.seconds();
  }

  struct PendingFresh {
    std::uint32_t id;
    double posted_at;
  };
  std::vector<PendingFresh> pending;
  WallTimer wall;  // live-mode latency clock
  util::CancelToken cancel;
  std::vector<img::Image8> submitted;

  int frame = 0;
  int field_step = 0;
  while (frame < frames) {
    if (cfg.late_join_frame == frame && !deferred.empty()) {
      for (std::size_t i : deferred) server.join(vnow, links[i]);
      deferred.clear();
    }
    // Scripted mode: this boundary's edits arrive now, through the same
    // hostile wire boundary a remote viewer's bytes would cross.
    if (!cfg.live && !sched[std::size_t(frame)].empty()) {
      for (const auto& m : sched[std::size_t(frame)]) {
        auto id = server.steer_inbox().post_wire(encode_steer(m));
        if (id) pending.push_back({*id, vnow});
      }
      sched[std::size_t(frame)].clear();
    }
    // Drain + fold. One apply_view_change per batch: the chain reset and
    // the epoch stamp land together, before the next render.
    auto edits = server.steer_inbox().drain();
    if (!edits.empty()) {
      for (const auto& m : edits) view.apply(m);
      rep.edits_applied += edits.size();
      rep.views.push_back({view.epoch, view});
      server.apply_view_change(view.epoch);
      if (obs::lineage::enabled()) {
        // epoch here IS the newest request id: the event records
        // request_id -> first-serving-epoch for the flight recorder.
        obs::lineage::record_wall(obs::lineage::Stage::kSteerApply, frame,
                                  view.epoch,
                                  obs::lineage::ChannelKind::kClient, -1);
      }
      const std::int32_t scrub = view.take_scrub();
      if (scrub >= 0) field_step = scrub;
    }

    // Live mode: a monitor thread posts this frame's edits partway through
    // its render and, when cancellation is on, fires the token — the
    // renderer is mid-flight on a view that just went stale.
    cancel.reset();
    std::thread monitor;
    std::vector<PendingFresh> posted_live;
    if (cfg.live && !sched[std::size_t(frame)].empty()) {
      std::vector<SteerMsg> msgs = std::move(sched[std::size_t(frame)]);
      sched[std::size_t(frame)].clear();
      const double delay = std::max(1e-4, calib_s * cfg.fire_fraction);
      monitor = std::thread([&server, &cancel, &wall, &posted_live, msgs,
                             delay, fire = cfg.cancellation] {
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
        for (const auto& m : msgs) {
          auto id = server.steer_inbox().post_wire(encode_steer(m));
          if (id) posted_live.push_back({*id, wall.seconds()});
        }
        if (fire) cancel.request();
      });
    }

    auto img8 = scene.render_cancellable(
        view, field_step, &pool,
        cfg.live && cfg.cancellation ? &cancel : nullptr);
    ++rep.renders;
    if (monitor.joinable()) monitor.join();
    pending.insert(pending.end(), posted_live.begin(), posted_live.end());

    if (!img8) {
      // Aborted mid-flight: no frame message exists for this render. The
      // next iteration drains the edit that killed it and renders fresh.
      ++rep.cancelled_renders;
      continue;
    }

    server.submit(vnow, frame, *img8);
    rep.epochs.push_back(view.epoch);
    rep.field_steps.push_back(field_step);
    rep.submitted_sha256.push_back(image_sha(*img8));
    if (cfg.check_invariants) submitted.push_back(std::move(*img8));

    const double lat_now = cfg.live ? wall.seconds() : vnow;
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->id <= view.epoch) {
        rep.edit_to_fresh_s.push_back(lat_now - it->posted_at);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    vnow += cfg.frame_interval_s;
    ++frame;
    ++field_step;
  }

  rep.final_epoch = view.epoch;
  rep.server = server.finish();
  if (cfg.check_invariants) check_invariants(rep, capture, submitted);
  return rep;
}

}  // namespace qv::stream
