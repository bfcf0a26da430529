#include "core/render_stage.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "compositing/direct_send.hpp"
#include "compositing/radix_k.hpp"
#include "compositing/slic.hpp"
#include "core/block_msg.hpp"
#include "core/frame_msg.hpp"
#include "obs/stage.hpp"
#include "render/order.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace qv::core {

ViewSchedule::ViewSchedule(const Box3& domain_in, int width_in, int height_in,
                           float orbit, const render::RenderOptions& opts,
                           const SteeringConfig& steer, int steps,
                           int rebalance)
    : domain(domain_in), width(width_in), height(height_in),
      orbit_deg_per_step(orbit), options(opts), steering(steer.enabled),
      rebalance_every(rebalance) {
  if (!steering) return;
  std::string err;
  auto trace = steer.trace_path.empty()
                   ? stream::make_steer_trace(steer.seed, steps, steer.edits)
                   : stream::load_steer_trace(steer.trace_path, &err);
  if (!trace) throw std::runtime_error("steering trace: " + err);
  for (const auto& ev : *trace) {
    if (ev.msg.kind == stream::SteerKind::kScrub)
      throw std::runtime_error(
          "steering: scrub edits are serve-loop only — dataset steps and "
          "solver snapshots are rendered in order");
  }
  steer_trace = stream::number_steer_trace(std::move(*trace));
}

stream::SteeringState ViewSchedule::steer_view(int step) const {
  stream::SteeringState base;
  base.value_lo = options.value_lo;
  base.value_hi = options.value_hi;
  return stream::fold_steer_trace(steer_trace, step, base);
}

render::Camera ViewSchedule::camera(int step) const {
  float az = orbit_deg_per_step * float(step);
  if (steering) az += steer_view(step).azimuth_deg;
  return render::Camera::orbit(domain, width, height, az);
}

int ViewSchedule::epoch_of(int step) const {
  if (steering) return int(steer_view(step).epoch);
  return rebalance_every > 0 ? step / rebalance_every : 0;
}

void RenderAssignment::rebuild(const mesh::HexMesh& mesh,
                               std::span<const octree::Block> blocks,
                               const io::BlockNodeIndex& index, int my_rank,
                               std::vector<int> new_owners) {
  owners = std::move(new_owners);
  owned.clear();
  local_of.clear();
  rblocks.clear();  // free the old blocks before building the new
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (owners[b] == my_rank) {
      local_of[int(b)] = owned.size();
      owned.push_back(b);
    }
  }
  rblocks = render::build_render_blocks(mesh, blocks, index, owned);
  block_values.assign(owned.size(), {});
  for (std::size_t i = 0; i < owned.size(); ++i)
    block_values[i].resize(rblocks[i].local_node_count());
}

RenderStage::RenderStage(const ViewSchedule& view,
                         const render::TransferFunction& tf,
                         const Box3& domain,
                         std::span<const octree::Block> blocks, int threads,
                         const CompositeMode& composite, vmpi::Comm& world,
                         vmpi::Comm& render_comm)
    : view_(view), tf_(tf), domain_(domain), blocks_(blocks),
      composite_(composite), world_(world), render_comm_(render_comm),
      rc_(tf, view.options, domain.extent().x), camera_(view.camera(0)),
      pool_(std::max(1, threads), [rr = render_comm.rank()](int w) {
        if (!trace::enabled()) return;
        char name[32];
        std::snprintf(name, sizeof(name), "render %d.w%d", rr, w);
        trace::set_thread(1000 + rr * 64 + w, name);
      }) {}

void RenderStage::refresh_view(int step) {
  // The camera is placed on the first step, then moves every step of an
  // orbit and with every steering edit; a steering epoch also rebuilds the
  // raycaster on the edited value window.
  bool moved = rank_of_.empty() || view_.orbit_deg_per_step != 0.0f;
  if (view_.steering && view_.epoch_of(step) != steer_epoch_) {
    const stream::SteeringState v = view_.steer_view(step);
    render::RenderOptions opt = view_.options;
    opt.value_lo = v.value_lo;
    opt.value_hi = v.value_hi;
    rc_ = render::Raycaster(tf_, opt, domain_.extent().x);
    steer_epoch_ = int(v.epoch);
    moved = true;
  }
  if (!moved) return;
  camera_ = view_.camera(step);
  const auto order = render::visibility_order(blocks_, domain_, camera_.eye());
  rank_of_.resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    rank_of_[order[i]] = std::uint32_t(i);
}

std::span<const double> RenderStage::run(int step, RenderAssignment& assign,
                                         bool degraded, bool block_seconds) {
  static metrics::Counter& render_ns = metrics::counter("pipeline.render_ns");
  static metrics::Counter& composite_ns =
      metrics::counter("pipeline.composite_ns");
  refresh_view(step);
  const std::size_t n = assign.owned.size();
  const auto epoch = std::uint32_t(view_.epoch_of(step));
  std::vector<render::PartialImage> partials;
  {
    obs::Stage render({.cat = "pipeline", .name = "render", .step = step,
                       .ns = &render_ns,
                       .lineage = obs::lineage::Stage::kRender,
                       .epoch = epoch, .channel = world_.rank()});
    std::vector<std::uint32_t> orders(n);
    block_s_.assign(block_seconds ? n : 0, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      WallTimer bt;
      assign.rblocks[i].set_values(assign.block_values[i]);
      orders[i] = rank_of_[assign.owned[i]];
      if (block_seconds) block_s_[i] = bt.seconds();
    }
    partials = render::render_blocks(
        camera_, rc_, assign.rblocks, orders, &pool_, render::kRenderTile,
        nullptr, block_seconds ? block_s_.data() : nullptr);
  }

  compositing::CompositeResult comp;
  {
    obs::Stage composite({.cat = "pipeline", .name = "composite", .step = step,
                          .ns = &composite_ns,
                          .lineage = obs::lineage::Stage::kComposite,
                          .epoch = epoch, .channel = world_.rank()});
    const int w = view_.width, h = view_.height;
    const bool c = composite_.compress;
    if (composite_.algo == Compositor::kSlic) {
      comp = compositing::slic(render_comm_, partials, w, h, c, 0);
    } else if (composite_.algo == Compositor::kDirectSend) {
      comp = compositing::direct_send(render_comm_, partials, w, h, c, 0);
    } else {
      comp = compositing::radix_k(render_comm_, partials, w, h, composite_.k,
                                  c, 0);
    }
  }

  if (render_comm_.rank() == 0) {
    world_.isend(world_.size() - 1, tag_frame(step),
                 make_frame_msg(step, degraded, comp.image.pixels()));
  }
  return block_s_;
}

}  // namespace qv::core
