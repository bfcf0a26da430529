#include "core/insitu.hpp"

#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>

#include "compositing/slic.hpp"
#include "core/frame_msg.hpp"
#include "core/output_stage.hpp"
#include "trace/trace.hpp"
#include "io/block_index.hpp"
#include "io/preprocess.hpp"
#include "obs/lineage.hpp"
#include "quake/parallel_solver.hpp"
#include "render/order.hpp"
#include "render/raycast.hpp"
#include "util/stats.hpp"
#include "vmpi/comm.hpp"

namespace qv::core {

namespace {

int tag_block(int snap) { return snap * 8 + 0; }
int tag_frame(int snap) { return snap * 8 + 1; }

struct SnapHeader {
  std::int32_t snapshot;
  std::int32_t block;
  float lo, hi;
  float sim_time;
  std::uint32_t count;
};

struct Shared {
  const InsituConfig& cfg;
  std::vector<img::Image>* frames_out;
  InsituReport report;
  std::mutex mu;
};

// Deterministic decomposition shared by every role.
struct Setup {
  mesh::HexMesh mesh;
  std::vector<octree::Block> blocks;
  std::vector<int> owners;
  io::BlockNodeIndex index;
  render::TransferFunction tf;

  // Numbered steering trace (empty unless cfg.steer.enabled); identical on
  // every rank, so all roles agree on the view-at-snapshot fold.
  std::vector<stream::SteerEvent> steer_trace;

  explicit Setup(const InsituConfig& cfg)
      : mesh(build_insitu_mesh(cfg)),
        tf(cfg.colormap == Colormap::kSeismic
               ? render::TransferFunction::seismic()
               : render::TransferFunction::grayscale()) {
    blocks = octree::decompose(mesh.octree(), cfg.block_level);
    octree::estimate_workloads(mesh.octree(), blocks,
                               octree::WorkloadModel::kCellCount);
    owners = octree::assign_blocks(blocks, cfg.render_procs, cfg.assign);
    index = io::BlockNodeIndex(mesh, blocks);
    if (cfg.steer.enabled) {
      std::vector<stream::SteerEvent> trace;
      if (!cfg.steer.trace_path.empty()) {
        std::string err;
        auto loaded = stream::load_steer_trace(cfg.steer.trace_path, &err);
        if (!loaded) throw std::runtime_error("insitu: steering trace: " + err);
        trace = std::move(*loaded);
      } else {
        trace = stream::make_steer_trace(cfg.steer.seed, cfg.snapshots,
                                         cfg.steer.edits);
      }
      for (const auto& ev : trace) {
        if (ev.msg.kind == stream::SteerKind::kScrub)
          throw std::runtime_error(
              "insitu: scrub edits are serve-loop only — the solver's "
              "snapshots arrive in simulation order");
      }
      steer_trace = stream::number_steer_trace(std::move(trace));
    }
  }

  stream::SteeringState steer_view(const InsituConfig& cfg, int snap) const {
    stream::SteeringState base;
    base.value_lo = cfg.render.value_lo;
    base.value_hi = cfg.render.value_hi;
    return stream::fold_steer_trace(steer_trace, snap, base);
  }
  std::uint32_t epoch_of(const InsituConfig& cfg, int snap) const {
    return cfg.steer.enabled ? steer_view(cfg, snap).epoch : 0;
  }

  render::Camera camera(const InsituConfig& cfg, int snap) const {
    float az = cfg.orbit_deg_per_step * float(snap);
    if (cfg.steer.enabled) az += steer_view(cfg, snap).azimuth_deg;
    return render::Camera::orbit(mesh.domain(), cfg.width, cfg.height, az);
  }
};

void run_sim(Shared& sh, const Setup& st, vmpi::Comm& world,
             vmpi::Comm& sim_comm) {
  const InsituConfig& cfg = sh.cfg;
  // The simulation itself runs distributed across the sim group (the
  // element work is partitioned; one force reduction per step), mirroring
  // the paper's simulation side running on its own processor set.
  quake::ParallelWaveSolver solver(st.mesh, cfg.basin.field(), cfg.solver,
                                   sim_comm);
  solver.add_source(cfg.source);
  const bool streamer = sim_comm.rank() == 0;

  double sim_seconds = 0.0;
  double sim_time = 0.0;
  for (int snap = 0; snap < cfg.snapshots; ++snap) {
    WallTimer t;
    {
      trace::Span sim_span("pipeline", "sim_step", snap);
      for (int k = 0; k < cfg.steps_per_snapshot; ++k) solver.step();
    }
    sim_seconds += t.seconds();
    sim_time = solver.time();

    if (!streamer) continue;  // only the sim group's root streams
    // Preprocess and stream the snapshot to the renderers (monitoring taps
    // straight off the solver's state — no file system in the path).
    trace::Span stream_span("pipeline", "send_blocks", snap);
    auto vel = solver.velocity_interleaved();
    auto scalar = io::derive_scalar(vel, 3, cfg.variable);
    auto q = io::quantize(scalar, cfg.render.value_lo, cfg.render.value_hi);
    std::vector<std::uint8_t> msg;
    for (std::size_t b = 0; b < st.blocks.size(); ++b) {
      auto nodes = st.index.block_nodes(b);
      msg.resize(sizeof(SnapHeader) + nodes.size());
      SnapHeader hdr{snap,          std::int32_t(b), q.lo, q.hi,
                     float(solver.time()), std::uint32_t(nodes.size())};
      std::memcpy(msg.data(), &hdr, sizeof(hdr));
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        msg[sizeof(hdr) + i] = q.values[nodes[i]];
      }
      world.isend(cfg.sim_procs + st.owners[b], tag_block(snap), msg);
    }
  }
  if (streamer) {
    std::lock_guard lk(sh.mu);
    sh.report.sim_seconds = sim_seconds;
    sh.report.sim_time_reached = sim_time;
  }
}

void run_render(Shared& sh, const Setup& st, vmpi::Comm& world,
                vmpi::Comm& render_comm) {
  const InsituConfig& cfg = sh.cfg;
  const int rr = render_comm.rank();
  const int out_rank = cfg.sim_procs + cfg.render_procs;

  std::vector<std::size_t> owned;
  std::map<int, std::size_t> local_of;
  for (std::size_t b = 0; b < st.blocks.size(); ++b) {
    if (st.owners[b] == rr) {
      local_of[int(b)] = owned.size();
      owned.push_back(b);
    }
  }
  std::vector<render::RenderBlock> rblocks;
  std::vector<std::vector<float>> values(owned.size());
  for (std::size_t i = 0; i < owned.size(); ++i) {
    rblocks.emplace_back(st.mesh, st.blocks[owned[i]],
                         st.index.block_nodes(owned[i]));
    values[i].resize(st.index.block_nodes(owned[i]).size());
  }

  render::Raycaster rc(st.tf, cfg.render, st.mesh.domain().extent().x);
  // Steering: a folded TF edit rebuilds the raycaster (the camera is
  // already refreshed per snapshot below).
  std::uint32_t steer_epoch = 0;
  util::ThreadPool render_pool(
      std::max(1, cfg.render_threads), [rr](int w) {
        if (!trace::enabled()) return;
        char tname[32];
        std::snprintf(tname, sizeof(tname), "render %d.w%d", rr, w);
        trace::set_thread(1000 + rr * 64 + w, tname);
      });
  std::vector<std::uint32_t> rank_of(st.blocks.size());

  for (int snap = 0; snap < cfg.snapshots; ++snap) {
    for (std::size_t k = 0; k < owned.size(); ++k) {
      std::vector<std::uint8_t> msg;
      {
        trace::Span wait_span("pipeline", "wait_blocks", snap);
        world.recv(vmpi::kAnySource, tag_block(snap), msg);
      }
      SnapHeader hdr;
      std::memcpy(&hdr, msg.data(), sizeof(hdr));
      std::size_t li = local_of.at(hdr.block);
      if (values[li].size() != hdr.count)
        throw std::runtime_error("insitu: block message size mismatch");
      const float scale = (hdr.hi - hdr.lo) / 255.0f;
      for (std::size_t i = 0; i < hdr.count; ++i) {
        values[li][i] = hdr.lo + scale * float(msg[sizeof(hdr) + i]);
      }
    }

    if (cfg.steer.enabled &&
        st.epoch_of(cfg, snap) != steer_epoch) {
      const stream::SteeringState v = st.steer_view(cfg, snap);
      render::RenderOptions opt = cfg.render;
      opt.value_lo = v.value_lo;
      opt.value_hi = v.value_hi;
      rc = render::Raycaster(st.tf, opt, st.mesh.domain().extent().x);
      steer_epoch = v.epoch;
    }
    render::Camera camera = st.camera(cfg, snap);
    auto order = render::visibility_order(st.blocks, st.mesh.domain(),
                                          camera.eye());
    for (std::size_t i = 0; i < order.size(); ++i)
      rank_of[order[i]] = std::uint32_t(i);

    std::vector<render::PartialImage> partials;
    // The view epoch: 0 forever unless steering folds edits in.
    const std::int64_t render_t0 =
        obs::lineage::enabled() ? trace::now_since_epoch_ns() : 0;
    {
      trace::Span render_span("pipeline", "render", snap);
      std::vector<std::uint32_t> orders(owned.size());
      for (std::size_t i = 0; i < owned.size(); ++i) {
        rblocks[i].set_values(values[i]);
        orders[i] = rank_of[owned[i]];
      }
      partials = render::render_blocks(camera, rc, rblocks, orders,
                                       &render_pool);
    }
    if (obs::lineage::enabled()) {
      obs::lineage::record_wall(
          obs::lineage::Stage::kRender, snap, st.epoch_of(cfg, snap),
          obs::lineage::ChannelKind::kRank, world.rank(),
          double(trace::now_since_epoch_ns() - render_t0) * 1e-9);
    }
    compositing::CompositeResult comp;
    const std::int64_t comp_t0 =
        obs::lineage::enabled() ? trace::now_since_epoch_ns() : 0;
    {
      trace::Span composite_span("pipeline", "composite", snap);
      comp = compositing::slic(render_comm, partials, cfg.width,
                               cfg.height, false, 0);
    }
    if (obs::lineage::enabled()) {
      obs::lineage::record_wall(
          obs::lineage::Stage::kComposite, snap, st.epoch_of(cfg, snap),
          obs::lineage::ChannelKind::kRank, world.rank(),
          double(trace::now_since_epoch_ns() - comp_t0) * 1e-9);
    }
    if (rr == 0) {
      world.isend(out_rank, tag_frame(snap),
                  make_frame_msg(snap, false, comp.image.pixels()));
    }
  }
}

void run_output(Shared& sh, const Setup& st, vmpi::Comm& world) {
  const InsituConfig& cfg = sh.cfg;
  OutputStage out(cfg.width, cfg.height, cfg.output_dir, cfg.serve,
                  cfg.steer.enabled, world.rank());
  for (int snap = 0; snap < cfg.snapshots; ++snap) {
    std::vector<std::uint8_t> msg;
    {
      trace::Span wait_span("pipeline", "wait_frame", snap);
      world.recv(vmpi::kAnySource, tag_frame(snap), msg);
    }
    const OutputStage::Frame scope(snap);
    img::Image frame(cfg.width, cfg.height);
    auto view = parse_frame_msg(msg, frame.pixels().size());
    if (!view) throw std::runtime_error("insitu: bad frame message");
    std::memcpy(frame.pixels().data(), view->pixels.data(),
                view->pixels.size_bytes());
    out.emit(scope, st.epoch_of(cfg, snap), frame);
    if (sh.frames_out) sh.frames_out->push_back(std::move(frame));
  }
  std::lock_guard lk(sh.mu);
  sh.report.frame_seconds = out.frame_seconds();
  sh.report.snapshots = cfg.snapshots;
  sh.report.server = out.finish();
}

}  // namespace

mesh::HexMesh build_insitu_mesh(const InsituConfig& config) {
  auto tree = mesh::LinearOctree::build(
      config.domain,
      config.basin.size_field(config.mesh_max_freq_hz,
                              config.mesh_points_per_wavelength),
      config.mesh_min_level, config.mesh_max_level);
  return mesh::HexMesh(std::move(tree));
}

InsituReport run_insitu(const InsituConfig& config,
                        std::vector<img::Image>* frames_out) {
  if (config.render_procs < 1 || config.snapshots < 1 ||
      config.sim_procs < 1)
    throw std::runtime_error("insitu: bad configuration");
  Shared sh{config, frames_out, {}, {}};

  vmpi::Runtime::run(config.world_size(), [&sh, &config](vmpi::Comm& world) {
    Setup st(config);
    const int r = world.rank();
    const int role = r < config.sim_procs
                         ? 0
                         : (r < config.sim_procs + config.render_procs ? 1 : 2);
    if (trace::enabled()) {
      char tname[32];
      if (role == 0)
        std::snprintf(tname, sizeof(tname), "sim %d", r);
      else if (role == 1)
        std::snprintf(tname, sizeof(tname), "render %d", r - config.sim_procs);
      else
        std::snprintf(tname, sizeof(tname), "output");
      trace::set_thread(r, tname);
    }
    vmpi::Comm sub = world.split(role, r);
    world.barrier();
    switch (role) {
      case 0:
        run_sim(sh, st, world, sub);
        break;
      case 1:
        run_render(sh, st, world, sub);
        break;
      default:
        run_output(sh, st, world);
        break;
    }
  });
  return sh.report;
}

}  // namespace qv::core
