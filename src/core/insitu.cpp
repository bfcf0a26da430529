#include "core/insitu.hpp"

#include <cstring>
#include <mutex>
#include <stdexcept>

#include "core/block_msg.hpp"
#include "core/frame_msg.hpp"
#include "core/output_stage.hpp"
#include "core/render_stage.hpp"
#include "trace/trace.hpp"
#include "io/block_index.hpp"
#include "io/preprocess.hpp"
#include "quake/parallel_solver.hpp"
#include "util/stats.hpp"
#include "vmpi/comm.hpp"

namespace qv::core {

namespace {

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
  // Snapshots take the role of steps; there is no rebalancing.
  ViewSchedule view;

  explicit Setup(const InsituConfig& cfg)
      : mesh(build_insitu_mesh(cfg)),
        tf(cfg.colormap == Colormap::kSeismic
               ? render::TransferFunction::seismic()
               : render::TransferFunction::grayscale()),
        view(mesh.domain(), cfg.width, cfg.height, cfg.orbit_deg_per_step,
             cfg.render, cfg.steer, cfg.snapshots, /*rebalance_every=*/0) {
    blocks = octree::decompose(mesh.octree(), cfg.block_level);
    octree::estimate_workloads(mesh.octree(), blocks,
                               octree::WorkloadModel::kCellCount);
    owners = octree::assign_blocks(blocks, cfg.render_procs, cfg.assign);
    index = io::BlockNodeIndex(mesh, blocks);
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
  const std::vector<BlockMsgSpec> msgs = per_block_msgs(st.index, st.owners);

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
    send_block_msgs(world, cfg.sim_procs, snap, q, msgs, false, nullptr,
                    nullptr);
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
  RenderAssignment assign;
  assign.rebuild(st.mesh, st.blocks, st.index, render_comm.rank(), st.owners);
  RenderStage stage(st.view, st.tf, st.mesh.domain(), st.blocks,
                    cfg.render_threads,
                    {.algo = Compositor::kSlic, .compress = false}, world,
                    render_comm);

  std::vector<std::uint8_t> msg, scratch;
  for (int snap = 0; snap < cfg.snapshots; ++snap) {
    for (std::size_t k = 0; k < assign.owned.size(); ++k) {
      {
        trace::Span wait_span("pipeline", "wait_blocks", snap);
        world.recv(vmpi::kAnySource, tag_block(snap), msg);
      }
      // No fault layer runs here, so a bad message is a bug, not a loss.
      const auto hdr = read_header(msg);
      if (!hdr || !payload_ok(*hdr, msg))
        throw std::runtime_error("insitu: bad block message");
      unpack_block(*hdr, msg, scratch,
                   assign.block_values[assign.local_of.at(hdr->block)]);
    }
    stage.run(snap, assign, /*degraded=*/false, /*block_seconds=*/false);
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
    out.emit(scope, std::uint32_t(st.view.epoch_of(snap)), frame);
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
    label_rank_thread(r, config.sim_procs, config.render_procs, "sim");
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
