#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/block_msg.hpp"
#include "core/frame_msg.hpp"
#include "core/ground_overlay.hpp"
#include "core/insitu.hpp"
#include "core/output_stage.hpp"
#include "core/render_stage.hpp"
#include "img/image.hpp"
#include "io/block_index.hpp"
#include "io/dataset.hpp"
#include "io/preprocess.hpp"
#include "lic/lic.hpp"
#include "metrics/metrics.hpp"
#include "obs/stage.hpp"
#include "quake/parallel_solver.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/file.hpp"

namespace qv::core {

namespace {

// Per-step tags beyond block_msg.hpp's blocks (kind 0) and frames (kind 1):
// LIC textures, and epoch-indexed block assignments under the same scheme.
int tag_lic(int step) { return step * 8 + 2; }
int tag_assign(int epoch) { return epoch * 8 + 3; }
constexpr int kTagNack = 4;  // renderer -> input: resend a corrupt payload
constexpr int kTagDone = 5;  // renderer -> input: no more NACKs will come

// Re-requests per renderer per step before giving up on fresh data. Bounds
// the worst case (every resend corrupted again) instead of looping forever.
constexpr int kMaxNacksPerStep = 4;

// Renderer -> input (kTagNack): please resend.
struct NackMsg {
  std::int32_t step;
  std::int32_t id;  // the NACKed message's header id
};

// What the rank threads share (joined before run_ranks returns). Every
// event count and stage time is a metrics registry counter instead.
struct Shared {
  const PipelineConfig& config;
  std::vector<img::Image>* frames_out = nullptr;
  PipelineReport report{};
  std::mutex mu{};
};

// The registry counters this file adds to as events happen and stages
// close. run_ranks fills PipelineReport from their change over the run.
struct PipeCounters {
  metrics::Counter& block_bytes_raw = metrics::counter("pipeline.block_bytes_raw");
  metrics::Counter& block_bytes_sent = metrics::counter("pipeline.block_bytes_sent");
  // Attempted counts every step whose fetch started; completed only those
  // that went on through preprocess+send. They differ under fetch faults.
  metrics::Counter& input_attempted = metrics::counter("pipeline.input_steps_attempted");
  metrics::Counter& input_completed = metrics::counter("pipeline.input_steps_completed");
  metrics::Counter& render_steps = metrics::counter("pipeline.render_steps");
  metrics::Counter& crc_failures = metrics::counter("pipeline.crc_failures");
  metrics::Counter& resends = metrics::counter("pipeline.resends");
  metrics::Counter& dropped_steps = metrics::counter("pipeline.dropped_steps");
  metrics::Counter& degraded_frames = metrics::counter("pipeline.degraded_frames");
  metrics::Counter& fetch_ns = metrics::counter("pipeline.fetch_ns");
  metrics::Counter& preprocess_ns = metrics::counter("pipeline.preprocess_ns");
  metrics::Counter& send_ns = metrics::counter("pipeline.send_ns");
};

PipeCounters& pipe_counters() {
  static PipeCounters pc;
  return pc;
}

// What the render and output roles read, built identically on every rank
// from a mesh that never changes: the "one-time preprocessing" of §4
// (decomposition, workload estimate, block -> renderer assignment, block
// node lists), the transfer function and the view at every step.
struct Scene {
  const mesh::HexMesh& mesh;
  std::vector<octree::Block> blocks;
  std::vector<int> owners;  // initial block -> render proc assignment
  io::BlockNodeIndex index;
  render::TransferFunction tf;
  int num_steps;
  ViewSchedule view;

  Scene(const PipelineConfig& cfg, const mesh::HexMesh& m, const Box3& domain,
        int steps)
      : mesh(m),
        tf(!cfg.tf_file.empty()
               ? render::TransferFunction::from_file(cfg.tf_file)
               : (cfg.colormap == Colormap::kSeismic
                      ? render::TransferFunction::seismic()
                      : render::TransferFunction::grayscale())),
        num_steps(steps),
        view(domain, cfg.width, cfg.height, cfg.orbit_deg_per_step, cfg.render,
             cfg.steer, steps, cfg.rebalance_every) {
    blocks = octree::decompose(mesh.octree(), cfg.block_level);
    octree::estimate_workloads(mesh.octree(), blocks,
                               octree::WorkloadModel::kCellCount);
    owners = octree::assign_blocks(blocks, cfg.render_procs, cfg.assign);
    index = io::BlockNodeIndex(mesh, blocks);
  }
};

// The batch pipeline's data source: the dataset and the level read from it.
// Only the input role reads it.
struct DatasetSource {
  const PipelineConfig& cfg;
  io::DatasetReader reader;
  int level;

  explicit DatasetSource(const PipelineConfig& config)
      : cfg(config),
        reader(config.dataset_dir),
        level(config.adaptive_level < 0 ? reader.meta().finest_level
                                        : config.adaptive_level) {}

  int num_steps() const {
    return cfg.num_steps < 0 ? reader.meta().num_steps
                             : std::min(cfg.num_steps, reader.meta().num_steps);
  }
  std::uint64_t level_offset() const { return reader.level_offset_bytes(level); }
  std::size_t comps() const { return std::size_t(reader.meta().components); }
};

// ---------------------------------------------------------------------------
// Input processors
// ---------------------------------------------------------------------------

// The node records of one step, plus its neighbours' when enhancing: the
// inputs of the §4.2 temporal enhancement.
struct StepWindow {
  std::vector<float> cur, prev, next;
};

// Read `step`, then s-1 and s+1 when enhancing, each with `read(step)`.
// The first read that fails throws and leaves the rest unread.
template <typename Read>
StepWindow read_window(const DatasetSource& src, int step, Read&& read) {
  StepWindow w;
  w.cur = read(step);
  if (src.cfg.enhancement) {
    if (step > 0) w.prev = read(step - 1);
    if (step + 1 < src.reader.meta().num_steps) w.next = read(step + 1);
  }
  return w;
}

// Scalar derivation from interleaved records, with optional temporal
// enhancement from neighbor-step buffers.
std::vector<float> make_scalar(const DatasetSource& src, const StepWindow& w) {
  const PipelineConfig& cfg = src.cfg;
  const int comps = src.reader.meta().components;
  auto scalar = io::derive_scalar(w.cur, comps, cfg.variable);
  if (!cfg.enhancement) return scalar;
  std::vector<float> pm, nm;
  if (!w.prev.empty()) pm = io::derive_scalar(w.prev, comps, cfg.variable);
  if (!w.next.empty()) nm = io::derive_scalar(w.next, comps, cfg.variable);
  return io::temporal_enhance(scalar, pm, nm, cfg.enhancement_gain);
}

void input_lic(vmpi::Comm& world, const PipelineConfig& cfg,
               const mesh::HexMesh& mesh, int step,
               std::span<const float> interleaved,
               std::optional<lic::Quadtree>& qt) {
  auto field = lic::extract_surface_field(mesh, interleaved);
  if (!qt) qt.emplace(field.positions);
  int res = cfg.lic_resolution;
  auto grid = lic::resample(field, *qt, res, res);
  auto noise = lic::make_noise(res, res, 0xABCD1234u);
  lic::LicOptions lopt;
  lopt.periodic_kernel = true;
  lopt.phase = float(step % 8) / 8.0f;
  auto gray = lic::compute_lic(grid, noise, res, res, lopt);
  int out_rank = cfg.total_input_procs() + cfg.render_procs;
  world.isend(out_rank, tag_lic(step),
              {reinterpret_cast<const std::uint8_t*>(gray.data()),
               gray.size() * sizeof(float)});
}

// Control-plane listener of a data-source rank. Everything an input or sim
// rank ever receives funnels through here: epoch assignments, NACK resend
// requests, and the end-of-run DONE markers from the renderers.
// Centralizing the dispatch is what keeps NACK servicing deadlock-free: a
// source blocked waiting for an assignment (or for the renderers to finish)
// keeps servicing resend requests from renderers that may themselves be
// blocked waiting on it.
struct InputControl {
  vmpi::Comm& world;
  // Regenerate and resend the message a renderer NACKed. Must not throw: a
  // failed regeneration is answered with a skip marker instead.
  std::function<void(int step, int id, int requester)> service_nack;
  std::map<int, std::vector<int>> assignments{};  // epoch -> owners
  int done_count = 0;

  // Handle one message; without `block`, only one already queued (false
  // when there was none).
  bool dispatch_one(bool block = true) {
    std::vector<std::uint8_t> buf;
    vmpi::Status st;
    if (block) {
      st = world.recv(vmpi::kAnySource, vmpi::kAnyTag, buf);
    } else if (!world.try_recv(vmpi::kAnySource, vmpi::kAnyTag, buf, &st)) {
      return false;
    }
    if (st.tag == kTagNack) {
      NackMsg nack;
      if (buf.size() != sizeof(nack))
        throw std::runtime_error("pipeline: malformed NACK message");
      std::memcpy(&nack, buf.data(), sizeof(nack));
      service_nack(nack.step, nack.id, st.source);
      // Counted as it happens, so a mid-run kill keeps whatever was
      // already serviced.
      pipe_counters().resends.add();
    } else if (st.tag == kTagDone) {
      ++done_count;
    } else if (st.tag >= 0 && st.tag % 8 == 3) {
      std::vector<int> owners(buf.size() / sizeof(int));
      std::memcpy(owners.data(), buf.data(), owners.size() * sizeof(int));
      assignments[st.tag / 8] = std::move(owners);
    } else {
      throw std::runtime_error("pipeline: unexpected input-rank message, tag=" +
                               std::to_string(st.tag));
    }
    return true;
  }

  // Service whatever has already arrived, without waiting for more.
  void poll() {
    while (dispatch_one(/*block=*/false)) {
    }
  }

  std::vector<int> await_assignment(int epoch) {
    while (!assignments.count(epoch)) dispatch_one();
    std::vector<int> owners = std::move(assignments[epoch]);
    assignments.erase(epoch);
    return owners;
  }

  // Stay on the control plane until every renderer has declared it is done;
  // exiting earlier could strand a renderer waiting for a resend forever.
  void drain_until_done(int render_procs) {
    while (done_count < render_procs) dispatch_one();
  }
};

// How an input rank reads a step's node records: nodes [first, first +
// count) of the level by one independent read (1DIP: the whole level;
// 2DIP-independent: the member's contiguous slice), or, with `group` set,
// the collective indexed view of `nodes` on the group communicator
// (2DIP-collective), planned once and shared by every step's file. Either
// way the records come back interleaved, in the order of the rank's node
// array. Transient-retry accounting happens inside vmpi::File (io.retries
// counts each retry as it fires), so a throw loses nothing.
struct StepReader {
  vmpi::Comm* group = nullptr;
  std::uint64_t first = 0, count = 0;
  std::vector<mesh::NodeId> nodes;
  std::shared_ptr<const vmpi::ViewPlan> view;

  std::vector<float> read(vmpi::Comm& world, const DatasetSource& src,
                          int step) const {
    vmpi::File f(group ? *group : world, src.reader.step_path(step));
    f.set_retry_policy(src.cfg.io_retry);
    std::vector<float> data((group ? nodes.size() : count) * src.comps());
    const std::span out(reinterpret_cast<std::uint8_t*>(data.data()),
                        data.size() * sizeof(float));
    if (group) {
      f.set_view(view);
      f.read_all(out);
    } else {
      f.read_at(src.level_offset() + first * src.comps() * sizeof(float), out);
    }
    return data;
  }

  // The records at `positions` of the node array, for a NACK resend. A
  // resend must never enter a collective (the rest of the group is not
  // listening), so the collective reader re-reads those nodes one by one.
  std::vector<float> reread(vmpi::Comm& world, const DatasetSource& src,
                            int step,
                            std::span<const std::uint32_t> positions) const {
    const std::size_t comps = src.comps();
    std::vector<float> out(positions.size() * comps);
    if (!group) {
      const std::vector<float> all = read(world, src, step);
      for (std::size_t i = 0; i < positions.size(); ++i)
        std::copy_n(&all[positions[i] * comps], comps, &out[i * comps]);
      return out;
    }
    vmpi::File f(world, src.reader.step_path(step));
    f.set_retry_policy(src.cfg.io_retry);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      f.read_at(src.level_offset() +
                    std::uint64_t(nodes[positions[i]]) * comps * sizeof(float),
                {reinterpret_cast<std::uint8_t*>(&out[i * comps]),
                 comps * sizeof(float)});
    }
    return out;
  }
};

// What an input rank reads of each step and the ordered messages it ships
// from it. Built once from the static mesh, and again when a rebalance
// epoch moves the block owners.
struct InputPlan {
  StepReader reader;
  std::vector<BlockMsgSpec> msgs;
  std::set<int> serves;  // renderers with a message
  // Header id of this rank's skip markers: -1 when one sender serves a
  // renderer's whole step; under 2DIP-independent the member's id, since
  // its marker stands for its share only.
  std::int32_t skip_id = -1;
};

// `group` spans this rank's 2DIP group; null under 1DIP.
InputPlan make_input_plan(const DatasetSource& src, const Scene& scene,
                          vmpi::Comm* group, std::span<const int> owners) {
  const PipelineConfig& cfg = src.cfg;
  InputPlan p;
  switch (cfg.strategy) {
    case IoStrategy::kOneDip:
      p.reader.count = scene.mesh.node_count();
      p.msgs = per_block_msgs(scene.index, owners);
      break;
    case IoStrategy::kTwoDipCollective: {
      // This member serves render procs {r : r % m == mi}; its view is their
      // blocks' merged node list, which every block's positions index.
      std::vector<std::size_t> mine;
      for (std::size_t b = 0; b < scene.blocks.size(); ++b)
        if (owners[b] % cfg.input_procs == group->rank()) mine.push_back(b);
      StepReader& rd = p.reader;
      rd.group = group;
      rd.nodes = io::merged_nodes(scene.index, mine);
      vmpi::IndexedBlockView view;
      view.elem_bytes = src.comps() * sizeof(float);
      const std::uint64_t base_elems = src.level_offset() / view.elem_bytes;
      view.block_offsets.reserve(rd.nodes.size());
      for (auto nid : rd.nodes) view.block_offsets.push_back(base_elems + nid);
      rd.view = std::make_shared<const vmpi::ViewPlan>(view);
      auto positions = io::merged_positions(scene.index, mine, rd.nodes);
      for (std::size_t i = 0; i < mine.size(); ++i)
        p.msgs.push_back({owners[mine[i]], std::int32_t(mine[i]),
                          std::move(positions[i])});
      break;
    }
    case IoStrategy::kTwoDipIndependent: {
      // One message to every renderer: its share of this member's slice, in
      // forward-map order (grouped by block ascending, then block position).
      const std::int32_t mi = group->rank();
      auto [lo, hi] =
          io::slice_bounds(scene.mesh.node_count(), mi, cfg.input_procs);
      p.reader.first = lo;
      p.reader.count = hi - lo;
      p.skip_id = mi;
      for (int r = 0; r < cfg.render_procs; ++r) p.msgs.emplace_back(r, mi);
      for (const auto& e : io::build_forward_map(scene.index, lo, hi))
        p.msgs[std::size_t(owners[e.block])].positions.push_back(e.slice_pos);
      break;
    }
  }
  for (const BlockMsgSpec& m : p.msgs) p.serves.insert(m.renderer);
  return p;
}

// One input rank, under every I/O strategy: 1DIP rank r serves steps
// r, r+m, ...; every member of 2DIP group g serves steps g, g+n, ... Each
// step is fetched, preprocessed and shipped as the rank's plan says.
// `sources` is the rank's 2DIP group; 1DIP ranks read alone and ignore it.
void run_input(Shared& sh, const DatasetSource& src, const Scene& scene,
               vmpi::Comm& world, vmpi::Comm& sources) {
  const PipelineConfig& cfg = sh.config;
  const int I = cfg.total_input_procs();
  const int rank = world.rank();
  const bool one_dip = cfg.strategy == IoStrategy::kOneDip;
  const int stride = one_dip ? cfg.input_procs : cfg.groups;
  vmpi::Comm* group = one_dip ? nullptr : &sources;
  trace::Span plan_span("setup", "input_plan");
  InputPlan plan = make_input_plan(src, scene, group, scene.owners);
  plan_span.stop();
  int cur_epoch = 0;
  std::optional<lic::Quadtree> qt;
  PipeCounters& pc = pipe_counters();
  // Quantization range of every step this rank shipped: NACK regeneration
  // must reuse it to be bit-identical when the range was auto-derived.
  std::map<int, std::pair<float, float>> sent_range;

  // One regenerator answers every NACK: it finds the NACKed message in the
  // plan and rebuilds it from a fresh read, or sends a skip marker.
  auto regenerate = [&](int rs, int id, int requester) {
    auto m = std::find_if(plan.msgs.begin(), plan.msgs.end(), [&](auto& x) {
      return x.renderer == requester - I && x.id == id;
    });
    auto range = sent_range.find(rs);
    std::vector<std::uint8_t> msg;
    if (m != plan.msgs.end() && range != sent_range.end()) {
      try {
        auto w = read_window(src, rs, [&](int step) {
          return plan.reader.reread(world, src, step, m->positions);
        });
        auto q = io::quantize(make_scalar(src, w), range->second.first,
                              range->second.second);
        msg = make_block_msg(rs, m->id, q.lo, q.hi, q.values,
                             cfg.compress_blocks, nullptr, nullptr);
      } catch (const vmpi::IoError&) {
        // The data is gone for good; the renderer keeps its stale copy.
      }
    }
    if (msg.empty()) msg = make_skip_block_msg(rs, plan.skip_id);
    world.isend(requester, tag_block(rs), msg);
  };
  InputControl ctl{world, regenerate};

  for (int s = one_dip ? rank : rank / cfg.input_procs; s < scene.num_steps;
       s += stride) {
    world.fault_checkpoint(s);
    // Dynamic redistribution: pick up the assignment of this step's epoch
    // (the render group publishes one per epoch boundary). Rebalance epochs
    // only — steering epochs never reassign blocks.
    while (cfg.rebalance_every > 0 && scene.view.epoch_of(s) > cur_epoch) {
      ++cur_epoch;
      plan = make_input_plan(src, scene, group,
                             ctl.await_assignment(cur_epoch));
    }

    // Each stage adds its time to its counter as it closes, so a RankKilled
    // unwind keeps every completed step's times.
    StepWindow w;
    bool fetched = true;
    pc.input_attempted.add();
    {
      obs::Stage fetch(
          {.cat = "pipeline", .name = "fetch", .step = s, .ns = &pc.fetch_ns});
      try {
        w = read_window(src, s, [&](int step) {
          return plan.reader.read(world, src, step);
        });
      } catch (const vmpi::IoError&) {
        // Permanent failure after retries. A collective read_all aborts on
        // every group member together, so each member gets here.
        fetched = false;
      }
    }
    if (!fetched) {
      // One skip marker to each renderer expecting data from me, so nobody
      // blocks on data that will never come; they will repeat the previous
      // step's frame.
      for (int r : plan.serves)
        world.isend(I + r, tag_block(s), make_skip_block_msg(s, plan.skip_id));
      continue;
    }
    io::QuantizedField q;
    {
      obs::Stage prep({.cat = "pipeline", .name = "preprocess", .step = s,
                       .ns = &pc.preprocess_ns});
      q = io::quantize(make_scalar(src, w), cfg.render.value_lo,
                       cfg.render.value_hi);
      sent_range[s] = {q.lo, q.hi};
      if (cfg.lic_overlay) input_lic(world, cfg, scene.mesh, s, w.cur, qt);
    }
    {
      obs::Stage send({.cat = "pipeline", .name = "send_blocks", .step = s,
                       .ns = &pc.send_ns});
      std::uint64_t raw = 0, sent = 0;
      send_block_msgs(world, I, s, q, plan.msgs, cfg.compress_blocks, &raw,
                      &sent);
      pc.block_bytes_raw.add(raw);
      pc.block_bytes_sent.add(sent);
    }
    pc.input_completed.add();
  }
  ctl.drain_until_done(cfg.render_procs);
}

// ---------------------------------------------------------------------------
// Rendering processors
// ---------------------------------------------------------------------------

void run_render(Shared& sh, const Scene& scene, vmpi::Comm& world,
                vmpi::Comm& render_comm) {
  const PipelineConfig& cfg = sh.config;
  const int rr = render_comm.rank();
  const bool independent = cfg.strategy == IoStrategy::kTwoDipIndependent;
  const bool rebalancing = cfg.rebalance_every > 0;

  // The blocks, the 2DIP-independent scatter lists and the render stage are
  // built after the start barrier, so they are the first frame's set-up.
  trace::Span setup_span("setup", "render_blocks");
  RenderAssignment assign;
  assign.rebuild(scene.mesh, scene.blocks, scene.index, rr, scene.owners);

  // Independent-contiguous reads: precompute, per group member, the scatter
  // list of (owned block, position) matching the member's value order.
  const int m = cfg.input_procs;
  struct Scatter {
    std::size_t local_block;
    std::uint32_t pos;
  };
  std::vector<std::vector<Scatter>> member_scatter;
  if (independent) {
    member_scatter.resize(std::size_t(m));
    for (int mi = 0; mi < m; ++mi) {
      auto [lo, hi] = io::slice_bounds(scene.mesh.node_count(), mi, m);
      for (const auto& e : io::build_forward_map(scene.index, lo, hi)) {
        if (scene.owners[e.block] == rr)
          member_scatter[std::size_t(mi)].push_back(
              {assign.local_of.at(int(e.block)), e.block_pos});
      }
    }
  }

  RenderStage stage(scene.view, scene.tf, scene.mesh.domain(), scene.blocks,
                    cfg.render_threads,
                    {cfg.compositor, cfg.composite_k, cfg.compress_compositing},
                    world, render_comm);
  setup_span.stop();

  const auto timeout = std::chrono::milliseconds(
      cfg.recv_timeout_ms > 0 ? cfg.recv_timeout_ms : 0);
  // Measured per-block costs of the current epoch (dynamic redistribution).
  std::map<int, double> epoch_costs;

  for (int s = 0; s < scene.num_steps; ++s) {
    // --- receive this step's data (later steps keep arriving in the
    //     background into the mailbox — that's the §4 overlap) -------------
    // A message can be a skip marker ("this step's data is not coming"), a
    // timeout can fire (a dead input), and a payload can fail its CRC (then
    // NACK the sender for a bit-identical regeneration). Whatever cannot be
    // recovered leaves the previous step's values in place — frame repeat —
    // and marks the step degraded.
    bool degraded = false;
    int nacks_left = kMaxNacksPerStep;
    auto recv_step_msg = [&](std::vector<std::uint8_t>& msg,
                             vmpi::Status& rst) {
      // The wait_blocks span brackets only the blocking receive, not the
      // unpack work around it: the trace analysis treats its total as the
      // renderer's input-starvation stall.
      trace::Span wait_span("pipeline", "wait_blocks", s);
      if (cfg.recv_timeout_ms > 0)
        return world.recv_timeout(vmpi::kAnySource, tag_block(s), msg, timeout,
                                  &rst);
      rst = world.recv(vmpi::kAnySource, tag_block(s), msg);
      return true;
    };
    // The strategy sets three things: how many messages the step brings
    // (one per owned block, or one per 2DIP-independent group member),
    // where a verified payload's values land, and what a skip marker
    // covers. A block sender serves this renderer's whole step, so its
    // marker ends the step; a member's covers only that member's share.
    std::size_t remaining = independent ? std::size_t(m) : assign.owned.size();
    std::vector<std::uint8_t> scratch, msg;
    while (remaining > 0) {
      vmpi::Status rst;
      if (!recv_step_msg(msg, rst)) {
        degraded = true;  // a sender died; render what we have
        break;
      }
      const auto hdr = read_header(msg);
      if (!hdr) throw std::runtime_error("pipeline: truncated block message");
      if (hdr->flags & kFlagStepSkipped) {
        degraded = true;
        if (!independent) break;
        --remaining;
        continue;
      }
      if (!payload_ok(*hdr, msg)) {
        pipe_counters().crc_failures.add();
        if (nacks_left-- > 0) {
          NackMsg nack{s, hdr->block};
          world.isend(rst.source, kTagNack,
                      {reinterpret_cast<const std::uint8_t*>(&nack),
                       sizeof(nack)});
        } else {
          degraded = true;
          --remaining;  // give up on this message; keep its stale values
        }
        continue;
      }
      if (independent) {
        const auto& scatter = member_scatter.at(std::size_t(hdr->block));
        if (scatter.size() != hdr->count)
          throw std::runtime_error("pipeline: block message size mismatch");
        unpack_values(*hdr, msg, scratch, [&](std::size_t i, float v) {
          assign.block_values[scatter[i].local_block][scatter[i].pos] = v;
        });
      } else {
        unpack_block(*hdr, msg, scratch,
                     assign.block_values[assign.local_of.at(hdr->block)]);
      }
      --remaining;
    }

    // The whole group must agree on the degraded flag — the output
    // processor needs one consistent answer per frame.
    const bool step_degraded =
        render_comm.allreduce_max(degraded ? 1.0 : 0.0) > 0.0;
    if (rr == 0 && step_degraded) pipe_counters().dropped_steps.add();

    // --- local rendering, parallel compositing, image delivery ------------
    // Steering edits fold in at the step boundary: the first step rendered
    // at a new epoch picks up the edited camera and TF window everywhere.
    // Per-block costs are measured only for the rebalancer.
    const auto block_s = stage.run(s, assign, step_degraded, rebalancing);
    for (std::size_t i = 0; i < block_s.size(); ++i)
      epoch_costs[int(assign.owned[i])] += block_s[i];

    // --- fine-grain dynamic load redistribution (§7) -----------------------
    if (rebalancing && s + 1 < scene.num_steps &&
        scene.view.epoch_of(s + 1) > scene.view.epoch_of(s)) {
      int next_epoch = scene.view.epoch_of(s + 1);
      // Gather (block, cost) pairs at the render root.
      std::vector<std::uint8_t> packed;
      for (const auto& [block, cost] : epoch_costs) {
        double rec[2] = {double(block), cost};
        const auto* p = reinterpret_cast<const std::uint8_t*>(rec);
        packed.insert(packed.end(), p, p + sizeof(rec));
      }
      auto gathered = render_comm.gather(packed, 0);
      std::vector<int> new_owners;
      if (rr == 0) {
        // Reassign blocks largest-first on the MEASURED costs.
        std::vector<octree::Block> costed = scene.blocks;
        for (const auto& blob : gathered) {
          for (std::size_t off = 0; off + 16 <= blob.size(); off += 16) {
            double rec[2];
            std::memcpy(rec, blob.data() + off, sizeof(rec));
            costed[std::size_t(rec[0])].workload = rec[1];
          }
        }
        new_owners = octree::assign_blocks(costed, cfg.render_procs,
                                           octree::AssignStrategy::kLargestFirst);
        // Record the imbalance the old assignment showed this epoch.
        std::vector<double> old_load(std::size_t(cfg.render_procs), 0.0);
        std::vector<double> new_load(std::size_t(cfg.render_procs), 0.0);
        for (std::size_t b = 0; b < costed.size(); ++b) {
          old_load[std::size_t(assign.owners[b])] += costed[b].workload;
          new_load[std::size_t(new_owners[b])] += costed[b].workload;
        }
        double old_imb = load_imbalance(old_load);
        double new_imb = load_imbalance(new_load);
        // Measured costs are noisy; adopting a plan that scores worse than
        // the assignment already running would oscillate. Keep the old one.
        if (new_imb > old_imb) {
          new_owners = assign.owners;
          new_imb = old_imb;
        }
        {
          std::lock_guard lk(sh.mu);
          sh.report.epoch_imbalance.push_back(old_imb);
          sh.report.epoch_imbalance_replanned.push_back(new_imb);
        }
        // Publish to the other renderers and to every input processor.
        std::vector<std::uint8_t> wire(new_owners.size() * sizeof(int));
        std::memcpy(wire.data(), new_owners.data(), wire.size());
        render_comm.bcast(wire, 0);
        for (int ip = 0; ip < cfg.total_input_procs(); ++ip) {
          world.isend(ip, tag_assign(next_epoch),
                      {reinterpret_cast<const std::uint8_t*>(new_owners.data()),
                       new_owners.size() * sizeof(int)});
        }
      } else {
        std::vector<std::uint8_t> wire;
        render_comm.bcast(wire, 0);
        new_owners.resize(wire.size() / sizeof(int));
        std::memcpy(new_owners.data(), wire.data(), wire.size());
      }
      assign.rebuild(scene.mesh, scene.blocks, scene.index, rr,
                     std::move(new_owners));
      epoch_costs.clear();
    }
  }
  // Release the data sources' control loops: this renderer will NACK no
  // more.
  for (int ip = 0; ip < cfg.total_input_procs(); ++ip)
    world.isend(ip, kTagDone, {});
  pipe_counters().render_steps.add(std::uint64_t(scene.num_steps));
}

// ---------------------------------------------------------------------------
// Output processor
// ---------------------------------------------------------------------------

void run_output(Shared& sh, const Scene& scene, vmpi::Comm& world) {
  const PipelineConfig& cfg = sh.config;
  OutputStage out(cfg.width, cfg.height, cfg.output_dir, cfg.serve,
                  cfg.steer.enabled, world.rank());
  std::vector<int> degraded_steps;
  std::vector<float> last_gray;  // LIC texture frame-repeat buffer
  for (int s = 0; s < scene.num_steps; ++s) {
    std::vector<std::uint8_t> msg;
    {
      trace::Span wait_span("pipeline", "wait_frame", s);
      world.recv(vmpi::kAnySource, tag_frame(s), msg);
    }
    obs::Stage scope = out.open(s, std::uint32_t(scene.view.epoch_of(s)));
    img::Image frame(cfg.width, cfg.height);
    auto view = parse_frame_msg(msg, frame.pixels().size());
    if (!view) throw std::runtime_error("pipeline: bad frame message");
    std::memcpy(frame.pixels().data(), view->pixels.data(),
                view->pixels.size_bytes());
    const bool degraded = view->degraded;
    if (degraded) degraded_steps.push_back(s);

    if (cfg.lic_overlay) {
      // A degraded step's input may never have produced a LIC texture —
      // repeat the previous one, the same policy as the volume data.
      if (!degraded) {
        std::vector<std::uint8_t> lmsg;
        world.recv(vmpi::kAnySource, tag_lic(s), lmsg);
        last_gray.resize(lmsg.size() / sizeof(float));
        std::memcpy(last_gray.data(), lmsg.data(), lmsg.size());
      }
      if (!last_gray.empty()) {
        img::Image ground = render_ground_overlay(
            scene.view.camera(s), scene.mesh.domain(), last_gray,
            cfg.lic_resolution, cfg.lic_resolution);
        ground.composite_over(frame);  // volume image in front of LIC plane
        frame = std::move(ground);
      }
    }
    out.emit(scope, frame);
    if (sh.frames_out) sh.frames_out->push_back(std::move(frame));
  }
  pipe_counters().degraded_frames.add(degraded_steps.size());
  std::lock_guard lk(sh.mu);
  sh.report.frame_seconds = out.frame_seconds();
  sh.report.degraded_steps = std::move(degraded_steps);
  sh.report.server = out.finish();
}

// ---------------------------------------------------------------------------
// Simulation processors (the in situ data source)
// ---------------------------------------------------------------------------

// The wave solver runs distributed across the sim group (the element work is
// partitioned; one force reduction per step), as the paper's simulation
// side runs on its own processor set. The group's root preprocesses every
// snapshot straight off the solver's state, with no file system in the
// path, and streams it to the renderers as 1DIP block messages.
void run_sim(Shared& sh, const InsituConfig& icfg, const Scene& scene,
             vmpi::Comm& world, vmpi::Comm& sim_comm, InsituReport& out) {
  const PipelineConfig& cfg = sh.config;
  quake::ParallelWaveSolver solver(scene.mesh, icfg.basin.field(), icfg.solver,
                                   sim_comm);
  solver.add_source(icfg.source);
  const bool streamer = sim_comm.rank() == 0;
  const std::vector<BlockMsgSpec> msgs =
      per_block_msgs(scene.index, scene.owners);
  // A NACK is answered with a skip marker, never a resend: the solver has
  // moved past the snapshot, and keeping every streamed snapshot to
  // regenerate one would grow memory without bound. The renderer keeps its
  // stale values, so the frame is flagged degraded, never wrong.
  InputControl ctl{world, [&world](int step, int, int requester) {
                     world.isend(requester, tag_block(step),
                                 make_skip_block_msg(step));
                   }};

  PipeCounters& pc = pipe_counters();
  double sim_seconds = 0.0;
  for (int snap = 0; snap < scene.num_steps; ++snap) {
    {
      trace::Span sim_span("pipeline", "sim_step", snap, /*timed=*/true);
      for (int k = 0; k < icfg.steps_per_snapshot; ++k) solver.step();
      sim_seconds += sim_span.stop();
    }

    if (!streamer) continue;  // only the sim group's root streams
    {
      obs::Stage send({.cat = "pipeline", .name = "send_blocks", .step = snap,
                       .ns = &pc.send_ns});
      auto scalar = io::derive_scalar(solver.velocity_interleaved(), 3,
                                      cfg.variable);
      auto q = io::quantize(scalar, cfg.render.value_lo, cfg.render.value_hi);
      std::uint64_t raw = 0, sent = 0;
      send_block_msgs(world, cfg.total_input_procs(), snap, q, msgs,
                      cfg.compress_blocks, &raw, &sent);
      pc.block_bytes_raw.add(raw);
      pc.block_bytes_sent.add(sent);
    }
    // Answer the NACKs that came in meanwhile without holding up the solver.
    ctl.poll();
  }
  if (streamer) {
    out.sim_seconds = sim_seconds;
    out.sim_time_reached = solver.time();
  }
  ctl.drain_until_done(cfg.render_procs);
}

// ---------------------------------------------------------------------------
// The rank body of the batch pipeline and in situ
// ---------------------------------------------------------------------------

// Every check of a configuration, from run_pipeline or run_insitu.
void validate(const PipelineConfig& config) {
  if (config.width < 1 || config.height < 1)
    throw std::runtime_error("pipeline: width and height must be >= 1");
  if (config.compositor == Compositor::kRadixK && config.composite_k < 2)
    throw std::runtime_error("pipeline: composite_k must be >= 2");
  if (config.lic_overlay && config.strategy != IoStrategy::kOneDip)
    throw std::runtime_error(
        "pipeline: the LIC overlay path requires the 1DIP strategy (as in "
        "the paper's Figure 12 configuration)");
  if (config.rebalance_every > 0 && config.strategy != IoStrategy::kOneDip)
    throw std::runtime_error(
        "pipeline: dynamic load redistribution requires the 1DIP strategy");
  if (config.render_procs < 1 || config.input_procs < 1 || config.groups < 1)
    throw std::runtime_error("pipeline: bad processor counts");
  if (config.steer.enabled && config.rebalance_every > 0)
    throw std::runtime_error(
        "pipeline: steering and dynamic load redistribution both own the "
        "view-epoch field; enable one or the other");
  if (config.fault_plan && config.fault_plan->kill_rank >= 0) {
    // A rank death is only survivable when the victim's peers never enter a
    // collective with it — exactly the 1DIP input side (mirroring what a
    // real MPI job could tolerate with a fault-aware transport).
    if (config.strategy != IoStrategy::kOneDip)
      throw std::runtime_error(
          "pipeline: rank-kill faults are survivable only under 1DIP (a 2DIP "
          "group would deadlock in its collective read)");
    if (config.fault_plan->kill_rank >= config.total_input_procs())
      throw std::runtime_error(
          "pipeline: only input ranks can be killed; renderers and the "
          "output processor join collectives every step");
    if (config.recv_timeout_ms <= 0)
      throw std::runtime_error(
          "pipeline: a kill fault requires recv_timeout_ms > 0 — a dead "
          "input is only detectable by the absence of its traffic");
  }
}

// Names the calling rank's trace lane: "<source> N" for the first
// `sources` ranks, "render N" for the next `renderers`, "output" for the
// last.
void label_rank_thread(int rank, int sources, int renderers,
                       const char* source) {
  if (!trace::enabled()) return;
  char name[32];
  if (rank < sources)
    std::snprintf(name, sizeof(name), "%s %d", source, rank);
  else if (rank < sources + renderers)
    std::snprintf(name, sizeof(name), "render %d", rank - sources);
  else
    std::snprintf(name, sizeof(name), "output");
  trace::set_thread(rank, name);
}

// One rank of run_pipeline or run_insitu. The world is laid out as the
// data-source ranks ([0, total_input_procs()), trace lanes "<lane> N"), then
// the render group, then the output rank last. The rank joins its role's
// communicator and the start barrier (the frame clocks begin there), then
// runs its role; the data-source role is `source`, handed the communicator
// of its group: under 2DIP the rank's own group of input_procs ranks, else
// every data-source rank. Every split precedes the barrier, so none of it
// lands on the frame clocks.
void run_rank(Shared& sh, const Scene& scene, vmpi::Comm& world,
              const char* lane,
              const std::function<void(vmpi::Comm& sources)>& source) {
  const PipelineConfig& cfg = sh.config;
  const int I = cfg.total_input_procs();
  const int R = cfg.render_procs;
  const int r = world.rank();
  const int role = r < I ? 0 : (r < I + R ? 1 : 2);
  label_rank_thread(r, I, R, lane);
  vmpi::Comm sub = world.split(role, r);
  if (role == 0 && cfg.strategy != IoStrategy::kOneDip)
    sub = sub.split(r / cfg.input_procs, r % cfg.input_procs);
  world.barrier();  // synchronized start: frame clocks begin here
  switch (role) {
    case 0:
      source(sub);
      break;
    case 1:
      run_render(sh, scene, world, sub);
      break;
    default:
      run_output(sh, scene, world);
      break;
  }
}

// Validate `config`, run `rank` on each of its world's ranks, and fill the
// report from what the roles recorded.
PipelineReport run_ranks(const PipelineConfig& config,
                         std::vector<img::Image>* frames_out,
                         const std::function<void(Shared&, vmpi::Comm&)>& rank) {
  validate(config);
  Shared sh{config, frames_out};

  // Surface the algorithm choice: tests and qv-run-report assert on it.
  switch (config.compositor) {
    case Compositor::kSlic:
      sh.report.compositor = "slic";
      metrics::counter("compositing.algo.slic").add(1);
      break;
    case Compositor::kDirectSend:
      sh.report.compositor = "direct-send";
      metrics::counter("compositing.algo.direct_send").add(1);
      break;
    case Compositor::kRadixK:
      sh.report.compositor =
          "radix-k(k=" + std::to_string(config.composite_k) + ")";
      metrics::counter("compositing.algo.radix_k").add(1);
      break;
  }

  // The report is the registry's change over the run, so several runs in
  // one process (benches, tests) never cross-contaminate. Both snapshots
  // are taken while no rank thread runs.
  const metrics::Snapshot before = metrics::collect();
  vmpi::Runtime::run(
      config.world_size(), [&](vmpi::Comm& world) { rank(sh, world); },
      config.fault_plan);
  const metrics::Snapshot after = metrics::collect();
  const auto delta = [&](const char* name) {
    return after.counter_or(name) - before.counter_or(name);
  };

  PipelineReport& rep = sh.report;
  rep.steps = int(delta("pipeline.render_steps")) / config.render_procs;
  rep.input_steps_attempted = int(delta("pipeline.input_steps_attempted"));
  rep.input_steps_completed = int(delta("pipeline.input_steps_completed"));
  // Fetch runs on every *attempted* step; preprocess and send only on steps
  // that completed. Dividing all three by the same count used to deflate the
  // per-step averages of degraded runs (dropped steps padded the
  // denominator with stages that never executed).
  const auto avg = [&](const char* ns, int steps) {
    return double(delta(ns)) * 1e-9 / std::max(steps, 1);
  };
  rep.avg_fetch = avg("pipeline.fetch_ns", rep.input_steps_attempted);
  rep.avg_preprocess = avg("pipeline.preprocess_ns", rep.input_steps_completed);
  rep.avg_send = avg("pipeline.send_ns", rep.input_steps_completed);
  rep.avg_render = avg("pipeline.render_ns", rep.steps * config.render_procs);
  rep.avg_composite =
      avg("pipeline.composite_ns", rep.steps * config.render_procs);
  rep.composite_bytes = delta("compositing.bytes_sent");
  rep.block_bytes_raw = delta("pipeline.block_bytes_raw");
  rep.block_bytes_sent = delta("pipeline.block_bytes_sent");
  rep.retries = delta("io.retries");
  rep.corrupt_blocks_detected = delta("pipeline.crc_failures");
  rep.resend_requests = delta("pipeline.resends");
  rep.dropped_steps = int(delta("pipeline.dropped_steps"));
  rep.degraded_frames = int(delta("pipeline.degraded_frames"));
  rep.avg_interframe = steady_interframe(rep.frame_seconds);
  return rep;
}

}  // namespace

PipelineReport run_pipeline(const PipelineConfig& config,
                            std::vector<img::Image>* frames_out) {
  return run_ranks(config, frames_out, [&config](Shared& sh,
                                                 vmpi::Comm& world) {
    DatasetSource src(config);
    const Scene scene(config, src.reader.level_mesh(src.level),
                      src.reader.meta().domain, src.num_steps());
    run_rank(sh, scene, world, "input", [&](vmpi::Comm& sources) {
      run_input(sh, src, scene, world, sources);
    });
  });
}

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
  if (config.snapshots < 1)
    throw std::runtime_error("insitu: snapshots must be >= 1");
  if (config.fault_plan && config.fault_plan->kill_rank >= 0)
    throw std::runtime_error(
        "insitu: rank-kill faults are not survivable: the sim group reduces "
        "forces across every member each solver step");
  // The solver group takes the input ranks' place, one 1DIP sender; every
  // other field keeps its default (SLIC without compression, Morton-
  // contiguous assignment of level-2 blocks, the seismic transfer function,
  // the velocity magnitude).
  PipelineConfig pc;
  pc.strategy = IoStrategy::kOneDip;
  pc.input_procs = config.sim_procs;
  pc.render_procs = config.render_procs;
  pc.render_threads = config.render_threads;
  pc.width = config.width;
  pc.height = config.height;
  pc.render = config.render;
  pc.orbit_deg_per_step = config.orbit_deg_per_step;
  pc.output_dir = config.output_dir;
  pc.serve = config.serve;
  pc.steer = config.steer;
  pc.fault_plan = config.fault_plan;

  InsituReport out;
  PipelineReport rep = run_ranks(pc, frames_out, [&](Shared& sh,
                                                     vmpi::Comm& world) {
    const mesh::HexMesh mesh = build_insitu_mesh(config);
    const Scene scene(pc, mesh, mesh.domain(), config.snapshots);
    run_rank(sh, scene, world, "sim", [&](vmpi::Comm& sim_comm) {
      run_sim(sh, config, scene, world, sim_comm, out);
    });
  });
  out.frame_seconds = std::move(rep.frame_seconds);
  out.avg_interframe = rep.avg_interframe;
  out.snapshots = rep.steps;
  out.degraded_frames = rep.degraded_frames;
  out.degraded_steps = std::move(rep.degraded_steps);
  out.corrupt_blocks_detected = rep.corrupt_blocks_detected;
  out.resend_requests = rep.resend_requests;
  out.server = std::move(rep.server);
  return out;
}

}  // namespace qv::core
