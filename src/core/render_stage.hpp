// The rendering processor's per-step stage (§4, Figure 2). The pipeline's
// render role (core/pipeline.cpp) runs one receive loop for every data
// source — dataset input ranks or the in situ solver root — with NACK and
// degrade handling, and hands the received block values to
// RenderStage::run(), which raycasts them, composites with the render
// group, and has render rank 0 send the frame to the output processor, the
// last world rank.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "io/block_index.hpp"
#include "render/raycast.hpp"
#include "stream/control.hpp"
#include "util/thread_pool.hpp"
#include "vmpi/comm.hpp"

namespace qv::core {

// The view at each step, derived identically on every rank from the
// configuration alone. With steering on, the edit trace is loaded
// (steer.trace_path) or generated over `steps` steps, scrub edits are
// rejected (the pipeline and in situ render steps in order), and edits are
// numbered: the view epoch is the newest applied request id.
struct ViewSchedule {
  ViewSchedule(const Box3& domain, int width, int height,
               float orbit_deg_per_step, const render::RenderOptions& options,
               const SteeringConfig& steer, int steps, int rebalance_every);

  // The steering fold at `step`: azimuth offset, value window, epoch.
  stream::SteeringState steer_view(int step) const;
  render::Camera camera(int step) const;
  // The steering epoch when steering, else step / rebalance_every when
  // rebalancing, else 0.
  int epoch_of(int step) const;

  Box3 domain;
  int width, height;
  float orbit_deg_per_step;
  render::RenderOptions options;  // un-steered; edits fold over its window
  bool steering;
  int rebalance_every;
  std::vector<stream::SteerEvent> steer_trace;  // numbered, ids 1..N
};

// Renderer-side view of the current block assignment.
struct RenderAssignment {
  std::vector<int> owners;                // every block -> render rank
  std::vector<std::size_t> owned;         // my global block ids
  std::map<int, std::size_t> local_of;    // global block id -> owned index
  std::vector<render::RenderBlock> rblocks;
  std::vector<std::vector<float>> block_values;

  void rebuild(const mesh::HexMesh& mesh, std::span<const octree::Block> blocks,
               const io::BlockNodeIndex& index, int my_rank,
               std::vector<int> new_owners);
};

// The render group's compositing algorithm, radix-k's per-round group-size
// cap, and active-pixel compression of the exchange.
struct CompositeMode {
  Compositor algo = Compositor::kSlic;
  int k = 4;
  bool compress = false;
};

class RenderStage {
 public:
  // `domain` is the mesh's; `world` carries the frame to the output rank
  // and names the lineage channel. `threads` workers (this rank's thread
  // included, trace lanes "render R.wW") share each step's (block x tile)
  // tasks.
  RenderStage(const ViewSchedule& view, const render::TransferFunction& tf,
              const Box3& domain, std::span<const octree::Block> blocks,
              int threads, const CompositeMode& composite, vmpi::Comm& world,
              vmpi::Comm& render_comm);

  // One step: install `assign`'s values and raycast them at the step's
  // view, then composite, each one obs::Stage (span, pipeline.<stage>_ns
  // counter, lineage event), and on render rank 0 send the frame, flagged
  // `degraded`, to the output rank. Returns, per owned block when
  // `block_seconds`, value install plus the summed wall time of the
  // block's render tasks (the rebalancer's cost signal); else empty.
  std::span<const double> run(int step, RenderAssignment& assign,
                              bool degraded, bool block_seconds);

 private:
  void refresh_view(int step);

  const ViewSchedule& view_;
  const render::TransferFunction& tf_;
  Box3 domain_;
  std::span<const octree::Block> blocks_;
  CompositeMode composite_;
  vmpi::Comm& world_;
  vmpi::Comm& render_comm_;
  render::Raycaster rc_;  // holds the steered value window
  int steer_epoch_ = 0;
  render::Camera camera_;
  std::vector<std::uint32_t> rank_of_;  // global visibility ranks (§4)
  util::ThreadPool pool_;
  std::vector<double> block_s_;
};

}  // namespace qv::core
