// Configuration of the parallel visualization pipeline (§4, Figure 2):
// processor partitioning (input / rendering / output roles), I/O staging
// strategy, rendering options, and optional preprocessing stages.
#pragma once

#include <memory>
#include <string>

#include "io/preprocess.hpp"
#include "io/retry.hpp"
#include "octree/blocks.hpp"
#include "render/raycast.hpp"
#include "stream/server.hpp"
#include "vmpi/fault.hpp"

namespace qv::core {

enum class IoStrategy {
  kOneDip,            // §5.1: m input procs, each reads a complete step
  kTwoDipCollective,  // §5.2 + §5.3.1: groups; collective noncontiguous read
  kTwoDipIndependent, // §5.2 + §5.3.2: groups; independent contiguous read
};

enum class Compositor {
  kSlic,        // §4.4: scheduled linear image compositing
  kDirectSend,  // baseline
  kRadixK,      // round-structured k-way exchange, any render_procs count
                // (group size capped by composite_k; binary-swap is
                // composite_k = 2); bit-identical to direct-send.
};

enum class Colormap {
  kSeismic,    // the velocity-magnitude look of the paper's figures
  kGrayscale,  // simple ramp (hand-checkable compositing in tests)
};

// Interactive steering (viewer→renderer control channel, ROADMAP item 3):
// a scripted edit trace — camera moves and transfer-function window edits —
// folded at step boundaries. Config-distributed: every rank numbers the
// same trace (stream::number_steer_trace) and derives the same view-at-step
// fold, so renderers, the output processor, and any offline check agree on
// the (step, epoch) frame id with no runtime broadcast. The view epoch IS
// the newest applied request id; each fold invalidates the delivery delta
// chains (stream apply_view_change), so the first frame a client sees after
// an edit is a keyframe. Exclusive with rebalance-driven epochs (both own
// the epoch field) — run_pipeline rejects the combination.
struct SteeringConfig {
  bool enabled = false;
  std::uint64_t seed = 1;  // generated-trace seed (used when path empty)
  int edits = 4;           // events in the generated trace
  std::string trace_path;  // explicit scripted trace; overrides seed/edits
};

struct PipelineConfig {
  std::string dataset_dir;

  IoStrategy strategy = IoStrategy::kOneDip;
  int input_procs = 2;   // m: total input procs (1DIP) or group width (2DIP)
  int groups = 1;        // n: number of 2DIP groups (ignored for 1DIP)
  int render_procs = 4;

  int width = 256;
  int height = 256;
  int adaptive_level = -1;  // octree level to fetch/render; -1 = finest
  int block_level = 2;      // subtree depth of the block decomposition
  octree::AssignStrategy assign = octree::AssignStrategy::kMortonContiguous;

  render::RenderOptions render;   // lighting, step size, value window
  Colormap colormap = Colormap::kSeismic;
  std::string tf_file;            // custom colormap file (overrides colormap)
  io::Variable variable = io::Variable::kMagnitude;  // §1 variable domain
  bool enhancement = false;       // §4.2 temporal-domain enhancement
  float enhancement_gain = 2.0f;
  bool lic_overlay = false;       // §4.3 surface LIC, computed on input procs
  int lic_resolution = 256;       // LIC texture size (square)

  // Spatial exploration: rotate the viewpoint this many degrees per step
  // (0 = fixed camera). Each new view re-runs the view-dependent
  // preprocessing (§4: visibility order; §4.4: the SLIC schedule).
  float orbit_deg_per_step = 0.0f;

  // Fine-grain dynamic load redistribution (§7 future work): when > 0,
  // every `rebalance_every` steps the renderers' measured per-block costs
  // are gathered and blocks are reassigned (largest-first on real costs)
  // for the next epoch. Requires kOneDip.
  int rebalance_every = 0;

  // Intra-rank rendering parallelism: worker threads per rendering
  // processor, fanning each step's blocks out as (block x image-tile)
  // tasks. 1 = fully serial. Output is bit-identical for every value
  // (tiles write disjoint pixels; see test_render_determinism).
  int render_threads = 1;

  Compositor compositor = Compositor::kSlic;
  // Per-round group-size cap for Compositor::kRadixK (>= 2). 4 balances
  // round count against per-round message fan-out at the paper's scales.
  int composite_k = 4;
  bool compress_compositing = false;
  // RLE-compress the quantized block payloads the input processors ship
  // (quiet ground quantizes to zero runs, so this usually wins big).
  bool compress_blocks = false;

  int num_steps = -1;          // -1: every step in the dataset
  std::string output_dir;      // when set, the output proc writes PPM frames

  // Remote frame delivery: when serve.enabled, the output processor runs a
  // DeliveryServer and every finished frame is offered to serve.count
  // simulated clients over simulated WAN links (delta coding, per-client
  // backpressure-driven degradation and byte budgets, shared encoding; see
  // src/stream/server.hpp). A point-to-point stream is a one-client fleet.
  stream::ServeFleetConfig serve;

  // Interactive steering over the run (see SteeringConfig above).
  SteeringConfig steer;

  // --- robustness ---------------------------------------------------------
  // Deterministic fault injection (tests/benches); null = no faults and
  // byte-identical behavior to a build without the fault layer.
  std::shared_ptr<const vmpi::FaultPlan> fault_plan;
  // Per-pread retry policy applied to every dataset File the pipeline opens.
  io::RetryPolicy io_retry;
  // Renderer-side receive timeout (ms) for block/slice data. After retries
  // and resends are exhausted — or an input rank died — the step is dropped
  // and the previous step's data is reused (frame repeat). 0 = block forever
  // (the seed behavior; required if input ranks are assumed immortal).
  int recv_timeout_ms = 0;

  // Total world size the pipeline occupies.
  int total_input_procs() const {
    return strategy == IoStrategy::kOneDip ? input_procs
                                           : input_procs * groups;
  }
  int world_size() const { return total_input_procs() + render_procs + 1; }
};

}  // namespace qv::core
