// The parallel visualization pipeline (the paper's primary contribution).
//
// Processor roles (Figure 2): ranks [0, I) are input processors, ranks
// [I, I+R) rendering processors, and the last rank the output processor.
//
//   input:  one loop for every I/O strategy: fetch each time step from
//           disk (1DIP whole-step reads or 2DIP group reads, collective-
//           noncontiguous or independent-contiguous per §5.3), preprocess
//           it (magnitude, quantization to 8 bits, optional temporal
//           enhancement, optional surface LIC), and ship the rank's ordered
//           block messages to the renderers with buffered sends. The
//           strategy only picks the reader and the message list.
//   render: receive block values for the next step in the background while
//           rendering the current one, then hand them to the shared render
//           stage (core/render_stage.hpp): raycast owned blocks, composite
//           (SLIC, direct-send, or radix-k; binary-swap is radix-k with
//           k = 2) across the render communicator, and send the finished
//           frame to the output processor.
//   output: composite the optional LIC ground layer under the volume image,
//           then hand the frame to the shared output stage
//           (core/output_stage.hpp): record interframe delay, optionally
//           write PPM frames and deliver them to simulated viewers.
//
// The block decomposition, workload estimation, and block->renderer
// assignment are computed identically on every rank from the dataset's
// octree (the "one-time preprocessing" of §4; the mesh never changes).
//
// In situ (core/insitu.hpp) runs the same rank body, render role, output
// role and report, with the solver group in the input ranks' place.
#pragma once

#include <string>
#include <vector>

#include "core/config.hpp"
#include "img/image.hpp"

namespace qv::core {

struct PipelineReport {
  // The compositing algorithm that ran ("slic", "direct-send" or
  // "radix-k(k=K)"). Also counted in the metrics registry as
  // compositing.algo.<slic|direct_send|radix_k>.
  std::string compositor;

  // Completion time of each frame, seconds since the pipeline start barrier
  // (recorded by the output processor).
  std::vector<double> frame_seconds;
  double avg_interframe = 0.0;  // steady-state (second half) mean

  // Per-step averages across the whole run (render and composite per
  // renderer step): each stage's registry counter pipeline.<stage>_ns over
  // the run, exactly the summed durations of the stage's pipeline spans.
  double avg_fetch = 0.0;       // input: disk time
  double avg_preprocess = 0.0;  // input: magnitude/quantize/enhance/LIC
  double avg_send = 0.0;        // input: shipping blocks
  double avg_render = 0.0;      // render: raycasting
  double avg_composite = 0.0;   // render: parallel compositing
  std::uint64_t composite_bytes = 0;  // total compositing traffic
  // Input -> renderer data-distribution traffic, before and after the
  // optional RLE compression of quantized block payloads.
  std::uint64_t block_bytes_raw = 0;
  std::uint64_t block_bytes_sent = 0;

  // Dynamic redistribution (rebalance_every > 0): per epoch boundary, the
  // measured render-cost imbalance of the assignment that just ran and of
  // the replanned assignment that replaces it.
  std::vector<double> epoch_imbalance;
  std::vector<double> epoch_imbalance_replanned;

  // Fault handling (all zero when config.fault_plan is null and no faults
  // occur naturally):
  std::uint64_t retries = 0;                 // transient-read retries (inputs)
  std::uint64_t corrupt_blocks_detected = 0; // CRC mismatches (renderers)
  std::uint64_t resend_requests = 0;         // NACKs serviced by inputs
  int dropped_steps = 0;                     // steps abandoned after recovery
  int degraded_frames = 0;                   // frames showing reused data
  std::vector<int> degraded_steps;           // which steps, ascending

  // Input-side step accounting. A step is *attempted* once its fetch starts
  // and *completed* only after preprocess + send finished; a permanently
  // failed fetch leaves attempted > completed. avg_fetch averages over
  // attempts (the disk was really hit); avg_preprocess / avg_send average
  // over completions, so degraded runs no longer dilute those averages with
  // steps that never ran the stage.
  int input_steps_attempted = 0;
  int input_steps_completed = 0;

  int steps = 0;

  // Remote frame delivery (empty unless config.serve.enabled).
  stream::ServerReport server;
};

// Run the full pipeline in-process (spawns config.world_size() vmpi ranks).
// When `frames_out` is non-null the output processor also stores every
// final frame there (in step order) for inspection by tests and examples.
PipelineReport run_pipeline(const PipelineConfig& config,
                            std::vector<img::Image>* frames_out = nullptr);

}  // namespace qv::core
