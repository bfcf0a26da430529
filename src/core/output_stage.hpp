// The output processor's per-frame stage (§4, Figure 2), run by the output
// role of the batch pipeline and in situ: each composited frame is
// time-stamped, tone-mapped once, and handed to every sink — the PPM writer
// and the delivery server — so a delivered frame is bit-identical to the
// file the output processor wrote (the delivery tests pin this with SHA-256).
//
// The output role receives and parses the frame message (and lays the
// optional LIC ground overlay under it), then calls emit(). The stage owns
// the rest:
//   * the epoch rule: a steering epoch is a view change (every delta chain
//     re-anchors on a keyframe; recorded as a kSteerApply lineage event), a
//     rebalance epoch only relabels the frame id stamped into wire headers;
//   * the frame clock, started when the stage is built (right after the
//     start barrier) and read as emit() begins;
//   * one to_8bit, the frame_%04d.ppm write, the DeliveryServer submit;
//   * the frame's pipeline/frame span and kFrame event, one obs::Stage.
// Single-threaded by construction: only the output rank touches a stage.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "img/image.hpp"
#include "obs/stage.hpp"
#include "stream/server.hpp"
#include "util/stats.hpp"

namespace qv::core {

class OutputStage {
 public:
  // `steering`: epochs come from steering edits rather than rebalancing.
  // `rank` is the output rank, the lineage channel of the stage's events.
  // With serve.enabled and serve.count > 0 the fleet joins at time 0.
  OutputStage(int width, int height, std::string output_dir,
              const stream::ServeFleetConfig& serve, bool steering, int rank);

  // Open the output work of frame (`step`, `epoch`) as soon as its message
  // has arrived: one obs::Stage, so the "pipeline/frame" trace span and the
  // kFrame lineage event cover the same interval.
  obs::Stage open(int step, std::uint32_t epoch) const;

  // Hand the assembled frame to every sink and close `frame`. Without a
  // sink the frame is only time-stamped.
  void emit(obs::Stage& frame, const img::Image& image);

  // Completion time of each emitted frame, seconds since construction.
  const std::vector<double>& frame_seconds() const { return frame_seconds_; }

  // Drain the delivery server; an empty report when no fleet is attached.
  stream::ServerReport finish();

 private:
  WallTimer clock_;  // declared first: the frame clock starts before joins
  std::string output_dir_;
  bool steering_;
  int rank_;
  std::uint32_t epoch_ = 0;  // wire headers start at epoch 0
  std::optional<stream::DeliveryServer> server_;
  std::vector<double> frame_seconds_;
};

}  // namespace qv::core
