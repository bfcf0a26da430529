#include "core/output_stage.hpp"

#include <cstdio>
#include <utility>

namespace qv::core {

obs::Stage OutputStage::open(int step, std::uint32_t epoch) const {
  return obs::Stage({.cat = "pipeline", .name = "frame", .step = step,
                     .lineage = obs::lineage::Stage::kFrame, .epoch = epoch,
                     .channel = rank_});
}

OutputStage::OutputStage(int width, int height, std::string output_dir,
                         const stream::ServeFleetConfig& serve, bool steering,
                         int rank)
    : output_dir_(std::move(output_dir)), steering_(steering), rank_(rank) {
  if (serve.enabled && serve.count > 0) {
    server_.emplace(serve.server, width, height);
    for (const auto& lc : stream::make_fleet(serve)) server_->join(0.0, lc);
  }
}

void OutputStage::emit(obs::Stage& frame, const img::Image& image) {
  using namespace obs::lineage;
  const int step = int(frame.sinks().step);
  const std::uint32_t epoch = frame.sinks().epoch;
  frame_seconds_.push_back(clock_.seconds());
  if (epoch != epoch_) {
    // (step, epoch) is the end-to-end frame id; the encoders stamp it into
    // every wire header from here on.
    if (steering_) {
      // The view changed: invalidate every delta chain too, so no delta
      // crosses the edit — and leave per-client controller state alone (an
      // edit is not a network event).
      if (server_) server_->apply_view_change(epoch);
      // epoch == the newest applied request id: this event records
      // request_id -> first-serving-step for the flight recorder.
      record_wall(Stage::kSteerApply, step, epoch, ChannelKind::kRank, rank_);
    } else if (server_) {
      server_->set_epoch(epoch);
    }
    epoch_ = epoch;
  }
  if (!output_dir_.empty() || server_) {
    // One tone-mapping for every sink.
    const img::Image8 out8 = img::to_8bit(image, {0.02f, 0.02f, 0.05f});
    if (!output_dir_.empty()) {
      char name[64];
      std::snprintf(name, sizeof(name), "/frame_%04d.ppm", step);
      img::write_ppm(output_dir_ + name, out8);
    }
    if (server_) server_->submit(clock_.seconds(), step, out8);
  }
  frame.stop();
}

stream::ServerReport OutputStage::finish() {
  return server_ ? server_->finish() : stream::ServerReport{};
}

}  // namespace qv::core
