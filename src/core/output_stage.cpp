#include "core/output_stage.hpp"

#include <cstdio>
#include <utility>

#include "obs/lineage.hpp"

namespace qv::core {

OutputStage::Frame::Frame(int step)
    : step_(step),
      span_("pipeline", "frame", step),
      t0_ns_(obs::lineage::enabled() ? trace::now_since_epoch_ns() : 0) {}

OutputStage::OutputStage(int width, int height, std::string output_dir,
                         const stream::ServeFleetConfig& serve, bool steering,
                         int rank)
    : output_dir_(std::move(output_dir)), steering_(steering), rank_(rank) {
  if (serve.enabled && serve.count > 0) {
    server_.emplace(serve.server, width, height);
    for (const auto& lc : stream::make_fleet(serve)) server_->join(0.0, lc);
  }
}

void OutputStage::emit(const Frame& frame, std::uint32_t epoch,
                       const img::Image& image) {
  using namespace obs::lineage;
  const int step = frame.step_;
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
      if (enabled())
        record_wall(Stage::kSteerApply, step, epoch, ChannelKind::kRank,
                    rank_);
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
  if (enabled()) {
    record_wall(Stage::kFrame, step, epoch, ChannelKind::kRank, rank_,
                double(trace::now_since_epoch_ns() - frame.t0_ns_) * 1e-9);
  }
}

stream::ServerReport OutputStage::finish() {
  return server_ ? server_->finish() : stream::ServerReport{};
}

}  // namespace qv::core
