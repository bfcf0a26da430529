// One instrument per stage. A Stage reads the clock once at open and once
// at close and hands both reads to every sink it was given: the trace span
// "cat/name" with its span.<cat>.<name> histogram, an always-on ns counter,
// a named histogram, a wall-domain lineage event whose t_s and dur_s are
// the span's own, and the caller (stop()). So a stage's trace, report,
// histogram and lineage numbers agree to the nanosecond. The clock is read
// only for a sink that consumes it, as an untimed trace::Span.
#pragma once

#include <cstdint>
#include <optional>

#include "metrics/metrics.hpp"
#include "obs/lineage.hpp"
#include "trace/trace.hpp"

namespace qv::obs {

// Where a stage's clock reads go; every sink is optional.
struct Sinks {
  const char* cat = nullptr;  // trace span (string literals); null: none
  const char* name = nullptr;
  std::int64_t step = -1;     // the span's arg and the lineage frame's step
  metrics::Counter* ns = nullptr;           // += duration in ns, always
  metrics::Histogram* histogram = nullptr;  // seconds, while metrics are on
  // The lineage event, recorded while lineage is on, of frame (step,
  // epoch) on channel (kind, channel).
  std::optional<lineage::Stage> lineage = {};
  std::uint32_t epoch = 0;
  lineage::ChannelKind kind = lineage::ChannelKind::kRank;
  int channel = 0;
  bool timed = false;  // read the clock regardless: the caller uses stop()
};

class Stage {
 public:
  explicit Stage(const Sinks& sinks) noexcept;
  ~Stage() { stop(); }  // not copyable: the span is not

  // Closes the stage on the first call, feeding every sink, and returns
  // its duration in seconds; 0 when nothing read the clock.
  double stop() noexcept;
  const Sinks& sinks() const { return sinks_; }

 private:
  Sinks sinks_;
  trace::Span span_;
};

}  // namespace qv::obs
