#include "obs/stage.hpp"

namespace qv::obs {

Stage::Stage(const Sinks& s) noexcept
    : sinks_(s),
      span_(s.cat, s.name, s.step,
            s.timed || s.ns || (s.histogram && metrics::enabled()) ||
                (s.lineage && lineage::enabled())) {}

double Stage::stop() noexcept {
  if (!span_.open()) return span_.stop();
  const double s = span_.stop();
  if (sinks_.ns) sinks_.ns->add(std::uint64_t(span_.dur_ns()));
  if (sinks_.histogram) sinks_.histogram->observe(s);
  if (sinks_.lineage && lineage::enabled())
    lineage::record({sinks_.step, sinks_.epoch, *sinks_.lineage,
                     lineage::Domain::kWall, sinks_.kind, sinks_.channel,
                     double(span_.start_ns()) * 1e-9, s});
  return s;
}

}  // namespace qv::obs
