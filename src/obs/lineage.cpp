#include "obs/lineage.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "trace/trace.hpp"
#include "vmpi/comm.hpp"

namespace qv::obs::lineage {

const char* stage_name(Stage s) noexcept {
  switch (s) {
    case Stage::kRender: return "render";
    case Stage::kComposite: return "composite";
    case Stage::kFrame: return "frame";
    case Stage::kEncode: return "encode";
    case Stage::kEnqueue: return "enqueue";
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kWire: return "wire";
    case Stage::kDecode: return "decode";
    case Stage::kDrop: return "drop";
    case Stage::kEvict: return "evict";
    case Stage::kSteerApply: return "steer_apply";
  }
  return "unknown";
}

const char* domain_name(Domain d) noexcept {
  return d == Domain::kWall ? "wall" : "virtual";
}

namespace detail {
std::atomic<bool> g_on{false};
}  // namespace detail

namespace {

// Fixed-capacity overwrite-oldest ring: the flight-recorder property. The
// ring always holds the `cap` NEWEST events; `overwritten` counts what the
// wraparound displaced.
struct Ring {
  std::vector<Event> buf;
  std::size_t cap = 0;
  std::size_t head = 0;   // next write position
  std::size_t count = 0;  // live events, <= cap
  std::uint64_t overwritten = 0;

  void push(const Event& ev) {
    if (count < cap) {
      buf[head] = ev;
      head = (head + 1) % cap;
      ++count;
    } else {
      buf[head] = ev;  // displaces the oldest
      head = (head + 1) % cap;
      ++overwritten;
    }
  }

  std::vector<Event> snapshot() const {  // oldest -> newest
    std::vector<Event> out;
    out.reserve(count);
    const std::size_t start = (head + cap - count) % cap;
    for (std::size_t i = 0; i < count; ++i)
      out.push_back(buf[(start + i) % cap]);
    return out;
  }
};

struct Recorder {
  std::mutex mu;
  // Ordered map: collect()/dump order is deterministic by construction.
  std::map<std::pair<std::uint8_t, std::int32_t>, Ring> rings;
  std::size_t capacity = 256;
  std::string dump_path;
};

Recorder& recorder() {
  static Recorder* r = new Recorder;  // leaked: usable during teardown/abort
  return *r;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_s(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void observer_hook(const char* reason, int /*rank*/) noexcept {
  dump_now(reason);
}

}  // namespace

namespace detail {

void record_slow(const Event& ev) noexcept {
  try {
    Recorder& r = recorder();
    std::lock_guard<std::mutex> lock(r.mu);
    auto key = std::make_pair(std::uint8_t(ev.channel_kind), ev.channel);
    Ring& ring = r.rings[key];
    if (ring.cap == 0) {
      ring.cap = r.capacity == 0 ? 1 : r.capacity;
      ring.buf.resize(ring.cap);
    }
    ring.push(ev);
  } catch (...) {
    // Allocation failure on an observability path must never take down the
    // run it observes.
  }
}

}  // namespace detail

void enable() {
  reset();
  detail::g_on.store(true, std::memory_order_relaxed);
}

void disable() noexcept {
  detail::g_on.store(false, std::memory_order_relaxed);
}

void reset() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  r.rings.clear();
}

void set_capacity(std::size_t events_per_channel) {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  r.capacity = events_per_channel == 0 ? 1 : events_per_channel;
}

void set_dump_path(std::string path) {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  r.dump_path = std::move(path);
}

const std::string& dump_path() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.dump_path;
}

void record_wall(Stage stage, std::int64_t step, std::uint32_t epoch,
                 ChannelKind kind, int channel) noexcept {
  if (enabled())
    detail::record_slow({step, epoch, stage, Domain::kWall, kind, channel,
                         double(trace::now_since_epoch_ns()) * 1e-9});
}

void record_virtual(Stage stage, std::int64_t step, std::uint32_t epoch,
                    ChannelKind kind, int channel, double t_s,
                    double dur_s) noexcept {
  if (enabled())
    detail::record_slow(
        {step, epoch, stage, Domain::kVirtual, kind, channel, t_s, dur_s});
}

std::optional<double> delta_s(const Event& a, const Event& b) noexcept {
  if (a.domain != b.domain) return std::nullopt;
  return b.t_s - a.t_s;
}

std::vector<ChannelDump> collect() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<ChannelDump> out;
  out.reserve(r.rings.size());
  for (const auto& [key, ring] : r.rings) {
    ChannelDump d;
    d.kind = ChannelKind(key.first);
    d.id = key.second;
    d.overwritten = ring.overwritten;
    d.events = ring.snapshot();
    out.push_back(std::move(d));
  }
  return out;
}

std::string dump_json(const std::string& reason) {
  const auto channels = collect();
  std::ostringstream os;
  os << "{\n  \"schema\": \"qv-flight-recorder\",\n  \"version\": 1,\n"
     << "  \"reason\": \"" << json_escape(reason) << "\",\n"
     << "  \"channels\": [";
  for (std::size_t ci = 0; ci < channels.size(); ++ci) {
    const ChannelDump& c = channels[ci];
    os << (ci ? ",\n    " : "\n    ") << "{\"kind\": \""
       << (c.kind == ChannelKind::kRank ? "rank" : "client")
       << "\", \"id\": " << c.id << ", \"overwritten\": " << c.overwritten
       << ", \"events\": [";
    for (std::size_t i = 0; i < c.events.size(); ++i) {
      const Event& ev = c.events[i];
      os << (i ? ",\n      " : "\n      ") << "{\"step\": " << ev.step
         << ", \"epoch\": " << ev.epoch << ", \"stage\": \""
         << stage_name(ev.stage) << "\", \"domain\": \""
         << domain_name(ev.domain) << "\", \"t_s\": " << fmt_s(ev.t_s)
         << ", \"dur_s\": " << fmt_s(ev.dur_s) << "}";
    }
    os << (c.events.empty() ? "" : "\n    ") << "]}";
  }
  os << (channels.empty() ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

bool dump_now(const char* reason) noexcept {
  try {
    if (!enabled()) return false;
    std::string path;
    {
      Recorder& r = recorder();
      std::lock_guard<std::mutex> lock(r.mu);
      path = r.dump_path;
    }
    if (path.empty()) return false;
    std::ofstream f(path, std::ios::trunc);
    if (!f) return false;
    f << dump_json(reason ? reason : "unknown");
    f.flush();
    return bool(f);
  } catch (...) {
    return false;
  }
}

std::string chrome_fragment() {
  const auto channels = collect();

  // Regroup by frame id + domain: one async track per (step, epoch, domain).
  struct Key {
    std::int64_t step;
    std::uint32_t epoch;
    Domain domain;
    bool operator<(const Key& o) const {
      if (step != o.step) return step < o.step;
      if (epoch != o.epoch) return epoch < o.epoch;
      return domain < o.domain;
    }
  };
  std::map<Key, std::vector<Event>> frames;
  for (const auto& c : channels)
    for (const auto& ev : c.events)
      frames[{ev.step, ev.epoch, ev.domain}].push_back(ev);
  if (frames.empty()) return {};

  std::ostringstream os;
  bool first = true;
  auto sep = [&]() {
    if (!first) os << ",\n";
    first = false;
  };
  auto ts_us = [](double t_s) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3f", t_s * 1e6);
    return std::string(buf);
  };
  bool virtual_meta = false;
  for (auto& [key, evs] : frames) {
    const int pid = key.domain == Domain::kWall ? 0 : 1;
    if (pid == 1 && !virtual_meta) {
      // Label the virtual-time domain as its own process so merged traces
      // can never read a WAN timestamp against the wall clock.
      sep();
      os << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
            "\"args\":{\"name\":\"wan virtual time\"}}";
      virtual_meta = true;
    }
    std::sort(evs.begin(), evs.end(),
              [](const Event& a, const Event& b) { return a.t_s < b.t_s; });
    double lo = evs.front().t_s;
    double hi = evs.front().t_s + evs.front().dur_s;
    for (const auto& ev : evs) {
      lo = std::min(lo, ev.t_s);
      hi = std::max(hi, ev.t_s + ev.dur_s);
    }
    char id[64], name[64];
    std::snprintf(id, sizeof id, "%lld@%u:%s",
                  static_cast<long long>(key.step), key.epoch,
                  domain_name(key.domain));
    std::snprintf(name, sizeof name, "frame %lld@%u",
                  static_cast<long long>(key.step), key.epoch);
    sep();
    os << "{\"ph\":\"b\",\"cat\":\"lineage\",\"id\":\"" << id
       << "\",\"name\":\"" << name << "\",\"pid\":" << pid
       << ",\"tid\":" << evs.front().channel << ",\"ts\":" << ts_us(lo) << "}";
    for (const auto& ev : evs) {
      sep();
      os << "{\"ph\":\"n\",\"cat\":\"lineage\",\"id\":\"" << id
         << "\",\"name\":\"" << stage_name(ev.stage) << "\",\"pid\":" << pid
         << ",\"tid\":" << ev.channel << ",\"ts\":" << ts_us(ev.t_s)
         << ",\"args\":{\"channel\":\""
         << (ev.channel_kind == ChannelKind::kRank ? "rank " : "client ")
         << ev.channel << "\",\"dur_ms\":" << fmt_s(ev.dur_s * 1e3) << "}}";
    }
    sep();
    os << "{\"ph\":\"e\",\"cat\":\"lineage\",\"id\":\"" << id
       << "\",\"name\":\"" << name << "\",\"pid\":" << pid
       << ",\"tid\":" << evs.back().channel << ",\"ts\":" << ts_us(hi) << "}";
  }
  return os.str();
}

void install_fault_observer() noexcept {
  vmpi::set_fault_observer(&observer_hook);
}

}  // namespace qv::obs::lineage
