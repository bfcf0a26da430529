#include "trace/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>

#include "metrics/metrics.hpp"

namespace qv::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_epoch_ns{0};
std::atomic<std::size_t> g_capacity{1u << 16};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadTrace>> bufs;
  int next_fallback_tid = 100000;  // clearly outside the rank range
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlives thread_local dtors
  return *r;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct TlsSlot {
  std::shared_ptr<ThreadTrace> buf;
  std::size_t capacity = 0;
};

TlsSlot& tls_slot() {
  thread_local TlsSlot slot;
  return slot;
}

ThreadTrace& local_buf() {
  TlsSlot& slot = tls_slot();
  if (!slot.buf) {
    slot.buf = std::make_shared<ThreadTrace>();
    slot.capacity = g_capacity.load(std::memory_order_relaxed);
    slot.buf->events.reserve(slot.capacity);
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    slot.buf->tid = r.next_fallback_tid++;
    r.bufs.push_back(slot.buf);
  }
  return *slot.buf;
}

void push_event(const Event& ev) {
  TlsSlot& slot = tls_slot();
  ThreadTrace& buf = local_buf();
  if (buf.events.size() >= slot.capacity) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back(ev);
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void enable() {
  reset();
  g_epoch_ns.store(now_ns(), std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_relaxed);
}

void disable() noexcept { g_enabled.store(false, std::memory_order_relaxed); }

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  // Buffers whose owning thread has exited (registry holds the only
  // reference) are dropped; live threads keep theirs, emptied.
  std::vector<std::shared_ptr<ThreadTrace>> live;
  for (auto& b : r.bufs) {
    if (b.use_count() == 1) continue;
    b->events.clear();
    b->dropped = 0;
    // The role label belongs to the recording that assigned it; a new run
    // re-labels its threads (or leaves an anonymous buffer that collect()
    // skips while it stays empty).
    b->name.clear();
    live.push_back(b);
  }
  r.bufs.swap(live);
}

void set_capacity(std::size_t events_per_thread) {
  g_capacity.store(events_per_thread == 0 ? 1 : events_per_thread,
                   std::memory_order_relaxed);
}

std::int64_t now_since_epoch_ns() noexcept {
  return now_ns() - g_epoch_ns.load(std::memory_order_relaxed);
}

void set_thread(int tid, std::string name) {
  ThreadTrace& buf = local_buf();
  buf.tid = tid;
  buf.name = std::move(name);
}

std::vector<ThreadTrace> collect() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<ThreadTrace> out;
  out.reserve(r.bufs.size());
  for (const auto& b : r.bufs) {
    if (b->events.empty() && b->name.empty()) continue;
    out.push_back(*b);
  }
  return out;
}

Span::Span(const char* cat, const char* name, std::int64_t arg,
           bool timed) noexcept
    : cat_(cat), name_(name), arg_(arg),
      // The caller wants the duration, or the trace buffer (timeline) and/or
      // the metrics registry (duration histogram) record the span.
      open_(timed || (cat && (enabled() || metrics::enabled()))) {
  if (open_) t0_ns_ = now_since_epoch_ns();
}

double Span::stop() noexcept {
  if (open_) {
    open_ = false;
    dur_ns_ = now_since_epoch_ns() - t0_ns_;
    if (cat_ && metrics::enabled())
      metrics::span_histogram(cat_, name_).observe(double(dur_ns_) * 1e-9);
    if (cat_ && enabled())
      push_event({t0_ns_, dur_ns_, cat_, name_, arg_, EventKind::kSpan});
  }
  return double(dur_ns_) * 1e-9;
}

void counter(const char* cat, const char* name, std::int64_t value) noexcept {
  if (enabled())
    push_event({now_since_epoch_ns(), value, cat, name, -1,
                EventKind::kCounter});
}

void instant(const char* cat, const char* name, std::int64_t arg) noexcept {
  if (enabled())
    push_event({now_since_epoch_ns(), 0, cat, name, arg, EventKind::kInstant});
}

namespace {

void json_escape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          os << hex;
        } else {
          os << c;
        }
    }
  }
}

void write_us(std::ostream& os, std::int64_t ns) {
  // microseconds with three decimals, avoiding float rounding
  std::int64_t us = ns / 1000;
  std::int64_t frac = ns % 1000;
  if (frac < 0) {  // ns can be slightly negative if a span straddled enable()
    frac += 1000;
    us -= 1;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(us),
                static_cast<long long>(frac));
  os << buf;
}

}  // namespace

void write_chrome_json(std::ostream& os, std::span<const ThreadTrace> traces,
                       std::string_view extra_events) {
  os << "[\n";
  bool first = true;
  auto sep = [&]() {
    if (!first) os << ",\n";
    first = false;
  };
  for (const ThreadTrace& t : traces) {
    if (!t.name.empty()) {
      sep();
      os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << t.tid
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      json_escape(os, t.name);
      os << "\"}}";
    }
    for (const Event& ev : t.events) {
      sep();
      switch (ev.kind) {
        case EventKind::kSpan:
          os << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << t.tid << ",\"ts\":";
          write_us(os, ev.ts_ns);
          os << ",\"dur\":";
          write_us(os, ev.dur_ns);
          os << ",\"cat\":\"" << ev.cat << "\",\"name\":\"" << ev.name
             << "\"";
          if (ev.arg >= 0) os << ",\"args\":{\"arg\":" << ev.arg << "}";
          os << "}";
          break;
        case EventKind::kCounter:
          os << "{\"ph\":\"C\",\"pid\":0,\"tid\":" << t.tid << ",\"ts\":";
          write_us(os, ev.ts_ns);
          os << ",\"cat\":\"" << ev.cat << "\",\"name\":\"" << ev.name
             << "\",\"args\":{\"value\":" << ev.dur_ns << "}}";
          break;
        case EventKind::kInstant:
          os << "{\"ph\":\"i\",\"pid\":0,\"tid\":" << t.tid
             << ",\"s\":\"t\",\"ts\":";
          write_us(os, ev.ts_ns);
          os << ",\"cat\":\"" << ev.cat << "\",\"name\":\"" << ev.name
             << "\"";
          if (ev.arg >= 0) os << ",\"args\":{\"arg\":" << ev.arg << "}";
          os << "}";
          break;
      }
    }
    if (t.dropped > 0) {
      sep();
      os << "{\"ph\":\"i\",\"pid\":0,\"tid\":" << t.tid
         << ",\"s\":\"t\",\"ts\":0,\"cat\":\"trace\",\"name\":"
            "\"events_dropped\",\"args\":{\"count\":"
         << t.dropped << "}}";
    }
  }
  if (!extra_events.empty()) {
    sep();
    os << extra_events;
  }
  os << "\n]\n";
}

bool write_chrome_json(const std::string& path,
                       std::span<const ThreadTrace> traces,
                       std::string_view extra_events) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  write_chrome_json(os, traces, extra_events);
  return os.good();
}

}  // namespace qv::trace
