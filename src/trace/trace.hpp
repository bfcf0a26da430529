#pragma once
// Per-rank event tracing.
//
// Every vmpi rank is a thread of one process, so "per-rank" buffers are
// thread-local.  Each thread appends fixed-size events to its own buffer
// without any locking; a process-wide registry of shared_ptr<ThreadTrace>
// keeps the buffers alive after the owning thread joins, so the collector can
// read them afterwards (thread join provides the happens-before edge).
//
// Overhead contract: when both tracing and metrics are disabled (the
// default) a Span costs two relaxed atomic loads — no clock reads, no
// allocation — unless it is timed: then it reads the clock at open and
// close, as the WallTimer it replaces did.  When enabled, a span is two
// steady_clock reads plus one vector push_back into a pre-reserved buffer;
// events past the per-thread capacity are counted as dropped rather than
// grown, so steady-state cost is bounded.
//
// Spans also feed src/metrics: while metrics::enabled(), every span records
// its duration into the "span.<cat>.<name>" histogram, with or without
// tracing on.  That is what makes per-stage histogram percentiles agree
// with trace-derived span durations — they measure the same interval.
//
// Concurrency contract: enable()/disable()/reset()/collect() must not run
// concurrently with traced work.  In this codebase that is natural: they are
// called before vmpi::Runtime::run spawns the rank threads and after it joins
// them.
//
// Span category/name pointers must be string literals (or otherwise outlive
// the trace); they are stored as const char* and serialized at export time.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace qv::trace {

enum class EventKind : std::uint8_t {
  kSpan,     // duration event ("X" in chrome trace format)
  kCounter,  // sampled value ("C")
  kInstant,  // point event ("i")
};

struct Event {
  std::int64_t ts_ns = 0;   // start time, relative to the trace epoch
  std::int64_t dur_ns = 0;  // span duration; counters store the value here
  const char* cat = "";
  const char* name = "";
  std::int64_t arg = -1;  // step / byte count / user payload; -1 = unset
  EventKind kind = EventKind::kSpan;
};

struct ThreadTrace {
  int tid = -1;                 // vmpi world rank, or a fallback ordinal
  std::string name;             // role label, e.g. "input 0", "render 2"
  std::vector<Event> events;
  std::uint64_t dropped = 0;    // events discarded after capacity was reached
};

// --- global switch -------------------------------------------------------
bool enabled() noexcept;
// Clears all buffers, restarts the epoch, and turns recording on.
void enable();
void disable() noexcept;
// Clears every registered buffer (and forgets buffers whose thread exited).
void reset();
// Per-thread event capacity for buffers created after this call.
void set_capacity(std::size_t events_per_thread);

// Steady-clock nanoseconds since the epoch enable() set (the zero point of
// every exported timestamp).  Other recorders (obs/lineage) stamp their
// wall-domain events with this so a merged timeline lines up with spans.
// Monotonic regardless of enabled(); before the first enable() the epoch is
// the steady clock's own zero.
std::int64_t now_since_epoch_ns() noexcept;

// Labels the calling thread in the exported trace.  tid should be the vmpi
// world rank so merged timelines line up; name is the pipeline role.
void set_thread(int tid, std::string name);

// Snapshots every registered buffer.  Call only when traced threads have
// been joined (see concurrency contract above).
std::vector<ThreadTrace> collect();

// --- recording ------------------------------------------------------------
// One clock read at open and one at close feed the trace event, the span
// histogram and stop(). A null `cat` records nothing: the span is then only
// that clock (obs::Stage's span-less stages).
class Span {
 public:
  Span(const char* cat, const char* name, std::int64_t arg = -1,
       bool timed = false) noexcept;
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Closes the span on the first call; its duration in seconds, 0 when the
  // clock was never read.
  double stop() noexcept;
  bool open() const noexcept { return open_; }  // read at open, not closed
  std::int64_t start_ns() const noexcept { return t0_ns_; }  // trace clock
  std::int64_t dur_ns() const noexcept { return dur_ns_; }

 private:
  std::int64_t t0_ns_ = 0;
  std::int64_t dur_ns_ = 0;
  const char* cat_;
  const char* name_;
  std::int64_t arg_;
  bool open_;
};

void counter(const char* cat, const char* name, std::int64_t value) noexcept;
void instant(const char* cat, const char* name, std::int64_t arg = -1) noexcept;

// --- export ---------------------------------------------------------------
// Chrome trace-event JSON ("JSON array format"), loadable by perfetto and
// chrome://tracing.  Timestamps are emitted in microseconds as the format
// requires; sub-microsecond precision is kept as a fractional part.
// `extra_events`, when non-empty, is a fragment of comma-joined trace-event
// objects (no enclosing brackets) appended to the same array — how the
// lineage recorder merges its per-frame async waterfalls into the timeline.
void write_chrome_json(std::ostream& os, std::span<const ThreadTrace> traces,
                       std::string_view extra_events = {});
bool write_chrome_json(const std::string& path,
                       std::span<const ThreadTrace> traces,
                       std::string_view extra_events = {});

}  // namespace qv::trace
