// Frame lineage: an always-on flight recorder for the delivery chain.
//
// Every frame carries a stable identity — (step, view epoch) — from the
// render ranks through compositing, encoding, the per-client server queues,
// the simulated WAN, and finally a viewer's decode. Each stage appends one
// timestamped lineage event to a bounded per-channel ring buffer (a channel
// is a vmpi rank on the render side or a client id on the delivery side).
// The rings overwrite oldest-first, so the recorder always holds the most
// recent history and its steady-state cost is bounded.
//
// Two clock domains, never mixed:
//   * kWall    — seconds on the process steady clock, rebased to the trace
//                epoch (trace::now_since_epoch_ns), so lineage events line
//                up with trace spans in a merged Chrome timeline.
//   * kVirtual — the discrete-event WAN clock (WanLink time).
// A wall timestamp and a virtual timestamp are different units that happen
// to both be called "seconds"; delta_s() refuses to subtract across domains
// (returns nullopt), and the Chrome export puts the domains under separate
// pids so they can never be visually conflated either.
//
// Cost contract: when disabled (the default) every record_*() call is one
// relaxed atomic load — no clock reads, no locks, no allocation (measured
// on bench_pipeline_small; see DESIGN.md "Frame lineage & SLOs"). When
// enabled, a record is a clock read plus a mutex-guarded ring write; frame
// delivery runs at frame rates, not message rates, so one global mutex is
// plenty and keeps the recorder trivially TSan-clean.
//
// Post-mortems: set_dump_path() names a JSON file ("qv-flight-recorder"
// schema); dump_now() writes the recorder state there. install_fault_observer()
// hooks vmpi::Runtime so a fault-plan rank kill or a world abort dumps
// automatically — a fault-injected run leaves a post-mortem, not just an
// exit code. The DeliveryServer dumps on client eviction the same way.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace qv::obs::lineage {

enum class Domain : std::uint8_t { kWall = 0, kVirtual = 1 };

enum class Stage : std::uint8_t {
  kRender = 0,      // render ranks: raycasting the step's blocks
  kComposite,       // render ranks: parallel compositing
  kFrame,           // output rank: frame assembled (LIC overlay, tone map)
  kEncode,          // output/serve: wire encode (bank or encoder)
  kEnqueue,         // wire handed to a client's WAN link
  kQueueWait,       // virtual: time queued behind earlier frames / outages
  kWire,            // virtual: send issued -> transfer complete
  kDecode,          // viewer-side decode of a delivered frame
  kDrop,            // frame dropped for a client (budget / controller)
  kEvict,           // client evicted (stalled queue)
  kSteerApply,      // steering edit applied: epoch = the request id, so the
                    // event records request_id -> first-serving-epoch
};

enum class ChannelKind : std::uint8_t { kRank = 0, kClient = 1 };

struct Event {
  std::int64_t step = 0;      // simulation step (the frame id's first half)
  std::uint32_t epoch = 0;    // view epoch (the frame id's second half)
  Stage stage = Stage::kRender;
  Domain domain = Domain::kWall;
  ChannelKind channel_kind = ChannelKind::kRank;
  std::int32_t channel = 0;   // rank or client id
  double t_s = 0.0;           // stage start, in the event's own domain
  double dur_s = 0.0;         // stage duration; 0 for point events
};

const char* stage_name(Stage s) noexcept;
const char* domain_name(Domain d) noexcept;

// --- global switch ---------------------------------------------------------
namespace detail {
extern std::atomic<bool> g_on;
void record_slow(const Event& ev) noexcept;
}  // namespace detail

inline bool enabled() noexcept {
  return detail::g_on.load(std::memory_order_relaxed);
}

// Clears the recorder, (re)arms it. Same concurrency contract as
// trace::enable(): not concurrent with recording threads.
void enable();
void disable() noexcept;
void reset();
// Per-channel ring capacity for rings created after this call (default 256).
void set_capacity(std::size_t events_per_channel);
// Where dump_now() writes; empty disables dumping.
void set_dump_path(std::string path);
const std::string& dump_path();

// --- recording -------------------------------------------------------------
inline void record(const Event& ev) noexcept {
  if (!enabled()) return;
  detail::record_slow(ev);
}

// Wall-domain point event (kSteerApply), stamped now on the trace clock. A
// timed stage records its event through obs::Stage (obs/stage.hpp), which
// reuses its trace span's own start and duration.
void record_wall(Stage stage, std::int64_t step, std::uint32_t epoch,
                 ChannelKind kind, int channel) noexcept;

// Virtual-domain convenience: the caller owns the clock, so t_s (the stage
// START on that clock) is explicit.
void record_virtual(Stage stage, std::int64_t step, std::uint32_t epoch,
                    ChannelKind kind, int channel, double t_s,
                    double dur_s = 0.0) noexcept;

// --- cross-domain safety ---------------------------------------------------
// b.t_s - a.t_s, or nullopt when the events live in different clock
// domains — a wall/virtual difference is meaningless and the recorder
// refuses to compute one (test-pinned).
std::optional<double> delta_s(const Event& a, const Event& b) noexcept;

// --- inspection / export ---------------------------------------------------
struct ChannelDump {
  ChannelKind kind = ChannelKind::kRank;
  std::int32_t id = 0;
  std::uint64_t overwritten = 0;  // events the ring displaced (oldest-first)
  std::vector<Event> events;      // oldest -> newest
};

// Snapshot of every channel ring, ordered by (kind, id). Safe to call while
// recorders run (the recorder mutex serializes).
std::vector<ChannelDump> collect();

// The "qv-flight-recorder" JSON document for the current recorder state.
std::string dump_json(const std::string& reason);

// Write dump_json(reason) to the configured dump path. No-op (returns
// false) when no path is set or the recorder is disabled; never throws —
// this runs on fault paths.
bool dump_now(const char* reason) noexcept;

// Chrome trace-event fragment (comma-joined event objects, no enclosing
// brackets) rendering every frame id as an async waterfall: ph "b"/"e"
// bracket the frame per domain, ph "n" marks each stage. Wall events emit
// under pid 0 (alongside trace spans), virtual events under pid 1 with its
// own process_name — the two domains never share a timeline. Empty string
// when the recorder holds no events. Feed to trace::write_chrome_json's
// extra_events parameter.
std::string chrome_fragment();

// Register the vmpi fault observer: a fault-plan rank kill dumps with
// reason "rank_killed", a world abort with "world_abort". Idempotent.
void install_fault_observer() noexcept;

}  // namespace qv::obs::lineage
