// Multi-viewer delivery server: one frame stream fanned out to N simulated
// clients with per-client fault isolation.
//
// The output processor's only delivery path: a point-to-point stream is a
// one-client fleet. The paper's endgame topology is many heterogeneous
// remote viewers watching the same run. Three failure modes dominate at that
// scale, and the server makes each impossible by construction rather than
// unlikely by tuning:
//
//  * A slow client must never cost encode CPU or stall a fast one. Every
//    (frame, tier, kind) is encoded ONCE by the shared FrameEncoderBank and
//    the wire bytes fanned out; each client has its own WanLink (own virtual
//    clock, bandwidth, outage schedule), so backpressure isolation is a
//    structural property, not a scheduling hope.
//  * A slow client must cost bounded queue memory. Each client has a byte
//    budget over its in-flight wire bytes; a frame that would exceed it is
//    dropped FOR THAT CLIENT ONLY, and the next frame it does receive is a
//    keyframe (drop-then-re-anchor), so a drop can never silently corrupt
//    the delta chain.
//  * A delta must never be applied against state the client lost. Joins and
//    reconnects start with a keyframe; an outage longer than the evict
//    timeout tears the connection down (queued bytes discarded — the client
//    lost them) and a reconnect gets a fresh decoder plus a keyframe. Tier
//    changes re-anchor too: a tier-t delta is sent only to a client whose
//    last received step is exactly the tier-t chain's reference.
//
// Everything is deterministic given the caller's clock and the seeded link
// configs: the chaos harness (src/stream/chaos.hpp) runs 512-client sweeps
// and asserts bit-identical digests per seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "stream/control.hpp"
#include "stream/controller.hpp"
#include "stream/frame_codec.hpp"
#include "stream/link.hpp"

namespace qv::stream {

// --- control messages -------------------------------------------------------
// Session-control framing sent over a client's link alongside frames:
// join/leave acknowledgements and eviction notices. Fixed 32-byte layout,
// CRC-protected like every wire header in the pipeline. decode_control is a
// hostile-input boundary (see the ControlCodecFuzz wall): malformed,
// truncated, or bit-flipped input comes back std::nullopt — never a crash,
// never a misparsed message.

inline constexpr std::uint32_t kControlMagic = 0x43535651u;  // "QVSC"
inline constexpr std::uint16_t kControlVersion = 1;

enum class ControlKind : std::uint8_t { kJoinAck = 0, kLeaveAck = 1, kEvict = 2 };

struct ControlMsg {
  ControlKind kind = ControlKind::kJoinAck;
  std::int32_t client_id = -1;
  std::int32_t step = -1;  // last submitted step when the event happened
  double time = 0.0;       // server clock at emission
};

inline constexpr std::size_t kControlWireSize = 32;

std::vector<std::uint8_t> encode_control(const ControlMsg& m);
std::optional<ControlMsg> decode_control(std::span<const std::uint8_t> wire);
// Cheap dispatch for a delivery loop: does this buffer claim to be a
// control message (as opposed to a frame)?
bool is_control_wire(std::span<const std::uint8_t> wire);

// --- configuration ----------------------------------------------------------

// One simulated viewer's connection characteristics.
struct ClientLinkConfig {
  double bandwidth_bytes_per_s = 8e6;
  double latency_s = 0.02;
  sim::BandwidthFaultConfig fault;  // seeded outage windows (optional)
};

// Test/harness hook: every frame a verified client successfully decodes, in
// delivery order, with the client id attached — the stale/fresh property
// wall compares these pixels and epoch echoes against reference renders.
struct ServerCapture {
  struct Frame {
    int client = -1;
    int step = 0;
    std::uint32_t epoch = 0;
    int tier = 0;
    int base_step = -1;
    bool keyframe = false;
    img::Image8 image;
  };
  std::vector<Frame> frames;
};

struct ServerConfig {
  // Per-client cap on queued (in-flight) wire bytes. A frame that would
  // push a client past it is dropped for that client and the client
  // re-anchors on the next keyframe. Must fit at least one keyframe at the
  // coarsest tier or a backlogged client can never re-anchor.
  std::size_t queue_budget_bytes = 1u << 20;
  // A connected client whose queue has made no progress for this long is
  // evicted: connection torn down, queued bytes discarded.
  double evict_timeout_s = 10.0;
  // Per-client degradation policy (each client gets its own controller).
  ControllerConfig controller;
  // Decode every delivered frame with an in-process per-client viewer and
  // record (step, kind, tier, latency). The chaos invariants need it; the
  // large-fleet bench can turn it off to time the server side alone.
  bool verify_clients = true;
  // When set, finish() writes client 0's delivered frames (wire bytes, in
  // delivery order, control messages left out) as a record file for
  // `quakeviz view`. With verify_clients, only frames that decoded.
  std::string record_path;
  // When set, every decoded client frame is appended here (verify_clients
  // only). Tests/harness only; never in a bench's timed section.
  ServerCapture* capture = nullptr;
};

// --- reports ----------------------------------------------------------------

struct ClientReport {
  int id = -1;
  bool connected = false;  // still connected at finish()
  bool evicted = false;    // ever evicted
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;  // budget or controller drops
  std::uint64_t keyframes_sent = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t control_delivered = 0;
  std::uint64_t bytes_sent = 0;
  std::size_t peak_queue_bytes = 0;
  double max_latency_s = 0.0;
  // Degradation controller level: the highest any frame saw, and the level
  // at finish() (0 = lossless deltas; controller max_level = keyframe-only).
  int peak_level = 0;
  int final_level = 0;
  // Every (re)join's first delivered frame was a keyframe — the re-anchor
  // invariant, observed from the client side.
  bool rejoin_keyframe_ok = true;
  // Per-delivery log (verify_clients only): the chaos digest and the p95
  // computations are built from this.
  struct Delivery {
    int step = 0;
    int tier = 0;
    bool keyframe = false;
    std::uint32_t epoch = 0;  // view epoch echoed by the frame header
    std::int32_t base_step = -1;  // delta reference step; -1 for keyframes
    std::uint32_t bytes = 0;
    double latency_s = 0.0;
  };
  std::vector<Delivery> deliveries;

  // Exact order statistics over deliveries (the run report's e2e block).
  double p50_latency_s() const;
  double p95_latency_s() const;
};

struct ServerReport {
  std::uint64_t frames_submitted = 0;
  std::uint64_t frames_sent = 0;     // summed over clients
  std::uint64_t frames_dropped = 0;  // summed over clients
  std::uint64_t bytes_out = 0;       // aggregate egress, frames + control
  std::uint64_t encodes = 0;         // actual encode work performed
  std::uint64_t encode_reuses = 0;   // wire buffers served from the bank
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t evictions = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t decode_failures = 0;
  std::size_t peak_client_queue_bytes = 0;  // worst single client
  std::size_t peak_total_queue_bytes = 0;   // worst sum over clients
  std::vector<ClientReport> clients;        // every client ever, by id
};

// --- the server -------------------------------------------------------------

class DeliveryServer {
 public:
  DeliveryServer(const ServerConfig& cfg, int width, int height);
  ~DeliveryServer();
  DeliveryServer(const DeliveryServer&) = delete;
  DeliveryServer& operator=(const DeliveryServer&) = delete;

  // Connect a new viewer; returns its client id. The first frame it is sent
  // is a keyframe; a join ack is queued immediately.
  int join(double now, const ClientLinkConfig& link);

  // Graceful disconnect: a leave ack is queued, in-flight frames finish
  // crossing (the client sees them), then the connection is torn down.
  void leave(double now, int id);

  // A previously evicted (or departed) client comes back: fresh connection,
  // fresh decoder — it gets a join ack and a keyframe, never a delta
  // against state it lost.
  void reconnect(double now, int id, const ClientLinkConfig& link);

  // Offer the frame for `step` to every connected client. Encodes each
  // needed (tier, kind) once; never blocks; drops per client per policy.
  void submit(double now, int step, const img::Image8& frame);

  // View epoch stamped into frame headers and lineage events from the next
  // pack on ((step, epoch) is the end-to-end frame id). Call before submit.
  void set_epoch(std::uint32_t epoch);
  std::uint32_t epoch() const;

  // A steering edit was applied: stamp the new epoch AND invalidate every
  // tier's delta chain, so the first frame every client receives after the
  // edit is forced to a keyframe by the existing ref_step < 0 re-anchor
  // rule — no delta can cross the view change. Unlike reconnect(), this
  // deliberately does NOT touch per-client DegradationController or decoder
  // state: an edit is not a network event, so a client's earned tier level
  // and recovery credit survive (the tier-continuity regression pins this).
  void apply_view_change(std::uint32_t epoch);

  // Where viewer steering edits land (hostile boundary + latest-wins
  // coalescing; see stream/control.hpp). The serve loop drains this at
  // frame boundaries and answers with apply_view_change.
  SteerInbox& steer_inbox() { return steer_inbox_; }

  // Advance every client's link to `now` without a new frame (delivers
  // stragglers, detects stalls/evictions between frames).
  void poll(double now);

  int connected_clients() const;
  std::size_t total_queue_bytes() const;
  // Introspection for tests/harness: the report-so-far for one client.
  const ClientReport& client(int id) const;

  // Drain every connected client's link, tear everything down, and return
  // the final report.
  ServerReport finish();

 private:
  struct Client;
  void service(Client& c, double now);
  void handle_batch(Client& c, std::vector<DeliveredFrame> delivered);
  void evict(Client& c, double now);
  void send_control(Client& c, double now, ControlKind kind);
  void observe_queues();

  ServerConfig cfg_;
  int w_, h_;
  FrameEncoderBank bank_;
  SteerInbox steer_inbox_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::vector<std::uint8_t>> record_;  // client 0's frames
  ServerReport rep_;
  int last_step_ = -1;
  std::uint32_t epoch_ = 0;
};

// --- fleet helper -----------------------------------------------------------
// Population description behind the `--serve*` flags: `count` clients with
// bandwidths log-spread from `bandwidth_hi` down to `bandwidth_lo` (lo == 0
// gives a uniform fleet). A nonzero outage_seed makes every third client
// flap with seeded outage windows derived from it.
struct ServeFleetConfig {
  bool enabled = false;
  int count = 0;
  double bandwidth_hi = 8e6;
  double bandwidth_lo = 0.0;
  double latency_s = 0.02;
  std::uint64_t outage_seed = 0;
  ServerConfig server;
};

std::vector<ClientLinkConfig> make_fleet(const ServeFleetConfig& cfg);

}  // namespace qv::stream
