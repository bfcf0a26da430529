#include "stream/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "metrics/metrics.hpp"
#include "obs/stage.hpp"
#include "trace/trace.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace qv::stream {

// --- control messages -------------------------------------------------------

namespace {

struct ControlWire {
  std::uint32_t magic;
  std::uint16_t version;
  std::uint8_t kind;
  std::uint8_t pad0;
  std::int32_t client_id;
  std::int32_t step;
  double time;
  std::uint32_t crc;  // CRC-32 of the 24 bytes preceding this field
  std::uint8_t pad[4];
};
static_assert(sizeof(ControlWire) == kControlWireSize);
constexpr std::size_t kControlCrcSpan = offsetof(ControlWire, crc);

}  // namespace

std::vector<std::uint8_t> encode_control(const ControlMsg& m) {
  ControlWire w{};
  w.magic = kControlMagic;
  w.version = kControlVersion;
  w.kind = std::uint8_t(m.kind);
  w.client_id = m.client_id;
  w.step = m.step;
  w.time = m.time;
  std::vector<std::uint8_t> out(sizeof(ControlWire));
  std::memcpy(out.data(), &w, sizeof(w));
  w.crc = util::crc32({out.data(), kControlCrcSpan});
  std::memcpy(out.data(), &w, sizeof(w));
  return out;
}

std::optional<ControlMsg> decode_control(std::span<const std::uint8_t> wire) {
  if (wire.size() != kControlWireSize) return std::nullopt;
  ControlWire w;
  std::memcpy(&w, wire.data(), sizeof(w));
  if (w.magic != kControlMagic || w.version != kControlVersion)
    return std::nullopt;
  if (w.kind > std::uint8_t(ControlKind::kEvict)) return std::nullopt;
  // Strict zero pad, same policy as the frame header: corruption has
  // nowhere to hide and the bytes stay reserved for a future version.
  if (w.pad0 || w.pad[0] || w.pad[1] || w.pad[2] || w.pad[3])
    return std::nullopt;
  if (util::crc32({wire.data(), kControlCrcSpan}) != w.crc)
    return std::nullopt;
  ControlMsg m;
  m.kind = ControlKind(w.kind);
  m.client_id = w.client_id;
  m.step = w.step;
  m.time = w.time;
  return m;
}

bool is_control_wire(std::span<const std::uint8_t> wire) {
  if (wire.size() < sizeof(std::uint32_t)) return false;
  std::uint32_t magic;
  std::memcpy(&magic, wire.data(), sizeof(magic));
  return magic == kControlMagic;
}

// --- metrics ----------------------------------------------------------------

namespace {

struct ServerMetrics {
  metrics::Counter& bytes_out = metrics::counter("stream.server.bytes_out");
  metrics::Counter& frames_sent =
      metrics::counter("stream.server.frames_sent");
  metrics::Counter& dropped = metrics::counter("stream.server.dropped_frames");
  metrics::Counter& keyframes = metrics::counter("stream.server.keyframes");
  metrics::Counter& joins = metrics::counter("stream.server.joins");
  metrics::Counter& leaves = metrics::counter("stream.server.leaves");
  metrics::Counter& evictions = metrics::counter("stream.server.evictions");
  metrics::Counter& reconnects = metrics::counter("stream.server.reconnects");
  metrics::Counter& decode_failures =
      metrics::counter("stream.server.decode_failures");
  metrics::Counter& control_out = metrics::counter("stream.server.control_out");
  metrics::Counter& encodes = metrics::counter("stream.server.encodes");
  metrics::Counter& encode_reuses =
      metrics::counter("stream.server.encode_reuses");
  metrics::Gauge& clients = metrics::gauge("stream.server.clients");
  // Instantaneous queued wire bytes, summed over every connected client.
  metrics::Gauge& queue_bytes = metrics::gauge("stream.queue_bytes");
  metrics::Histogram& latency = metrics::histogram(
      "stream.server.latency", metrics::HistogramSpec::duration_seconds());
  metrics::Histogram& client_queue_bytes = metrics::histogram(
      "stream.server.queue_bytes", metrics::HistogramSpec::bytes());
  // Per-stage e2e frame latency (the qv-run-report waterfall). encode and
  // decode are wall time; queue_wait and wire are link (virtual) time —
  // same split the lineage domains enforce.
  metrics::Histogram& e2e_encode = metrics::histogram(
      "stream.e2e.encode", metrics::HistogramSpec::duration_seconds());
  metrics::Histogram& e2e_queue_wait = metrics::histogram(
      "stream.e2e.queue_wait", metrics::HistogramSpec::duration_seconds());
  metrics::Histogram& e2e_wire = metrics::histogram(
      "stream.e2e.wire", metrics::HistogramSpec::duration_seconds());
  metrics::Histogram& e2e_decode = metrics::histogram(
      "stream.e2e.decode", metrics::HistogramSpec::duration_seconds());
  static ServerMetrics& get() {
    static ServerMetrics m;
    return m;
  }
};

WanLinkConfig make_link_config(const ClientLinkConfig& cfg) {
  WanLinkConfig lc;
  lc.bandwidth_bytes_per_s = cfg.bandwidth_bytes_per_s;
  lc.latency_s = cfg.latency_s;
  lc.fault = cfg.fault;
  // The link clock follows the caller's clock; give pre-scheduled outage
  // windows a horizon no real run outlives.
  if (lc.fault.active() && lc.fault.horizon_seconds <= 0.0)
    lc.fault.horizon_seconds = 3600.0;
  return lc;
}

}  // namespace

// --- reports ----------------------------------------------------------------

namespace {

// Exact order statistic: smallest value covering >= p% of the sorted mass.
double delivery_percentile(const std::vector<ClientReport::Delivery>& ds,
                           std::size_t p) {
  if (ds.empty()) return 0.0;
  std::vector<double> lat;
  lat.reserve(ds.size());
  for (const auto& d : ds) lat.push_back(d.latency_s);
  std::sort(lat.begin(), lat.end());
  const std::size_t idx = (lat.size() * p + 99) / 100;  // ceil(p/100 n) >= 1
  return lat[idx - 1];
}

}  // namespace

double ClientReport::p50_latency_s() const {
  return delivery_percentile(deliveries, 50);
}

double ClientReport::p95_latency_s() const {
  return delivery_percentile(deliveries, 95);
}

// --- the server -------------------------------------------------------------

struct DeliveryServer::Client {
  std::unique_ptr<WanLink> link;
  DegradationController controller;
  FrameDecoder viewer;
  ClientReport rep;
  bool connected = false;
  bool needs_keyframe = true;  // (re)join, drop, or tier change pending
  bool expect_key = true;      // next delivered frame must be a keyframe
  int chain_tier = -1;         // tier of the last frame sent
  int chain_step = -1;         // step of the last frame sent
  int control_in_flight = 0;   // control wires queued on the link
  double last_progress = 0.0;  // server clock of last queue progress
};

DeliveryServer::DeliveryServer(const ServerConfig& cfg, int width, int height)
    : cfg_(cfg), w_(width), h_(height), bank_(width, height) {}

DeliveryServer::~DeliveryServer() = default;

int DeliveryServer::join(double now, const ClientLinkConfig& link) {
  auto& m = ServerMetrics::get();
  const int id = int(clients_.size());
  auto c = std::make_unique<Client>();
  c->rep.id = id;
  c->rep.connected = true;
  c->link = std::make_unique<WanLink>(make_link_config(link));
  c->controller = DegradationController(cfg_.controller);
  c->connected = true;
  c->last_progress = now;
  clients_.push_back(std::move(c));
  ++rep_.joins;
  m.joins.add();
  m.clients.set(double(connected_clients()));
  send_control(*clients_.back(), now, ControlKind::kJoinAck);
  return id;
}

void DeliveryServer::reconnect(double now, int id,
                               const ClientLinkConfig& link) {
  auto& m = ServerMetrics::get();
  Client& c = *clients_.at(std::size_t(id));
  if (c.connected)
    throw std::logic_error("DeliveryServer: reconnect of a connected client");
  c.link = std::make_unique<WanLink>(make_link_config(link));
  c.controller = DegradationController(cfg_.controller);
  // The client lost its state with the connection: fresh decoder, and the
  // first frame it gets MUST be a keyframe.
  c.viewer = FrameDecoder();
  c.connected = true;
  c.needs_keyframe = true;
  c.expect_key = true;
  c.chain_tier = -1;
  c.chain_step = -1;
  c.control_in_flight = 0;
  c.last_progress = now;
  c.rep.connected = true;
  ++rep_.reconnects;
  m.reconnects.add();
  m.clients.set(double(connected_clients()));
  send_control(c, now, ControlKind::kJoinAck);
}

void DeliveryServer::leave(double now, int id) {
  auto& m = ServerMetrics::get();
  Client& c = *clients_.at(std::size_t(id));
  if (!c.connected || !c.link) return;
  // Graceful: the leave ack is queued last, everything already in flight
  // finishes crossing, and the client sees all of it (FIFO).
  send_control(c, now, ControlKind::kLeaveAck);
  handle_batch(c, c.link->drain());
  c.link.reset();
  c.connected = false;
  c.rep.connected = false;
  ++rep_.leaves;
  m.leaves.add();
  m.clients.set(double(connected_clients()));
}

void DeliveryServer::send_control(Client& c, double now, ControlKind kind) {
  auto& m = ServerMetrics::get();
  ControlMsg msg;
  msg.kind = kind;
  msg.client_id = c.rep.id;
  msg.step = last_step_;
  msg.time = now;
  auto wire = encode_control(msg);
  rep_.bytes_out += wire.size();
  c.rep.bytes_sent += wire.size();
  m.bytes_out.add(wire.size());
  m.control_out.add();
  c.link->send(now, /*step=*/-1, std::move(wire));
  ++c.control_in_flight;
}

void DeliveryServer::evict(Client& c, double now) {
  auto& m = ServerMetrics::get();
  trace::instant("server", "evict", c.rep.id);
  // Notify (the notice shares the dead connection's fate) and tear down:
  // queued bytes are discarded — the client lost them, which is exactly why
  // its next frame after a reconnect must be a keyframe.
  send_control(c, now, ControlKind::kEvict);
  c.link->drain();  // let virtual transfers finish; discard the deliveries
  c.link.reset();
  c.control_in_flight = 0;
  c.connected = false;
  c.rep.connected = false;
  c.rep.evicted = true;
  ++rep_.evictions;
  m.evictions.add();
  m.clients.set(double(connected_clients()));
  trace::instant("server", "evict", c.rep.id);
  if (obs::lineage::enabled()) {
    obs::lineage::record_virtual(obs::lineage::Stage::kEvict, last_step_,
                                 epoch_, obs::lineage::ChannelKind::kClient,
                                 c.rep.id, now);
    // The eviction IS the post-mortem trigger: dump the flight recorder
    // while the evicted client's last frames are still in its ring.
    obs::lineage::dump_now("client_evicted");
  }
}

void DeliveryServer::handle_batch(Client& c,
                                  std::vector<DeliveredFrame> delivered) {
  auto& m = ServerMetrics::get();
  for (auto& d : delivered) {
    if (is_control_wire(d.wire)) {
      --c.control_in_flight;
      if (decode_control(d.wire)) {
        ++c.rep.control_delivered;
      } else {
        ++c.rep.decode_failures;
        ++rep_.decode_failures;
        m.decode_failures.add();
      }
      continue;
    }
    // The header's (step, epoch) is the frame id every lineage event below
    // carries — readable even when the payload fails to decode.
    std::uint32_t frame_epoch = 0;
    if (d.wire.size() >= sizeof(FrameHeader)) {
      FrameHeader h;
      std::memcpy(&h, d.wire.data(), sizeof(h));
      frame_epoch = h.epoch;
    }
    ClientReport::Delivery rec;
    rec.step = d.step;
    rec.epoch = frame_epoch;
    rec.bytes = std::uint32_t(d.bytes);
    rec.latency_s = d.delivered_at - d.sent_at;
    if (obs::lineage::enabled()) {
      using namespace obs::lineage;
      record_virtual(Stage::kWire, d.step, frame_epoch, ChannelKind::kClient,
                     c.rep.id, d.sent_at, rec.latency_s);
    }
    if (metrics::enabled()) {
      m.e2e_wire.observe(rec.latency_s);
      if (c.link) {
        // Queue wait = crossing time in excess of the frame's ideal solo
        // crossing (serialization + propagation): time spent behind earlier
        // frames or outage windows on this client's connection.
        const WanLinkConfig& lc = c.link->config();
        const double ideal =
            double(d.bytes) / lc.bandwidth_bytes_per_s + lc.latency_s;
        m.e2e_queue_wait.observe(std::max(0.0, rec.latency_s - ideal));
      }
    }
    if (cfg_.verify_clients) {
      // Per-client stages take no trace span: those of a large fleet would
      // fill the trace buffers.
      obs::Stage decode({.step = d.step, .histogram = &m.e2e_decode,
                         .lineage = obs::lineage::Stage::kDecode,
                         .epoch = frame_epoch,
                         .kind = obs::lineage::ChannelKind::kClient,
                         .channel = c.rep.id});
      auto frame = c.viewer.decode(d.wire);
      decode.stop();
      if (!frame) {
        ++c.rep.decode_failures;
        ++rep_.decode_failures;
        m.decode_failures.add();
        continue;
      }
      rec.tier = frame->tier;
      rec.keyframe = frame->kind == FrameKind::kKey;
      rec.base_step = frame->base_step;
      if (cfg_.capture) {
        cfg_.capture->frames.push_back({c.rep.id, frame->step, frame->epoch,
                                        frame->tier, frame->base_step,
                                        rec.keyframe,
                                        std::move(frame->image)});
      }
    } else if (d.wire.size() >= sizeof(FrameHeader)) {
      FrameHeader h;
      std::memcpy(&h, d.wire.data(), sizeof(h));
      rec.tier = h.tier;
      rec.keyframe = h.kind == std::uint8_t(FrameKind::kKey);
      rec.base_step = rec.keyframe ? -1 : h.base_step;
    }
    if (c.expect_key) {
      // The first frame after every (re)join must be self-contained.
      if (!rec.keyframe) c.rep.rejoin_keyframe_ok = false;
      c.expect_key = false;
    }
    ++c.rep.frames_delivered;
    c.rep.max_latency_s = std::max(c.rep.max_latency_s, rec.latency_s);
    if (metrics::enabled()) m.latency.observe(rec.latency_s);
    c.rep.deliveries.push_back(rec);
    if (c.rep.id == 0 && !cfg_.record_path.empty())
      record_.push_back(std::move(d.wire));
  }
}

// Seconds of [from, to] the link's seeded outage schedule had the line down.
// Outage windows are sorted and disjoint, so a linear scan with early exit
// is fine at the fleet sizes the server handles.
static double outage_overlap(const WanLink& link, double from, double to) {
  double down = 0.0;
  for (const auto& [start, end] : link.faults().outages()) {
    if (start >= to) break;
    if (end <= from) continue;
    down += std::min(end, to) - std::max(start, from);
  }
  return down;
}

void DeliveryServer::service(Client& c, double now) {
  if (!c.connected || !c.link) return;
  auto delivered = c.link->poll(now);
  if (!delivered.empty()) c.last_progress = now;
  handle_batch(c, std::move(delivered));
  if (c.link->in_flight() == 0) {
    c.last_progress = now;
  } else {
    // A client stalled only because its seeded outage window is open is not
    // misbehaving — the WAN is. Exempt outage time from the no-progress
    // clock so eviction measures the client's own (lack of) throughput; a
    // genuinely starved link still runs out the timeout.
    const double stalled = (now - c.last_progress) -
                           outage_overlap(*c.link, c.last_progress, now);
    if (stalled > cfg_.evict_timeout_s) evict(c, now);
  }
}

void DeliveryServer::observe_queues() {
  auto& m = ServerMetrics::get();
  std::size_t total = 0;
  for (const auto& c : clients_) {
    if (!c->connected || !c->link) continue;
    const std::size_t q = c->link->in_flight_bytes();
    total += q;
    c->rep.peak_queue_bytes = std::max(c->rep.peak_queue_bytes, q);
    rep_.peak_client_queue_bytes = std::max(rep_.peak_client_queue_bytes, q);
    if (metrics::enabled()) m.client_queue_bytes.observe(double(q));
  }
  rep_.peak_total_queue_bytes = std::max(rep_.peak_total_queue_bytes, total);
  m.queue_bytes.set(double(total));
}

void DeliveryServer::set_epoch(std::uint32_t epoch) {
  epoch_ = epoch;
  bank_.set_epoch(epoch);
}

std::uint32_t DeliveryServer::epoch() const { return epoch_; }

void DeliveryServer::apply_view_change(std::uint32_t epoch) {
  epoch_ = epoch;
  bank_.set_epoch(epoch);
  // Dropping every tier reference makes ref_step(t) < 0, and the keyframe
  // decision in submit() already re-anchors on that — the keyframe-on-edit
  // invariant rides the same rule that protects joins and drops. Client
  // controllers, decoders, and chain bookkeeping are left alone: their next
  // keyframe re-anchors them at whatever tier they had earned.
  bank_.invalidate_chains();
  trace::instant("server", "view_change", int(epoch));
}

void DeliveryServer::submit(double now, int step, const img::Image8& frame) {
  auto& m = ServerMetrics::get();
  trace::Span span("stream", "serve_frame", step);
  if (obs::lineage::enabled()) {
    obs::lineage::record_virtual(obs::lineage::Stage::kFrame, step, epoch_,
                                 obs::lineage::ChannelKind::kClient, -1, now);
  }
  ++rep_.frames_submitted;
  last_step_ = step;
  bank_.begin_step(step, frame);
  const std::uint64_t encodes_before = bank_.encodes();
  const std::uint64_t reuses_before = bank_.reuses();

  for (auto& cp : clients_) {
    Client& c = *cp;
    service(c, now);
    if (!c.connected) continue;

    // The controller paces frames: a control wire still crossing (the join
    // ack queued ahead of a client's first frames) is not a frame and must
    // not push the client toward a lossy tier.
    Decision d =
        c.controller.on_frame(c.link->in_flight() - c.control_in_flight);
    c.rep.peak_level = std::max(c.rep.peak_level, d.level);
    const int tier = d.tier;
    // Chain safety: a delta is only valid against the exact frame the bank's
    // tier chain references, and only for a client that received that frame
    // at that tier. Anything else — join, post-drop, tier switch, fresh
    // chain — re-anchors with a keyframe.
    const bool key = d.keyframe || c.needs_keyframe || c.chain_tier != tier ||
                     bank_.ref_step(tier) < 0 ||
                     bank_.ref_step(tier) != c.chain_step;
    bool drop = d.drop;
    std::shared_ptr<const std::vector<std::uint8_t>> wire;
    if (!drop) {
      // Encode stage of the e2e waterfall: the wall cost of materializing
      // this client's wire bytes (an actual encode on first demand, a
      // near-free bank reuse after — the histogram shows both modes).
      obs::Stage encode({.step = step, .histogram = &m.e2e_encode,
                         .lineage = obs::lineage::Stage::kEncode,
                         .epoch = epoch_,
                         .kind = obs::lineage::ChannelKind::kClient,
                         .channel = c.rep.id});
      wire = key ? bank_.key(tier) : bank_.delta(tier);
      encode.stop();
      // The byte budget is the hard isolation boundary: a client that can't
      // take this frame within budget loses THIS frame only.
      if (c.link->in_flight_bytes() + wire->size() > cfg_.queue_budget_bytes)
        drop = true;
    }
    if (drop) {
      trace::instant("server", "drop", step);
      ++c.rep.frames_dropped;
      ++rep_.frames_dropped;
      m.dropped.add();
      if (obs::lineage::enabled()) {
        obs::lineage::record_virtual(obs::lineage::Stage::kDrop, step, epoch_,
                                     obs::lineage::ChannelKind::kClient,
                                     c.rep.id, now);
      }
      // Re-anchor: after a gap the client must never receive a delta
      // against a frame it was never sent.
      c.needs_keyframe = true;
      continue;
    }
    {
      trace::Span enq("server", "enqueue", step);
      c.link->send(now, step, std::vector<std::uint8_t>(*wire));
    }
    if (obs::lineage::enabled()) {
      obs::lineage::record_virtual(obs::lineage::Stage::kEnqueue, step, epoch_,
                                   obs::lineage::ChannelKind::kClient,
                                   c.rep.id, now);
    }
    ++c.rep.frames_sent;
    ++rep_.frames_sent;
    c.rep.bytes_sent += wire->size();
    rep_.bytes_out += wire->size();
    m.frames_sent.add();
    m.bytes_out.add(wire->size());
    if (key) {
      ++c.rep.keyframes_sent;
      m.keyframes.add();
    }
    c.chain_tier = tier;
    c.chain_step = step;
    c.needs_keyframe = false;
  }

  const std::uint64_t ne = bank_.encodes() - encodes_before;
  const std::uint64_t nr = bank_.reuses() - reuses_before;
  rep_.encodes += ne;
  rep_.encode_reuses += nr;
  if (ne) m.encodes.add(ne);
  if (nr) m.encode_reuses.add(nr);
  observe_queues();
}

void DeliveryServer::poll(double now) {
  for (auto& cp : clients_) service(*cp, now);
  observe_queues();
}

int DeliveryServer::connected_clients() const {
  int n = 0;
  for (const auto& c : clients_)
    if (c->connected) ++n;
  return n;
}

std::size_t DeliveryServer::total_queue_bytes() const {
  std::size_t total = 0;
  for (const auto& c : clients_)
    if (c->connected && c->link) total += c->link->in_flight_bytes();
  return total;
}

const ClientReport& DeliveryServer::client(int id) const {
  return clients_.at(std::size_t(id))->rep;
}

ServerReport DeliveryServer::finish() {
  auto& m = ServerMetrics::get();
  for (auto& cp : clients_) {
    Client& c = *cp;
    c.rep.final_level = c.controller.level();
    if (!c.connected || !c.link) continue;
    // Graceful shutdown: stragglers finish crossing and reach the viewer.
    handle_batch(c, c.link->drain());
    c.link.reset();
    c.connected = false;
    c.rep.connected = true;  // connected through the end of the run
  }
  if (!cfg_.record_path.empty()) write_record_file(cfg_.record_path, record_);
  m.queue_bytes.set(0.0);
  m.clients.set(0.0);
  rep_.clients.clear();
  rep_.clients.reserve(clients_.size());
  for (auto& c : clients_) rep_.clients.push_back(c->rep);
  return rep_;
}

// --- fleet helper -----------------------------------------------------------

std::vector<ClientLinkConfig> make_fleet(const ServeFleetConfig& cfg) {
  // Fail the whole fleet up front rather than letting the first WanLink
  // constructor throw mid-join: a non-positive bandwidth here is always a
  // misconfiguration (the old "0 means infinite" reading produced
  // zero-virtual-time transfers that inflated bench numbers).
  if (!(cfg.bandwidth_hi > 0.0) || !std::isfinite(cfg.bandwidth_hi))
    throw std::invalid_argument(
        "make_fleet: bandwidth_hi must be finite and > 0, got " +
        std::to_string(cfg.bandwidth_hi));
  if (cfg.bandwidth_lo < 0.0 || !std::isfinite(cfg.bandwidth_lo))
    throw std::invalid_argument(
        "make_fleet: bandwidth_lo must be finite and >= 0, got " +
        std::to_string(cfg.bandwidth_lo));
  std::vector<ClientLinkConfig> fleet;
  fleet.reserve(std::size_t(std::max(cfg.count, 0)));
  for (int i = 0; i < cfg.count; ++i) {
    ClientLinkConfig c;
    c.latency_s = cfg.latency_s;
    if (cfg.bandwidth_lo > 0.0 && cfg.count > 1) {
      // Log spread: client 0 at hi, the last at lo, geometric in between —
      // the heterogeneity the isolation invariant exists for.
      const double t = double(i) / double(cfg.count - 1);
      c.bandwidth_bytes_per_s =
          cfg.bandwidth_hi * std::pow(cfg.bandwidth_lo / cfg.bandwidth_hi, t);
    } else {
      c.bandwidth_bytes_per_s = cfg.bandwidth_hi;
    }
    if (cfg.outage_seed != 0 && i % 3 == 2) {
      // Every third client flaps; each outage schedule is independently
      // derived so populations never perturb each other's plans.
      std::uint64_t s =
          cfg.outage_seed + std::uint64_t(i) * 0x9e3779b97f4a7c15ULL;
      c.fault.enabled = true;
      c.fault.seed = splitmix64(s);
      c.fault.mean_up_seconds = 4.0;
      c.fault.mean_down_seconds = 1.0;
      c.fault.degraded_factor = 0.0;
    }
    fleet.push_back(c);
  }
  return fleet;
}

}  // namespace qv::stream
