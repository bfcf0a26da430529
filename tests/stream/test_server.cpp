// Delivery server: shared encoder bank, control-message codec (with its own
// fuzz wall — the server's hostile-input boundary), and the per-client
// isolation policies (budget drops, join/leave/evict/reconnect re-anchoring).
#include "stream/server.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "img/delta.hpp"
#include "stream/chaos.hpp"
#include "util/rng.hpp"

namespace qv::stream {
namespace {

std::uint64_t fuzz_seed() {
  if (const char* s = std::getenv("QV_FUZZ_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 1;
}

constexpr int kW = 48;
constexpr int kH = 36;

img::Image8 frame_at(int step) { return chaos_frame(kW, kH, 99, step); }

// --- FrameEncoderBank -------------------------------------------------------

TEST(FrameEncoderBank, MatchesSingleStreamEncoderByteForByte) {
  // A bank driven down one tier-0 chain produces exactly the wire bytes the
  // point-to-point FrameEncoder would: pack_frame is the single source of
  // wire truth.
  FrameEncoder enc(kW, kH);
  FrameEncoderBank bank(kW, kH);
  for (int s = 0; s < 5; ++s) {
    auto f = frame_at(s);
    auto expect = enc.encode(s, f, /*tier=*/0);
    bank.begin_step(s, f);
    auto got = s == 0 ? bank.key(0) : bank.delta(0);
    ASSERT_EQ(*got, expect) << "step " << s;
  }
}

TEST(FrameEncoderBank, EncodesOncePerTierKindAndReusesTheRest) {
  FrameEncoderBank bank(kW, kH);
  bank.begin_step(0, frame_at(0));
  auto a = bank.key(1);
  auto b = bank.key(1);
  auto c = bank.key(1);
  EXPECT_EQ(a.get(), b.get());  // same cached buffer, not a re-encode
  EXPECT_EQ(a.get(), c.get());
  EXPECT_EQ(bank.encodes(), 1u);
  EXPECT_EQ(bank.reuses(), 2u);
  // A different tier is its own encode.
  bank.key(2);
  EXPECT_EQ(bank.encodes(), 2u);
}

TEST(FrameEncoderBank, RefAdvancesOnlyForEmittedTiers) {
  FrameEncoderBank bank(kW, kH);
  bank.begin_step(0, frame_at(0));
  bank.key(0);  // tier 0 emitted; tier 1 untouched
  bank.begin_step(1, frame_at(1));
  EXPECT_EQ(bank.ref_step(0), 0);
  EXPECT_LT(bank.ref_step(1), 0);
  // No reference yet at tier 1: a delta is a logic error, not garbage.
  EXPECT_THROW(bank.delta(1), std::logic_error);
}

TEST(FrameEncoderBank, MultiStepDeltaCodesAgainstLaggingReference) {
  // A client can consume tier 0 at step 0 and then next at step 3 (no tier-0
  // emission in between): the delta's base must still be step 0, and the
  // decode must land on the step-3 frame exactly.
  FrameEncoderBank bank(kW, kH);
  FrameDecoder dec;
  bank.begin_step(0, frame_at(0));
  ASSERT_TRUE(dec.decode(*bank.key(0)).has_value());
  bank.begin_step(1, frame_at(1));  // nothing emitted
  bank.begin_step(2, frame_at(2));  // nothing emitted
  bank.begin_step(3, frame_at(3));
  EXPECT_EQ(bank.ref_step(0), 0);
  auto got = dec.decode(*bank.delta(0));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->step, 3);
  auto want = frame_at(3);
  EXPECT_EQ(0, std::memcmp(got->image.data(), want.data(), want.byte_count()));
}

TEST(FrameEncoderBank, NonMonotonicStepRejected) {
  FrameEncoderBank bank(kW, kH);
  bank.begin_step(4, frame_at(4));
  EXPECT_THROW(bank.begin_step(4, frame_at(4)), std::logic_error);
  EXPECT_THROW(bank.begin_step(3, frame_at(3)), std::logic_error);
}

// --- control-message codec --------------------------------------------------

TEST(ControlCodec, RoundtripsEveryKind) {
  for (auto kind :
       {ControlKind::kJoinAck, ControlKind::kLeaveAck, ControlKind::kEvict}) {
    ControlMsg m;
    m.kind = kind;
    m.client_id = 42;
    m.step = 17;
    m.time = 3.25;
    auto wire = encode_control(m);
    ASSERT_EQ(wire.size(), kControlWireSize);
    EXPECT_TRUE(is_control_wire(wire));
    auto got = decode_control(wire);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->kind, kind);
    EXPECT_EQ(got->client_id, 42);
    EXPECT_EQ(got->step, 17);
    EXPECT_EQ(got->time, 3.25);
  }
}

TEST(ControlCodec, FrameWireIsNotControl) {
  FrameEncoder enc(kW, kH);
  auto wire = enc.encode(0, frame_at(0));
  EXPECT_FALSE(is_control_wire(wire));
  EXPECT_FALSE(decode_control(wire).has_value());
}

TEST(ControlCodecFuzz, EveryTruncationRejected) {
  auto wire = encode_control({ControlKind::kEvict, 7, 3, 1.5});
  for (std::size_t len = 0; len < wire.size(); ++len) {
    std::span<const std::uint8_t> cut(wire.data(), len);
    EXPECT_FALSE(decode_control(cut).has_value()) << "length " << len;
  }
  // Longer than the fixed frame is just as invalid.
  auto padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(decode_control(padded).has_value());
}

TEST(ControlCodecFuzz, EverySingleBitFlipRejected) {
  // Every byte of the 32-byte message is covered: the CRC span for the
  // payload fields, the CRC field by the comparison itself, and the pads by
  // the strict-zero rule. Exhaustive, not sampled.
  auto wire = encode_control({ControlKind::kLeaveAck, 11, 29, 0.75});
  ASSERT_TRUE(decode_control(wire).has_value());
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = wire;
      bad[byte] ^= std::uint8_t(1u << bit);
      EXPECT_FALSE(decode_control(bad).has_value())
          << "flip byte " << byte << " bit " << bit;
    }
  }
}

TEST(ControlCodecFuzz, RandomGarbageRejected) {
  const std::uint64_t base = fuzz_seed();
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial
                                      << " (QV_FUZZ_SEED=" << base << ")");
    Rng rng(base + std::uint64_t(trial) * 40503);
    std::vector<std::uint8_t> junk(rng.next_below(80));
    for (auto& b : junk) b = std::uint8_t(rng.next_below(256));
    auto got = decode_control(junk);  // must not crash
    if (got.has_value()) {
      // Only acceptable if the garbage really is a well-formed message —
      // re-encoding it must reproduce the input exactly (the codec never
      // "repairs" anything).
      EXPECT_EQ(encode_control(*got), junk);
    }
  }
}

// --- DeliveryServer ---------------------------------------------------------

ClientLinkConfig fast_link() {
  ClientLinkConfig lc;
  lc.bandwidth_bytes_per_s = 8e6;
  lc.latency_s = 0.02;
  return lc;
}

TEST(DeliveryServer, FanOutSharesEncodesAndDeliversIdenticalStreams) {
  // Two identical clients: every frame is encoded once and reused, and both
  // clients see byte-count-identical, decodable streams.
  ServerConfig cfg;
  DeliveryServer server(cfg, kW, kH);
  int a = server.join(0.0, fast_link());
  int b = server.join(0.0, fast_link());
  const int steps = 10;
  for (int s = 0; s < steps; ++s)
    server.submit(0.1 * s, s, frame_at(s));
  auto rep = server.finish();
  EXPECT_EQ(rep.decode_failures, 0u);
  EXPECT_EQ(rep.encodes, std::uint64_t(steps));   // one encode per step
  EXPECT_EQ(rep.encode_reuses, std::uint64_t(steps));  // second client free
  const auto& ca = rep.clients[std::size_t(a)];
  const auto& cb = rep.clients[std::size_t(b)];
  ASSERT_EQ(ca.deliveries.size(), cb.deliveries.size());
  for (std::size_t i = 0; i < ca.deliveries.size(); ++i) {
    EXPECT_EQ(ca.deliveries[i].step, cb.deliveries[i].step);
    EXPECT_EQ(ca.deliveries[i].bytes, cb.deliveries[i].bytes);
    EXPECT_EQ(ca.deliveries[i].keyframe, cb.deliveries[i].keyframe);
  }
}

TEST(DeliveryServer, EncodeWorkIndependentOfClientCount) {
  // The whole point of the shared bank: 1 client or 12, same encode count.
  std::uint64_t encodes_small = 0, encodes_large = 0;
  for (int fleet : {1, 12}) {
    ServerConfig cfg;
    DeliveryServer server(cfg, kW, kH);
    for (int i = 0; i < fleet; ++i) server.join(0.0, fast_link());
    for (int s = 0; s < 8; ++s) server.submit(0.1 * s, s, frame_at(s));
    auto rep = server.finish();
    (fleet == 1 ? encodes_small : encodes_large) = rep.encodes;
  }
  EXPECT_EQ(encodes_small, encodes_large);
}

TEST(DeliveryServer, BudgetDropsIsolateTheSlowClientAndReAnchor) {
  ServerConfig cfg;
  cfg.queue_budget_bytes = 48 * 1024;
  DeliveryServer server(cfg, kW, kH);
  int fast = server.join(0.0, fast_link());
  ClientLinkConfig starved;
  starved.bandwidth_bytes_per_s = 2e3;  // ~10 minutes per keyframe
  starved.latency_s = 0.05;
  int slow = server.join(0.0, starved);
  const int steps = 30;
  for (int s = 0; s < steps; ++s) server.submit(0.1 * s, s, frame_at(s));
  auto rep = server.finish();
  const auto& cf = rep.clients[std::size_t(fast)];
  const auto& cs = rep.clients[std::size_t(slow)];
  // The starved client loses frames to its budget...
  EXPECT_GT(cs.frames_dropped, 0u);
  EXPECT_LE(cs.peak_queue_bytes, cfg.queue_budget_bytes);
  // ...the fast client never notices...
  EXPECT_EQ(cf.frames_delivered, std::uint64_t(steps));
  EXPECT_EQ(cf.frames_dropped, 0u);
  // ...and nothing the slow client did receive was ever undecodable, which
  // is only possible if every post-drop frame re-anchored on a keyframe.
  EXPECT_EQ(rep.decode_failures, 0u);
  for (std::size_t i = 1; i < cs.deliveries.size(); ++i) {
    if (cs.deliveries[i].step != cs.deliveries[i - 1].step + 1)
      EXPECT_TRUE(cs.deliveries[i].keyframe)
          << "delivery " << i << " follows a gap without a keyframe";
  }
}

TEST(DeliveryServer, MidStreamJoinStartsWithKeyframe) {
  ServerConfig cfg;
  DeliveryServer server(cfg, kW, kH);
  server.join(0.0, fast_link());
  for (int s = 0; s < 5; ++s) server.submit(0.1 * s, s, frame_at(s));
  int late = server.join(0.5, fast_link());
  for (int s = 5; s < 10; ++s) server.submit(0.1 * s, s, frame_at(s));
  auto rep = server.finish();
  const auto& cl = rep.clients[std::size_t(late)];
  ASSERT_FALSE(cl.deliveries.empty());
  EXPECT_TRUE(cl.deliveries.front().keyframe);
  EXPECT_EQ(cl.deliveries.front().step, 5);
  EXPECT_TRUE(cl.rejoin_keyframe_ok);
  EXPECT_EQ(rep.decode_failures, 0u);
}

TEST(DeliveryServer, JoinAckInFlightIsNotAQueuedFrame) {
  // The controller paces frames, not control messages. Four frames inside
  // the first 20 ms latency: when the fourth is submitted, three frames and
  // the join ack are still crossing. The frame depth is 3, below high_water
  // (4), so every frame stays a lossless tier-0 frame.
  ServerConfig cfg;
  DeliveryServer server(cfg, kW, kH);
  int id = server.join(0.0, fast_link());
  for (int s = 0; s < 4; ++s) server.submit(0.001 * s, s, frame_at(s));
  auto rep = server.finish();
  const auto& c = rep.clients[std::size_t(id)];
  EXPECT_EQ(c.peak_level, 0);
  EXPECT_EQ(c.control_delivered, 1u);
  ASSERT_EQ(c.deliveries.size(), 4u);
  for (const auto& d : c.deliveries) EXPECT_EQ(d.tier, 0) << "step " << d.step;
}

TEST(DeliveryServer, GracefulLeaveDeliversQueueThenAck) {
  ServerConfig cfg;
  DeliveryServer server(cfg, kW, kH);
  int id = server.join(0.0, fast_link());
  for (int s = 0; s < 4; ++s) server.submit(0.1 * s, s, frame_at(s));
  server.leave(0.4, id);
  EXPECT_EQ(server.connected_clients(), 0);
  auto rep = server.finish();
  const auto& c = rep.clients[std::size_t(id)];
  EXPECT_EQ(c.frames_delivered, 4u);       // nothing in flight was lost
  EXPECT_EQ(c.control_delivered, 2u);      // join ack + leave ack
  EXPECT_FALSE(c.evicted);
  EXPECT_EQ(rep.leaves, 1u);
}

TEST(DeliveryServer, StalledClientIsEvictedAndReconnectReAnchors) {
  // A genuinely starved link — healthy line, just far too slow for the
  // offered stream — runs out the no-progress clock and is evicted.
  ServerConfig cfg;
  cfg.evict_timeout_s = 0.3;
  DeliveryServer server(cfg, kW, kH);
  ClientLinkConfig starved = fast_link();
  starved.bandwidth_bytes_per_s = 2e3;  // ~26 s per keyframe
  int id = server.join(0.0, starved);
  int evicted_at = -1;
  for (int s = 0; s < 30; ++s) {
    server.submit(0.1 * s, s, frame_at(s));
    if (!server.client(id).connected) {
      evicted_at = s;
      break;
    }
  }
  ASSERT_GE(evicted_at, 0) << "starvation never tripped the evict timeout";
  EXPECT_TRUE(server.client(id).evicted);
  // The client comes back on a healthy link: fresh chain, keyframe first.
  const double t = 0.1 * (evicted_at + 1);
  server.reconnect(t, id, fast_link());
  for (int s = evicted_at + 1; s < evicted_at + 6; ++s)
    server.submit(0.1 * s, s, frame_at(s));
  auto rep = server.finish();
  const auto& c = rep.clients[std::size_t(id)];
  EXPECT_TRUE(c.rejoin_keyframe_ok);
  EXPECT_EQ(rep.decode_failures, 0u);
  EXPECT_EQ(rep.evictions, 1u);
  EXPECT_EQ(rep.reconnects, 1u);
  ASSERT_FALSE(c.deliveries.empty());
  // Every frame delivered after the eviction decoded against post-reconnect
  // state only (decode_failures == 0 proves no delta referenced lost state).
}

TEST(DeliveryServer, OutageStalledClientIsNotEvicted) {
  // Regression: a client whose only problem is that its seeded WAN outage
  // window is open used to be evicted as "no progress". Outage time is now
  // exempt from the no-progress clock — the link is fast enough to keep up
  // whenever the line is actually up, so this client must survive a
  // blackout far longer than the evict timeout.
  ServerConfig cfg;
  cfg.evict_timeout_s = 0.3;
  DeliveryServer server(cfg, kW, kH);
  ClientLinkConfig flaky = fast_link();
  flaky.fault.enabled = true;
  flaky.fault.seed = fuzz_seed() * 1000003 + 17;
  flaky.fault.mean_up_seconds = 0.05;   // almost always dark
  flaky.fault.mean_down_seconds = 50.0;
  flaky.fault.degraded_factor = 0.0;
  int id = server.join(0.0, flaky);
  for (int s = 0; s < 30; ++s) {
    server.submit(0.1 * s, s, frame_at(s));
    EXPECT_TRUE(server.client(id).connected)
        << "outage-stalled client evicted at step " << s;
  }
  auto rep = server.finish();
  EXPECT_EQ(rep.evictions, 0u);
  EXPECT_FALSE(rep.clients[std::size_t(id)].evicted);
}

TEST(DeliveryServer, MakeFleetRejectsNonPositiveBandwidth) {
  ServeFleetConfig cfg;
  cfg.enabled = true;
  cfg.count = 3;
  cfg.bandwidth_hi = 0.0;
  EXPECT_THROW(make_fleet(cfg), std::invalid_argument);
  cfg.bandwidth_hi = -1.0;
  EXPECT_THROW(make_fleet(cfg), std::invalid_argument);
  cfg.bandwidth_hi = 8e6;
  cfg.bandwidth_lo = -2.0;
  EXPECT_THROW(make_fleet(cfg), std::invalid_argument);
  cfg.bandwidth_lo = 1e5;
  EXPECT_EQ(make_fleet(cfg).size(), 3u);
}

TEST(DeliveryServer, TierChangesAlwaysArriveAsKeyframes) {
  // A link slow enough to drive the controller through tier escalation
  // (~22 kB/s against ~52 kB/s of offered frames): every time the delivered
  // tier differs from the previous delivered frame's tier, that frame must
  // be self-contained.
  ServerConfig cfg;
  DeliveryServer server(cfg, kW, kH);
  ClientLinkConfig mid = fast_link();
  mid.bandwidth_bytes_per_s = 2.2e4;
  int id = server.join(0.0, mid);
  for (int s = 0; s < 60; ++s) server.submit(0.1 * s, s, frame_at(s));
  auto rep = server.finish();
  const auto& c = rep.clients[std::size_t(id)];
  EXPECT_EQ(rep.decode_failures, 0u);
  bool saw_tier_change = false;
  for (std::size_t i = 1; i < c.deliveries.size(); ++i) {
    if (c.deliveries[i].tier != c.deliveries[i - 1].tier) {
      saw_tier_change = true;
      EXPECT_TRUE(c.deliveries[i].keyframe)
          << "tier switch at delivery " << i << " rode in on a delta";
    }
  }
  EXPECT_TRUE(saw_tier_change) << "link never escalated; test is vacuous";
}

}  // namespace
}  // namespace qv::stream
