// The bit-exact compositing wall (ROADMAP item 5): radix-k and SLIC must
// be bit-identical to direct-send — not "close", identical — for every rank
// count (primes, 1, awkward composites), every k in {2,3,4,8}, with and
// without active-pixel compression, on seeded random partial distributions
// including all-empty and single-active-pixel edge partials. Binary-swap
// is the k=2 column.
//
// Alongside it: the corrupt-input fuzz for the active-pixel wire format —
// every truncation point, every header bit flip, tampered-but-recrc'd
// headers, and seeded garbage must yield nullopt, never a crash, never a
// silent repair (the FrameCodecFuzz / ControlCodecFuzz contract).
//
// Seeds come from QV_FUZZ_SEED (default 1) and are printed via
// SCOPED_TRACE so any failure is reproducible with
//   QV_FUZZ_SEED=<seed> ./test_compositing --gtest_filter='RadixK*'
#include "compositing/radix_k.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "compositing/direct_send.hpp"
#include "compositing/slic.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace qv::compositing {
namespace {

constexpr int kW = 48;
constexpr int kH = 36;

std::uint64_t fuzz_seed() {
  if (const char* s = std::getenv("QV_FUZZ_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 1;
}

PartialImage random_partial(Rng& rng, std::uint32_t order) {
  PartialImage p;
  int x0 = int(rng.next_below(kW - 8));
  int y0 = int(rng.next_below(kH - 8));
  int w = 4 + int(rng.next_below(std::uint64_t(kW - x0 - 4)));
  int h = 4 + int(rng.next_below(std::uint64_t(kH - y0 - 4)));
  p.rect = {x0, y0, x0 + w, y0 + h};
  p.order = order;
  p.pixels = img::Image(w, h);
  for (auto& px : p.pixels.pixels()) {
    if (rng.next_double() < 0.5) continue;
    float a = 0.1f + 0.8f * rng.next_float();
    px = {rng.next_float() * a, rng.next_float() * a, rng.next_float() * a, a};
  }
  return p;
}

// Random per-rank partials with globally unique shuffled orders, plus the
// edge cases the wall demands: rank 0 carries an all-empty (fully
// transparent) partial and rank ranks/2 a single-active-pixel partial.
std::vector<std::vector<PartialImage>> make_distribution(int ranks,
                                                         int per_rank,
                                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<PartialImage>> out(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    for (int i = 0; i < per_rank; ++i) {
      out[std::size_t(r)].push_back(random_partial(rng, 0));
    }
  }
  PartialImage all_empty;
  all_empty.rect = {4, 4, 20, 16};
  all_empty.pixels = img::Image(16, 12);  // zero-initialized = transparent
  out[0].push_back(std::move(all_empty));

  PartialImage lone;
  lone.rect = {10, 8, 22, 17};
  lone.pixels = img::Image(12, 9);
  lone.pixels.at(7, 3) = {0.2f, 0.3f, 0.1f, 0.6f};
  out[std::size_t(ranks / 2)].push_back(std::move(lone));

  // Unique shuffled orders across every partial (the bit-exactness
  // precondition the render pipeline guarantees per block).
  Rng shuffle(seed ^ 0xBEEF);
  std::size_t total = 0;
  for (const auto& rank : out) total += rank.size();
  std::vector<std::uint32_t> orders(total);
  for (std::uint32_t i = 0; i < orders.size(); ++i) orders[i] = i;
  for (std::size_t i = orders.size(); i > 1; --i) {
    std::swap(orders[i - 1], orders[shuffle.next_below(i)]);
  }
  std::size_t n = 0;
  for (auto& rank : out)
    for (auto& p : rank) p.order = orders[n++];
  return out;
}

bool bit_equal(const img::Image& a, const img::Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.pixel_count() * sizeof(img::Rgba)) == 0;
}

template <typename Fn>
img::Image run_collective(int ranks, Fn fn) {
  img::Image got;
  vmpi::Runtime::run(ranks, [&](vmpi::Comm& comm) {
    auto result = fn(comm);
    if (comm.rank() == 0) got = std::move(result.image);
  });
  return got;
}

img::Image run_direct_send(
    const std::vector<std::vector<PartialImage>>& dist, int ranks,
    bool compress) {
  return run_collective(ranks, [&](vmpi::Comm& comm) {
    return direct_send(comm, dist[std::size_t(comm.rank())], kW, kH, compress,
                       0);
  });
}

img::Image run_slic(const std::vector<std::vector<PartialImage>>& dist,
                    int ranks, bool compress) {
  return run_collective(ranks, [&](vmpi::Comm& comm) {
    return slic(comm, dist[std::size_t(comm.rank())], kW, kH, compress, 0);
  });
}

img::Image run_radix(const std::vector<std::vector<PartialImage>>& dist,
                     int ranks, int k, bool compress) {
  return run_collective(ranks, [&](vmpi::Comm& comm) {
    return radix_k(comm, dist[std::size_t(comm.rank())], kW, kH, k, compress,
                   0);
  });
}

// --- plan structure ---------------------------------------------------------

TEST(RadixPlan, FactorsMultiplyToActiveAndRespectK) {
  for (int ranks = 1; ranks <= 128; ++ranks) {
    for (int k : {2, 3, 4, 8}) {
      RadixPlan plan = plan_radix_rounds(ranks, k);
      EXPECT_EQ(plan.ranks, ranks);
      EXPECT_GE(plan.active, 1);
      EXPECT_LE(plan.active, ranks);
      // Folding partner me - active must exist: active > ranks/2 always
      // (a power of two sits in (ranks/2, ranks]).
      EXPECT_LT(plan.folded(), plan.active) << ranks << " k=" << k;
      std::int64_t product = 1;
      for (int f : plan.factors) {
        EXPECT_GE(f, 2);
        EXPECT_LE(f, k);
        product *= f;
      }
      EXPECT_EQ(product, plan.active) << ranks << " k=" << k;
      // Maximality: no k-smooth count in (active, ranks].
      auto k_smooth = [&](int n) {
        for (int f = 2; f <= k && n > 1; ++f)
          while (n % f == 0) n /= f;
        return n == 1;
      };
      for (int m = plan.active + 1; m <= ranks; ++m) {
        EXPECT_FALSE(k_smooth(m)) << ranks << " k=" << k << " m=" << m;
      }
    }
  }
}

TEST(RadixPlan, KnownShapes) {
  auto expect_plan = [](int ranks, int k, int active,
                        std::vector<int> factors) {
    RadixPlan plan = plan_radix_rounds(ranks, k);
    EXPECT_EQ(plan.active, active) << ranks << " k=" << k;
    EXPECT_EQ(plan.factors, factors) << ranks << " k=" << k;
  };
  expect_plan(1, 4, 1, {});
  expect_plan(2, 4, 2, {2});
  expect_plan(5, 2, 4, {2, 2});
  expect_plan(7, 4, 6, {3, 2});
  expect_plan(13, 4, 12, {4, 3});
  expect_plan(16, 2, 16, {2, 2, 2, 2});
  expect_plan(16, 8, 16, {8, 2});
  expect_plan(31, 4, 27, {3, 3, 3});
  // 100 = 2^2 * 5^2 is itself 8-smooth, so no ranks fold.
  expect_plan(100, 8, 100, {5, 5, 4});
  // 101 is prime: fold down to 8-smooth 100.
  expect_plan(101, 8, 100, {5, 5, 4});
}

TEST(RadixPlan, RejectsBadArguments) {
  EXPECT_THROW(plan_radix_rounds(0, 4), std::runtime_error);
  EXPECT_THROW(plan_radix_rounds(8, 1), std::runtime_error);
}

// --- the equivalence wall ---------------------------------------------------

class RadixKEquivalence : public ::testing::TestWithParam<int> {};

void run_wall(int ranks) {
  const std::uint64_t base = fuzz_seed();
  for (int trial = 0; trial < 2; ++trial) {
    const std::uint64_t seed = base + std::uint64_t(trial) * 7919;
    SCOPED_TRACE("ranks " + std::to_string(ranks) + " seed " +
                 std::to_string(seed) + " (QV_FUZZ_SEED=" +
                 std::to_string(base) + ")");
    auto dist = make_distribution(ranks, 2, seed);
    img::Image expect = run_direct_send(dist, ranks, /*compress=*/false);
    ASSERT_EQ(expect.width(), kW);

    // Compression must not change direct-send output either.
    EXPECT_TRUE(bit_equal(expect, run_direct_send(dist, ranks, true)));

    for (bool compress : {false, true}) {
      SCOPED_TRACE(compress ? "slic compressed" : "slic raw");
      EXPECT_TRUE(bit_equal(expect, run_slic(dist, ranks, compress)));
    }

    for (int k : {2, 3, 4, 8}) {
      for (bool compress : {false, true}) {
        SCOPED_TRACE("k=" + std::to_string(k) +
                     (compress ? " compressed" : " raw"));
        EXPECT_TRUE(bit_equal(expect, run_radix(dist, ranks, k, compress)));
      }
    }
  }
}

TEST_P(RadixKEquivalence, BitIdenticalToDirectSend) { run_wall(GetParam()); }

// Split small/large so the TSan preset can run the small wall without
// spawning hundred-thread worlds under the race detector.
INSTANTIATE_TEST_SUITE_P(Small, RadixKEquivalence,
                         ::testing::Values(1, 2, 3, 5, 7, 12, 13, 16));
INSTANTIATE_TEST_SUITE_P(Large, RadixKEquivalence,
                         ::testing::Values(31, 64, 100));

TEST(RadixKEdge, AllRanksFullyTransparent) {
  const int ranks = 7;
  std::vector<std::vector<PartialImage>> dist(ranks);
  for (int r = 0; r < ranks; ++r) {
    PartialImage p;
    p.rect = {0, 0, kW, kH};
    p.order = std::uint32_t(r);
    p.pixels = img::Image(kW, kH);  // all transparent
    dist[std::size_t(r)].push_back(std::move(p));
  }
  img::Image expect = run_direct_send(dist, ranks, false);
  for (bool compress : {false, true}) {
    img::Image got = run_radix(dist, ranks, 3, compress);
    EXPECT_TRUE(bit_equal(expect, got));
    for (const auto& px : got.pixels()) {
      EXPECT_TRUE(px.transparent());
    }
  }
}

TEST(RadixKEdge, SingleActivePixelAcrossManyRanks) {
  const int ranks = 5;
  std::vector<std::vector<PartialImage>> dist(ranks);
  for (int r = 0; r < ranks; ++r) {
    PartialImage p;
    p.rect = {0, 0, kW, kH};
    p.order = std::uint32_t(r);
    p.pixels = img::Image(kW, kH);
    dist[std::size_t(r)].push_back(std::move(p));
  }
  dist[3][0].pixels.at(31, 17) = {0.4f, 0.2f, 0.1f, 0.9f};
  img::Image expect = run_direct_send(dist, ranks, false);
  for (int k : {2, 4}) {
    for (bool compress : {false, true}) {
      img::Image got = run_radix(dist, ranks, k, compress);
      ASSERT_TRUE(bit_equal(expect, got)) << "k=" << k << " c=" << compress;
    }
  }
  EXPECT_FALSE(expect.at(31, 17).transparent());
}

// --- active-pixel wire format: roundtrip ------------------------------------

Piece random_piece(Rng& rng, std::uint32_t order, double fill) {
  Piece p;
  int x0 = int(rng.next_below(kW - 6));
  int y0 = int(rng.next_below(kH - 6));
  p.rect = {x0, y0, x0 + 3 + int(rng.next_below(std::uint64_t(kW - x0 - 3))),
            y0 + 3 + int(rng.next_below(std::uint64_t(kH - y0 - 3)))};
  p.order = order;
  p.pixels.resize(std::size_t(p.rect.width()) *
                  std::size_t(p.rect.height()));
  for (auto& px : p.pixels) {
    if (rng.next_double() > fill) continue;
    float a = 0.1f + 0.8f * rng.next_float();
    px = {rng.next_float() * a, rng.next_float() * a, rng.next_float() * a, a};
  }
  return p;
}

std::vector<std::uint8_t> pack_stream(const std::vector<Piece>& pieces,
                                      bool compress) {
  PieceStreamWriter writer(compress);
  for (const Piece& p : pieces) writer.add(p);
  return writer.finish();
}

TEST(ActivePixelWire, RawRoundtripIsExact) {
  Rng rng(fuzz_seed());
  std::vector<Piece> pieces = {random_piece(rng, 11, 0.5),
                               random_piece(rng, 3, 0.0),
                               random_piece(rng, 7, 1.0)};
  auto msg = pack_stream(pieces, /*compress=*/false);
  auto got = decode_piece_stream(msg, kW, kH);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), pieces.size());
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    EXPECT_EQ((*got)[i].order, pieces[i].order);
    EXPECT_EQ((*got)[i].rect.x0, pieces[i].rect.x0);
    EXPECT_EQ((*got)[i].rect.y1, pieces[i].rect.y1);
    ASSERT_EQ((*got)[i].pixels.size(), pieces[i].pixels.size());
    EXPECT_EQ(std::memcmp((*got)[i].pixels.data(), pieces[i].pixels.data(),
                          pieces[i].pixels.size() * sizeof(img::Rgba)),
              0);
  }
}

TEST(ActivePixelWire, CompressedRoundtripPreservesActivePixels) {
  Rng rng(fuzz_seed() ^ 0xA11);
  for (int t = 0; t < 20; ++t) {
    Piece p = random_piece(rng, std::uint32_t(t), 0.3);
    auto msg = pack_stream({p}, /*compress=*/true);
    auto got = decode_piece_stream(msg, kW, kH);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->size(), 1u);
    const Piece& q = (*got)[0];
    EXPECT_EQ(q.order, p.order);
    // The decoded rect is the active bbox; every pixel inside it matches the
    // source bitwise where active, and decodes to exact zero where the
    // source was transparent (which the compositing fold skips either way).
    ScreenRect bb = active_bbox(p);
    EXPECT_EQ(q.rect.x0, bb.x0);
    EXPECT_EQ(q.rect.y0, bb.y0);
    EXPECT_EQ(q.rect.x1, bb.x1);
    EXPECT_EQ(q.rect.y1, bb.y1);
    for (int y = q.rect.y0; y < q.rect.y1; ++y) {
      for (int x = q.rect.x0; x < q.rect.x1; ++x) {
        const img::Rgba& src =
            p.pixels[std::size_t(y - p.rect.y0) *
                         std::size_t(p.rect.width()) +
                     std::size_t(x - p.rect.x0)];
        const img::Rgba& dec =
            q.pixels[std::size_t(y - q.rect.y0) *
                         std::size_t(q.rect.width()) +
                     std::size_t(x - q.rect.x0)];
        if (src.transparent()) {
          EXPECT_TRUE(dec.transparent());
        } else {
          EXPECT_EQ(std::memcmp(&src, &dec, sizeof(img::Rgba)), 0);
        }
      }
    }
  }
}

TEST(ActivePixelWire, FullyTransparentPieceShipsHeadersOnly) {
  Piece p;
  p.order = 9;
  p.rect = {5, 5, 25, 20};
  p.pixels.resize(20 * 15);  // value-initialized transparent
  auto msg = pack_stream({p}, /*compress=*/true);
  EXPECT_EQ(msg.size(), 16u + 36u);  // stream header + piece header, no payload
  auto got = decode_piece_stream(msg, kW, kH);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), 1u);
  EXPECT_TRUE((*got)[0].rect.empty());
  EXPECT_TRUE((*got)[0].pixels.empty());
}

TEST(ActivePixelWire, ActiveBboxFindsLonePixel) {
  Piece p;
  p.rect = {2, 3, 12, 11};
  p.pixels.resize(10 * 8);
  p.pixels[std::size_t(5) * 10 + 7] = {0.1f, 0.1f, 0.1f, 0.5f};  // (9, 8)
  ScreenRect bb = active_bbox(p);
  EXPECT_EQ(bb.x0, 9);
  EXPECT_EQ(bb.y0, 8);
  EXPECT_EQ(bb.x1, 10);
  EXPECT_EQ(bb.y1, 9);
}

TEST(ActivePixelWire, RectBeyondScreenBoundsRejected) {
  Rng rng(3);
  Piece p = random_piece(rng, 1, 0.5);
  auto msg = pack_stream({p}, false);
  EXPECT_TRUE(decode_piece_stream(msg, kW, kH).has_value());
  // Same valid bytes, smaller advertised screen: must reject, not clip.
  EXPECT_FALSE(decode_piece_stream(msg, p.rect.x1 - 1, kH).has_value());
  EXPECT_FALSE(decode_piece_stream(msg, kW, p.rect.y1 - 1).has_value());
}

// --- active-pixel wire format: corrupt-input fuzz ---------------------------

std::vector<std::uint8_t> fuzz_message(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Piece> pieces = {random_piece(rng, 2, 0.4),
                               random_piece(rng, 5, 0.2)};
  return pack_stream(pieces, (seed & 1) != 0);
}

TEST(ActivePixelFuzz, EveryTruncationRejected) {
  const std::uint64_t base = fuzz_seed();
  for (int trial = 0; trial < 2; ++trial) {
    SCOPED_TRACE("(QV_FUZZ_SEED=" + std::to_string(base) + ") trial " +
                 std::to_string(trial));
    auto msg = fuzz_message(base + std::uint64_t(trial) * 7919);
    ASSERT_TRUE(decode_piece_stream(msg, kW, kH).has_value());
    for (std::size_t cut = 0; cut < msg.size(); ++cut) {
      auto got = decode_piece_stream(
          std::span<const std::uint8_t>(msg.data(), cut), kW, kH);
      EXPECT_FALSE(got.has_value()) << "cut " << cut << "/" << msg.size();
    }
  }
}

TEST(ActivePixelFuzz, EveryHeaderBitFlipRejected) {
  const std::uint64_t base = fuzz_seed();
  auto msg = fuzz_message(base);
  ASSERT_TRUE(decode_piece_stream(msg, kW, kH).has_value());
  // Header byte ranges: the stream header, then each piece header (walk the
  // frames via the payload_bytes field at offset 24 of each piece header).
  std::vector<std::pair<std::size_t, std::size_t>> headers = {{0, 16}};
  std::size_t pos = 16;
  while (pos < msg.size()) {
    headers.push_back({pos, pos + 36});
    std::uint32_t payload;
    std::memcpy(&payload, msg.data() + pos + 24, sizeof(payload));
    pos += 36 + payload;
  }
  ASSERT_EQ(headers.size(), 3u);  // stream + two pieces
  for (auto [lo, hi] : headers) {
    for (std::size_t byte = lo; byte < hi; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto bad = msg;
        bad[byte] ^= std::uint8_t(1u << bit);
        EXPECT_FALSE(decode_piece_stream(bad, kW, kH).has_value())
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(ActivePixelFuzz, TamperedHeaderWithFixedCrcRejected) {
  auto fix_stream_crc = [](std::vector<std::uint8_t>& m) {
    std::uint32_t crc =
        util::crc32(std::span<const std::uint8_t>(m.data(), 12));
    std::memcpy(m.data() + 12, &crc, sizeof(crc));
  };
  auto msg = fuzz_message(fuzz_seed() ^ 0x7A3);
  // Lying piece_count, valid CRC: the decoder must notice the stream runs
  // out of frames (or has trailing bytes), not "repair" the count.
  for (std::int32_t delta : {-1, 1, 100}) {
    auto bad = msg;
    std::uint32_t count;
    std::memcpy(&count, bad.data() + 4, sizeof(count));
    count = std::uint32_t(std::int64_t(count) + delta);
    std::memcpy(bad.data() + 4, &count, sizeof(count));
    fix_stream_crc(bad);
    EXPECT_FALSE(decode_piece_stream(bad, kW, kH).has_value())
        << "count delta " << delta;
  }
  // Lying total_bytes, valid CRC.
  for (std::int32_t delta : {-1, 1}) {
    auto bad = msg;
    std::uint32_t total;
    std::memcpy(&total, bad.data() + 8, sizeof(total));
    total = std::uint32_t(std::int64_t(total) + delta);
    std::memcpy(bad.data() + 8, &total, sizeof(total));
    fix_stream_crc(bad);
    EXPECT_FALSE(decode_piece_stream(bad, kW, kH).has_value())
        << "total delta " << delta;
  }
}

TEST(ActivePixelFuzz, RandomGarbageRejected) {
  const std::uint64_t base = fuzz_seed();
  Rng rng(base ^ 0x6A4B);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("(QV_FUZZ_SEED=" + std::to_string(base) + ") trial " +
                 std::to_string(trial));
    std::vector<std::uint8_t> junk(rng.next_below(300));
    for (auto& b : junk) b = std::uint8_t(rng.next_u64());
    EXPECT_FALSE(decode_piece_stream(junk, kW, kH).has_value());
  }
}

TEST(ActivePixelFuzz, RandomBitFlipsNeverCrashDecoderStaysUsable) {
  const std::uint64_t base = fuzz_seed();
  auto msg = fuzz_message(base ^ 0x515);
  Rng rng(base + 17);
  for (int trial = 0; trial < 300; ++trial) {
    auto bad = msg;
    int flips = 1 + int(rng.next_below(4));
    for (int i = 0; i < flips; ++i) {
      std::size_t byte = rng.next_below(bad.size());
      bad[byte] ^= std::uint8_t(1u << rng.next_below(8));
    }
    // Payload-byte flips may legally decode (raw pixel data carries no
    // checksum); the contract here is no crash and no state corruption.
    (void)decode_piece_stream(bad, kW, kH);
  }
  EXPECT_TRUE(decode_piece_stream(msg, kW, kH).has_value());
}

}  // namespace
}  // namespace qv::compositing
