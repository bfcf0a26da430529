// End-to-end equivalence of the parallel compositing algorithms: for any
// distribution of ordered partial images across ranks, SLIC, direct-send
// (with and without compression), and binary-swap (the deferred-blend k=2
// radix-k) must all reproduce the serial reference compositor within float
// tolerance. The bit-exact wall against direct-send lives in
// test_radix_k.cpp. Alongside: the traffic-accounting check that every
// algorithm's CompositeStats count exactly the sends vmpi sees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>

#include "compositing/direct_send.hpp"
#include "compositing/radix_k.hpp"
#include "compositing/slic.hpp"
#include "metrics/metrics.hpp"
#include "render/partial_image.hpp"
#include "util/rng.hpp"

namespace qv::compositing {
namespace {

constexpr int kW = 64;
constexpr int kH = 48;

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

// Reference image from all partials regardless of rank distribution.
img::Image reference(const std::vector<std::vector<PartialImage>>& per_rank) {
  std::vector<const render::PartialImage*> all;
  for (const auto& rank : per_rank)
    for (const auto& p : rank) all.push_back(&p);
  return render::compose_reference(std::move(all), kW, kH);
}

std::vector<std::vector<PartialImage>> make_distribution(int ranks,
                                                         int per_rank,
                                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<PartialImage>> out(static_cast<std::size_t>(ranks));
  std::uint32_t order = 0;
  for (int r = 0; r < ranks; ++r) {
    for (int i = 0; i < per_rank; ++i) {
      out[std::size_t(r)].push_back(random_partial(rng, order++));
    }
  }
  // Shuffle order assignment so ranks hold non-contiguous order ranges.
  Rng shuffle(seed ^ 0xBEEF);
  std::vector<std::uint32_t> orders(std::size_t(ranks) * per_rank);
  for (std::uint32_t i = 0; i < orders.size(); ++i) orders[i] = i;
  for (std::size_t i = orders.size(); i > 1; --i) {
    std::swap(orders[i - 1], orders[shuffle.next_below(i)]);
  }
  std::size_t k = 0;
  for (auto& rank : out)
    for (auto& p : rank) p.order = orders[k++];
  return out;
}

struct Param {
  int ranks;
  bool compress;
};

// gtest would otherwise print the struct's bytes, padding included, and
// gtest_discover_tests copies the printed value into every ctest name.
void PrintTo(const Param& p, std::ostream* os) {
  *os << p.ranks << (p.compress ? "_ranks_compressed" : "_ranks_raw");
}

class ScatterComposite : public ::testing::TestWithParam<Param> {};

TEST_P(ScatterComposite, DirectSendMatchesReference) {
  auto [ranks, compress] = GetParam();
  auto dist = make_distribution(ranks, 3, 42 + std::uint64_t(ranks));
  img::Image expect = reference(dist);

  img::Image got;
  CompositeStats stats;
  vmpi::Runtime::run(ranks, [&](vmpi::Comm& comm) {
    auto result = direct_send(comm, dist[std::size_t(comm.rank())], kW, kH,
                              compress, 0);
    if (comm.rank() == 0) {
      got = std::move(result.image);
      stats = result.stats;
    }
  });
  EXPECT_LT(img::rmse(expect, got), 1e-6);
  if (ranks > 1) EXPECT_GT(stats.messages, 0u);
}

TEST_P(ScatterComposite, SlicMatchesReference) {
  auto [ranks, compress] = GetParam();
  auto dist = make_distribution(ranks, 3, 77 + std::uint64_t(ranks));
  img::Image expect = reference(dist);

  img::Image got;
  CompositeStats stats;
  vmpi::Runtime::run(ranks, [&](vmpi::Comm& comm) {
    auto result =
        slic(comm, dist[std::size_t(comm.rank())], kW, kH, compress, 0);
    if (comm.rank() == 0) {
      got = std::move(result.image);
      stats = result.stats;
    }
  });
  EXPECT_LT(img::rmse(expect, got), 1e-6);
  EXPECT_LT(stats.schedule_seconds, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    RankCounts, ScatterComposite,
    ::testing::Values(Param{1, false}, Param{2, false}, Param{3, false},
                      Param{4, false}, Param{8, false}, Param{2, true},
                      Param{4, true}, Param{8, true}));

// Binary swap is the k=2 radix-k specialization with deferred blending, so
// it matches the reference on ANY distribution — including the shuffled
// scattered one that used to require plane-separable regions.
TEST(BinarySwap, MatchesReferenceOnScatteredPartition) {
  for (int ranks : {2, 4, 8}) {
    auto dist = make_distribution(ranks, 3, std::uint64_t(ranks) * 5 + 3);
    img::Image expect = reference(dist);

    img::Image got;
    vmpi::Runtime::run(ranks, [&](vmpi::Comm& comm) {
      auto result =
          radix_k(comm, dist[std::size_t(comm.rank())], kW, kH, 2, false, 0);
      if (comm.rank() == 0) got = std::move(result.image);
    });
    EXPECT_LT(img::rmse(expect, got), 1e-6) << "ranks " << ranks;
  }
}

TEST(Compression, ReducesTrafficOnSparsePartials) {
  // Mostly-transparent partials: compressed direct-send must move far fewer
  // bytes — the conclusion's "50% reduction" experiment is bench'd on top
  // of this mechanism.
  auto dist = make_distribution(4, 2, 11);
  for (auto& rank : dist) {
    for (auto& p : rank) {
      for (auto& px : p.pixels.pixels()) {
        if ((reinterpret_cast<std::uintptr_t>(&px) >> 4) % 8 != 0) px = {};
      }
    }
  }
  std::uint64_t raw_bytes = 0, packed_bytes = 0;
  for (bool compress : {false, true}) {
    std::uint64_t total = 0;
    std::mutex mu;
    vmpi::Runtime::run(4, [&](vmpi::Comm& comm) {
      auto result = direct_send(comm, dist[std::size_t(comm.rank())], kW, kH,
                                compress, 0);
      std::lock_guard lk(mu);
      total += result.stats.bytes_sent;
    });
    (compress ? packed_bytes : raw_bytes) = total;
  }
  EXPECT_LT(packed_bytes, raw_bytes / 2);
}

TEST(SlicSchedule, SpansTileFootprintsExactly) {
  std::vector<FootprintInfo> fps = {
      {{0, 0, 32, 32}, 0},
      {{16, 8, 48, 40}, 1},
      {{40, 0, 64, 16}, 2},
  };
  auto sched = build_slic_schedule(fps, 3, kW, kH);
  // Per scanline, spans must be disjoint and cover exactly the union of
  // footprint x-ranges.
  for (int y = 0; y < kH; ++y) {
    std::vector<bool> covered(kW, false);
    for (const auto& span : sched.spans) {
      if (span.y != y) continue;
      for (int x = span.x0; x < span.x1; ++x) {
        EXPECT_FALSE(covered[std::size_t(x)]) << "overlap at " << x << "," << y;
        covered[std::size_t(x)] = true;
      }
    }
    for (int x = 0; x < kW; ++x) {
      bool in_any = false;
      for (const auto& f : fps) {
        if (x >= f.rect.x0 && x < f.rect.x1 && y >= f.rect.y0 && y < f.rect.y1)
          in_any = true;
      }
      EXPECT_EQ(covered[std::size_t(x)], in_any) << x << "," << y;
    }
  }
}

TEST(SlicSchedule, SingleContributorSpansStayLocal) {
  std::vector<FootprintInfo> fps = {
      {{0, 0, 20, 10}, 0},
      {{40, 0, 60, 10}, 1},  // disjoint from the first
  };
  auto sched = build_slic_schedule(fps, 2, kW, kH);
  EXPECT_EQ(sched.exchanged_pixels, 0u);
  for (const auto& span : sched.spans) {
    ASSERT_EQ(span.contributors.size(), 1u);
    EXPECT_EQ(span.compositor, span.contributors[0]);
  }
}

TEST(SlicSchedule, OverlapAssignsOneCompositorAmongContributors) {
  std::vector<FootprintInfo> fps = {
      {{0, 0, 30, 10}, 0},
      {{10, 0, 40, 10}, 1},
  };
  auto sched = build_slic_schedule(fps, 2, kW, kH);
  bool found_shared = false;
  for (const auto& span : sched.spans) {
    if (span.contributors.size() == 2) {
      found_shared = true;
      EXPECT_TRUE(span.compositor == 0 || span.compositor == 1);
    }
  }
  EXPECT_TRUE(found_shared);
  EXPECT_GT(sched.exchanged_pixels, 0u);
  EXPECT_GT(sched.single_owner_pixels, 0u);
}

TEST(SlicVsDirectSend, SlicMovesFewerPixels) {
  // With mostly-local footprints, SLIC's schedule avoids shipping pixels
  // that direct-send must move to strip owners.
  auto dist = make_distribution(6, 2, 99);
  std::uint64_t slic_px = 0, ds_px = 0;
  std::mutex mu;
  vmpi::Runtime::run(6, [&](vmpi::Comm& comm) {
    auto r1 = slic(comm, dist[std::size_t(comm.rank())], kW, kH, false, 0);
    auto r2 =
        direct_send(comm, dist[std::size_t(comm.rank())], kW, kH, false, 0);
    std::lock_guard lk(mu);
    slic_px += r1.stats.pixels_sent;
    ds_px += r2.stats.pixels_sent;
  });
  EXPECT_LT(slic_px, ds_px);
}

// --- traffic accounting -----------------------------------------------------
//
// CompositeStats must count exactly what leaves a rank: summed over ranks,
// stats.messages and stats.bytes_sent equal the vmpi.send.calls and
// vmpi.send.bytes deltas of the collective call. SLIC's footprint allgather
// is runtime traffic, not a piece message; a bare allgather of the same
// payloads measures it.

using Dist = std::vector<std::vector<PartialImage>>;

// bench_compositing's sort-last partials: each rank owns a full-height
// screen slab plus w/16 of overlap, opaque only on a diagonal wavefront.
Dist slab_partials(int ranks, int w, int h) {
  Rng rng(2026);
  Dist dist(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    PartialImage p;
    const int x0 = std::max(0, w * r / ranks - w / 16);
    const int x1 = std::min(w, w * (r + 1) / ranks + w / 16);
    p.rect = {x0, 0, x1, h};
    p.order = std::uint32_t(r);
    p.pixels = img::Image(p.rect.width(), h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < p.rect.width(); ++x) {
        if ((x0 + x + y) % (w / 2) >= w / 8) continue;
        float a = 0.2f + 0.7f * rng.next_float();
        p.pixels.at(x, y) = {a * rng.next_float(), a * rng.next_float(),
                             a * rng.next_float(), a};
      }
    }
    dist[std::size_t(r)].push_back(std::move(p));
  }
  return dist;
}

struct Sends {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

Sends vmpi_sends() {
  return {metrics::counter("vmpi.send.calls").value(),
          metrics::counter("vmpi.send.bytes").value()};
}

// Runs `fn` (returning the rank's CompositeStats) on every rank; returns the
// stats summed over ranks and the vmpi send traffic of the run.
template <typename Fn>
std::pair<CompositeStats, Sends> measure(int ranks, const Dist& dist, Fn fn) {
  const Sends before = vmpi_sends();
  CompositeStats total;
  std::mutex mu;
  vmpi::Runtime::run(ranks, [&](vmpi::Comm& comm) {
    const CompositeStats s = fn(comm, dist[std::size_t(comm.rank())]);
    std::lock_guard lk(mu);
    total.merge(s);
  });
  const Sends after = vmpi_sends();
  return {total, {after.calls - before.calls, after.bytes - before.bytes}};
}

// QV_FUZZ_SEED (default 1) picks the random partials.
std::uint64_t fuzz_seed() {
  const char* s = std::getenv("QV_FUZZ_SEED");
  return s ? std::strtoull(s, nullptr, 10) : 1;
}

class TrafficAccounting : public ::testing::TestWithParam<int> {};

TEST_P(TrafficAccounting, StatsCountEverySend) {
  const int ranks = GetParam();
  struct Case {
    const char* name;
    Dist dist;
    int w, h;
  };
  const Case cases[] = {
      {"random", make_distribution(ranks, 3, fuzz_seed() * 31 + 7), kW, kH},
      {"slabs", slab_partials(ranks, 512, 512), 512, 512},
  };
  for (const Case& c : cases) {
    // SLIC's footprint allgather: x0 y0 x1 y1 order (20 B) per non-empty
    // partial.
    const Sends footprints =
        measure(ranks, c.dist, [](vmpi::Comm& comm, const auto& partials) {
          auto n = std::count_if(partials.begin(), partials.end(),
                                 [](const auto& p) { return !p.rect.empty(); });
          comm.allgather(std::vector<std::uint8_t>(20 * std::size_t(n)));
          return CompositeStats{};
        }).second;
    for (bool compress : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (compress ? " compressed" : " raw"));
      auto expect_counted = [&](const char* algo, Sends runtime, auto fn) {
        auto [stats, sent] = measure(ranks, c.dist, fn);
        EXPECT_EQ(stats.messages, sent.calls - runtime.calls) << algo;
        EXPECT_EQ(stats.bytes_sent, sent.bytes - runtime.bytes) << algo;
      };
      expect_counted("slic", footprints, [&](vmpi::Comm& comm, const auto& p) {
        return slic(comm, p, c.w, c.h, compress, 0).stats;
      });
      expect_counted("direct-send", {}, [&](vmpi::Comm& comm, const auto& p) {
        return direct_send(comm, p, c.w, c.h, compress, 0).stats;
      });
      for (int k : {2, 4}) {
        expect_counted("radix-k", {}, [&](vmpi::Comm& comm, const auto& p) {
          return radix_k(comm, p, c.w, c.h, k, compress, 0).stats;
        });
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TrafficAccounting,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace qv::compositing
