// The content-addressed frame cache: hit byte-identity, strict-LRU eviction
// under a byte budget, per-field key sensitivity, zipf replay determinism +
// analytic hit rate, and concurrent access (this file also runs under TSan
// in CI).
#include "stream/cache.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "stream/replay.hpp"
#include "util/rng.hpp"

namespace qv::stream {
namespace {

std::uint64_t fuzz_seed() {
  if (const char* s = std::getenv("QV_FUZZ_SEED")) {
    if (std::uint64_t v = std::strtoull(s, nullptr, 10)) return v;
  }
  return 1;
}

FrameCache::Wire wire_of(std::size_t n, std::uint8_t fill) {
  return std::make_shared<const std::vector<std::uint8_t>>(n, fill);
}

CacheIdentity test_identity() {
  CacheIdentity id;
  id.dataset_id = "unit-test-dataset";
  id.camera_hash = 0x1111;
  id.tf_hash = 0x2222;
  return id;
}

TEST(FrameCache, HitReturnsTheStoredBytesByIdentity) {
  FrameCache cache(CacheConfig{1u << 20});
  const CacheKey k = content_address(test_identity(), 3, 1, FrameKind::kKey);
  auto stored = wire_of(1000, 0xAB);
  cache.put(k, stored);
  auto got = cache.get(k);
  ASSERT_TRUE(got);
  // Not just equal bytes: the SAME shared buffer — a hit never copies.
  EXPECT_EQ(got.get(), stored.get());
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.bytes, 1000u);
  EXPECT_FALSE(cache.get(content_address(test_identity(), 4, 1,
                                         FrameKind::kKey)));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(FrameCache, StrictLruEvictionOrderUnderByteBudget) {
  // Budget fits exactly three 100-byte entries.
  FrameCache cache(CacheConfig{300});
  const auto id = test_identity();
  auto key = [&](int step) {
    return content_address(id, step, 0, FrameKind::kKey);
  };
  cache.put(key(0), wire_of(100, 0));
  cache.put(key(1), wire_of(100, 1));
  cache.put(key(2), wire_of(100, 2));
  EXPECT_EQ(cache.entries(), 3u);
  // Touch 0: recency order is now 0, 2, 1 (most recent first).
  ASSERT_TRUE(cache.get(key(0)));
  // Inserting 3 must evict exactly the LRU entry: 1.
  cache.put(key(3), wire_of(100, 3));
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_FALSE(cache.get(key(1))) << "evicted the wrong entry";
  EXPECT_TRUE(cache.get(key(0)));
  EXPECT_TRUE(cache.get(key(2)));
  EXPECT_TRUE(cache.get(key(3)));
  EXPECT_EQ(cache.stats().evictions, 1u);
  // A 250-byte entry needs 250 bytes free: with three 100-byte residents
  // that means evicting all three, strictly oldest-first.
  cache.put(key(4), wire_of(250, 4));
  EXPECT_EQ(cache.stats().evictions, 4u);
  EXPECT_LE(cache.bytes(), 300u);
  EXPECT_TRUE(cache.get(key(4)));
}

TEST(FrameCache, OversizeEntryIsRejectedWithoutEvictingAnything) {
  FrameCache cache(CacheConfig{300});
  const auto id = test_identity();
  auto key = [&](int step) {
    return content_address(id, step, 0, FrameKind::kKey);
  };
  cache.put(key(0), wire_of(100, 0));
  cache.put(key(1), wire_of(100, 1));
  // Larger than the WHOLE budget: never admitted, and — crucially — the
  // resident entries survive (rejecting must not flush the world first).
  cache.put(key(9), wire_of(301, 9));
  EXPECT_FALSE(cache.get(key(9)));
  EXPECT_TRUE(cache.get(key(0)));
  EXPECT_TRUE(cache.get(key(1)));
  auto s = cache.stats();
  EXPECT_EQ(s.oversize_rejects, 1u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(FrameCache, ContentAddressIsSensitiveToEveryField) {
  const auto id = test_identity();
  const CacheKey base = content_address(id, 5, 1, FrameKind::kKey);

  CacheIdentity other = id;
  other.dataset_id = "unit-test-dataset2";
  EXPECT_NE(content_address(other, 5, 1, FrameKind::kKey), base)
      << "dataset id not covered";
  other = id;
  other.camera_hash ^= 1;
  EXPECT_NE(content_address(other, 5, 1, FrameKind::kKey), base)
      << "camera hash not covered";
  other = id;
  other.tf_hash ^= 1;
  EXPECT_NE(content_address(other, 5, 1, FrameKind::kKey), base)
      << "transfer-function hash not covered";
  EXPECT_NE(content_address(id, 6, 1, FrameKind::kKey), base)
      << "step not covered";
  EXPECT_NE(content_address(id, 5, 2, FrameKind::kKey), base)
      << "tier not covered";
  EXPECT_NE(content_address(id, 5, 1, FrameKind::kDelta), base)
      << "kind not covered";
  // And the address is a pure function of its inputs.
  EXPECT_EQ(content_address(id, 5, 1, FrameKind::kKey), base);
  // Variable-width field boundaries must not alias: ("ab", camera) vs a
  // dataset id that absorbed adjacent bytes.
  CacheIdentity a, b;
  a.dataset_id = "ab";
  a.camera_hash = 0x6364;  // "cd"
  b.dataset_id = "abcd";
  b.camera_hash = 0;
  EXPECT_NE(content_address(a, 0, 0, FrameKind::kKey),
            content_address(b, 0, 0, FrameKind::kKey));
}

TEST(FrameCache, ZipfReplayIsBitDeterministicPerSeed) {
  ReplayConfig cfg;
  cfg.requests = 300;
  cfg.steps = 32;
  cfg.clients = 3;
  cfg.seed = fuzz_seed() * 7919 + 1;
  auto a = run_replay(cfg);
  auto b = run_replay(cfg);
  EXPECT_EQ(a.digest, b.digest) << "same seed, different run";
  EXPECT_EQ(a.cache_served, b.cache_served);
  EXPECT_EQ(a.renders, b.renders);
  EXPECT_EQ(a.verify_failures, 0u);
  EXPECT_EQ(b.verify_failures, 0u);
  cfg.seed += 1;
  auto c = run_replay(cfg);
  EXPECT_NE(a.digest, c.digest) << "seed is not reaching the trace";
}

TEST(FrameCache, ZipfReplayHitRateMatchesAnalyticExpectation) {
  ReplayConfig cfg;
  cfg.requests = 2000;
  cfg.steps = 64;
  cfg.zipf_s = 1.1;
  cfg.seed = fuzz_seed();
  cfg.cache.capacity_bytes = 256u << 20;  // ample: no capacity evictions
  auto rep = run_replay(cfg);
  ASSERT_EQ(rep.cache.evictions, 0u)
      << "analytic formula assumes compulsory misses only";
  // Every miss rendered, every hit did not: the cache is the only thing
  // standing between a request and a render.
  EXPECT_EQ(rep.renders + rep.cache_served, rep.requests);
  EXPECT_EQ(rep.renders, std::uint64_t(rep.cache.entries));
  EXPECT_EQ(rep.verify_failures, 0u);
  EXPECT_NEAR(rep.hit_rate, rep.expected_hit_rate, 0.02)
      << "measured hit rate drifted from the zipf expectation";
}

TEST(FrameCache, ReplayEvictsUnderTightBudgetAndStillVerifies) {
  ReplayConfig cfg;
  cfg.requests = 600;
  cfg.steps = 48;
  cfg.zipf_s = 0.8;  // flatter: more distinct steps touched
  cfg.seed = fuzz_seed() * 131 + 7;
  // Room for only a handful of ~86 kB keyframes: constant eviction churn.
  cfg.cache.capacity_bytes = 512u << 10;
  auto rep = run_replay(cfg);
  EXPECT_GT(rep.cache.evictions, 0u);
  EXPECT_LE(rep.cache.bytes, cfg.cache.capacity_bytes);
  // Evictions cost hits, never correctness: every hit still byte-verified.
  EXPECT_EQ(rep.verify_failures, 0u);
  EXPECT_LE(rep.hit_rate, rep.expected_hit_rate + 0.02)
      << "evictions cannot make the hit rate exceed the no-eviction bound";
}

TEST(FrameCache, ConcurrentGetPutIsSafe) {
  // 4 threads hammer a small cache with overlapping key ranges; run under
  // TSan in CI (tools/ci.sh --tsan-only). Correctness here is "no data
  // race, no lost bytes": every successful get returns a buffer whose fill
  // byte matches its key.
  FrameCache cache(CacheConfig{64u << 10});
  const auto id = test_identity();
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  constexpr int kKeys = 64;
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> bad(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(fuzz_seed() + std::uint64_t(t) * 0x9e3779b9);
      for (int i = 0; i < kOps; ++i) {
        const int step = int(rng.next_below(kKeys));
        const CacheKey k = content_address(id, step, 0, FrameKind::kKey);
        if (rng.next_below(2) == 0) {
          cache.put(k, wire_of(512, std::uint8_t(step)));
        } else if (auto w = cache.get(k)) {
          if (w->size() != 512 || (*w)[0] != std::uint8_t(step))
            ++bad[std::size_t(t)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[std::size_t(t)], 0u);
  EXPECT_LE(cache.bytes(), 64u << 10);
  auto s = cache.stats();
  EXPECT_EQ(s.bytes, cache.bytes());
  EXPECT_EQ(s.entries, cache.entries());
  EXPECT_GT(s.hits + s.misses, 0u);
}

}  // namespace
}  // namespace qv::stream
