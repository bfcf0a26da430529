#include "io/preprocess.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace qv::io {
namespace {

TEST(Quantize, AutoRangeCoversData) {
  std::vector<float> v = {-2.0f, 0.0f, 3.0f, 1.0f};
  auto q = quantize(v);
  EXPECT_FLOAT_EQ(q.lo, -2.0f);
  EXPECT_FLOAT_EQ(q.hi, 3.0f);
  EXPECT_EQ(q.values[0], 0);
  EXPECT_EQ(q.values[2], 255);
}

TEST(Quantize, FixedRangeClamps) {
  std::vector<float> v = {-10.0f, 0.5f, 10.0f};
  auto q = quantize(v, 0.0f, 1.0f);
  EXPECT_EQ(q.values[0], 0);
  EXPECT_EQ(q.values[2], 255);
  EXPECT_NEAR(q.dequantize(1), 0.5f, 1.0f / 255.0f);
}

TEST(Quantize, RoundTripErrorBounded) {
  Rng rng(3);
  std::vector<float> v(10000);
  for (auto& x : v) x = float(rng.uniform(-5, 5));
  auto q = quantize(v, -5.0f, 5.0f);
  float max_err = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    max_err = std::max(max_err, std::fabs(q.dequantize(i) - v[i]));
  }
  // 8-bit over a range of 10: worst case one quantum = 10/255.
  EXPECT_LE(max_err, 10.0f / 255.0f + 1e-5f);
}

TEST(Quantize, ConstantDataHandled) {
  std::vector<float> v(100, 4.0f);
  auto q = quantize(v);
  EXPECT_EQ(q.values[50], 0);  // degenerate range expands; values clamp low
  EXPECT_FLOAT_EQ(q.dequantize(50), 4.0f);
}

TEST(Magnitude, ThreeComponents) {
  std::vector<float> v = {3, 4, 0, 1, 2, 2};
  auto m = magnitude(v, 3);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_FLOAT_EQ(m[0], 5.0f);
  EXPECT_FLOAT_EQ(m[1], 3.0f);
}

TEST(Magnitude, SingleComponentIsAbs) {
  std::vector<float> v = {-3, 4};
  auto m = magnitude(v, 1);
  EXPECT_FLOAT_EQ(m[0], 3.0f);
  EXPECT_FLOAT_EQ(m[1], 4.0f);
}

TEST(Magnitude, BadComponentCountThrows) {
  std::vector<float> v = {1, 2, 3, 4};
  EXPECT_THROW(magnitude(v, 3), std::runtime_error);
  EXPECT_THROW(magnitude(v, 0), std::runtime_error);
}

TEST(TemporalEnhance, BoostsChangingRegions) {
  std::vector<float> cur = {1.0f, 1.0f};
  std::vector<float> prev = {1.0f, 0.0f};  // node 1 changed
  std::vector<float> next = {1.0f, 1.0f};
  auto e = temporal_enhance(cur, prev, next, 2.0f);
  EXPECT_FLOAT_EQ(e[0], 1.0f);  // static: unchanged
  EXPECT_FLOAT_EQ(e[1], 3.0f);  // 1 + 2 * |1-0|
}

TEST(TemporalEnhance, MissingNeighborsDegradeGracefully) {
  std::vector<float> cur = {2.0f};
  auto only_next = temporal_enhance(cur, {}, std::vector<float>{5.0f}, 1.0f);
  EXPECT_FLOAT_EQ(only_next[0], 5.0f);  // 2 + |5-2|
  auto neither = temporal_enhance(cur, {}, {}, 1.0f);
  EXPECT_FLOAT_EQ(neither[0], 2.0f);
}

TEST(TemporalEnhance, UsesLargerOfBothDifferences) {
  std::vector<float> cur = {1.0f};
  std::vector<float> prev = {0.5f};   // diff 0.5
  std::vector<float> next = {3.0f};   // diff 2.0
  auto e = temporal_enhance(cur, prev, next, 1.0f);
  EXPECT_FLOAT_EQ(e[0], 3.0f);  // 1 + max(0.5, 2.0)
}

}  // namespace
}  // namespace qv::io
