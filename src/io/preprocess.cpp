#include "io/preprocess.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "trace/trace.hpp"

namespace qv::io {

QuantizedField quantize(std::span<const float> values, float lo, float hi) {
  trace::Span tsp("io", "quantize", std::int64_t(values.size()));
  QuantizedField q;
  if (lo >= hi) {
    lo = values.empty() ? 0.0f : *std::min_element(values.begin(), values.end());
    hi = values.empty() ? 1.0f : *std::max_element(values.begin(), values.end());
    if (hi <= lo) hi = lo + 1.0f;
  }
  q.lo = lo;
  q.hi = hi;
  q.values.resize(values.size());
  const float scale = 255.0f / (hi - lo);
  for (std::size_t i = 0; i < values.size(); ++i) {
    float t = (values[i] - lo) * scale;
    q.values[i] = std::uint8_t(std::clamp(t, 0.0f, 255.0f));
  }
  return q;
}

std::vector<float> magnitude(std::span<const float> interleaved, int components) {
  if (components <= 0 || interleaved.size() % std::size_t(components) != 0)
    throw std::runtime_error("magnitude: bad component count");
  std::size_t n = interleaved.size() / std::size_t(components);
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    float s = 0.0f;
    for (int c = 0; c < components; ++c) {
      float v = interleaved[i * std::size_t(components) + std::size_t(c)];
      s += v * v;
    }
    out[i] = std::sqrt(s);
  }
  return out;
}

std::vector<float> derive_scalar(std::span<const float> interleaved,
                                 int components, Variable variable) {
  if (variable == Variable::kMagnitude) return magnitude(interleaved, components);
  if (components <= 0 || interleaved.size() % std::size_t(components) != 0)
    throw std::runtime_error("derive_scalar: bad component count");
  std::size_t n = interleaved.size() / std::size_t(components);
  std::vector<float> out(n);
  auto comp = [&](std::size_t i, int c) {
    return c < components ? interleaved[i * std::size_t(components) + std::size_t(c)]
                          : 0.0f;
  };
  for (std::size_t i = 0; i < n; ++i) {
    switch (variable) {
      case Variable::kComponentX:
        out[i] = std::fabs(comp(i, 0));
        break;
      case Variable::kComponentY:
        out[i] = std::fabs(comp(i, 1));
        break;
      case Variable::kComponentZ:
        out[i] = std::fabs(comp(i, 2));
        break;
      case Variable::kHorizontal: {
        float x = comp(i, 0), y = comp(i, 1);
        out[i] = std::sqrt(x * x + y * y);
        break;
      }
      case Variable::kMagnitude:
        break;  // handled above
    }
  }
  return out;
}

std::vector<float> temporal_enhance(std::span<const float> value,
                                    std::span<const float> prev,
                                    std::span<const float> next, float gain) {
  std::vector<float> out(value.size());
  const bool has_prev = prev.size() == value.size();
  const bool has_next = next.size() == value.size();
  for (std::size_t i = 0; i < value.size(); ++i) {
    float back = has_prev ? std::fabs(value[i] - prev[i]) : 0.0f;
    float fwd = has_next ? std::fabs(next[i] - value[i]) : 0.0f;
    out[i] = value[i] + gain * std::max(back, fwd);
  }
  return out;
}

}  // namespace qv::io
