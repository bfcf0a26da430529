// Preprocessing calculations the paper runs on the *input* processors (§4):
// quantization from 32-bit floats to 8-bit, derivation of scalar magnitude
// from vector data, and temporal-domain enhancement (§4.2). Lighting
// gradients are not precomputed: the renderer takes them from the samples
// it interpolates (RenderBlock::sample_gradient).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace qv::io {

// 8-bit quantized field with its dequantization range.
struct QuantizedField {
  std::vector<std::uint8_t> values;
  float lo = 0.0f;
  float hi = 1.0f;

  float dequantize(std::size_t i) const {
    return lo + (hi - lo) * (float(values[i]) / 255.0f);
  }
};

// Quantize into [lo, hi]; values outside the range clamp. When lo >= hi the
// range is computed from the data (per-step auto range).
QuantizedField quantize(std::span<const float> values, float lo = 0.0f,
                        float hi = -1.0f);

// Euclidean magnitude of interleaved `components`-vector node data.
std::vector<float> magnitude(std::span<const float> interleaved, int components);

// The scalar an exploration session maps onto the transfer function —
// "explore their data in the ... variable domain" (§1). Derived per node
// from the stored vector records.
enum class Variable {
  kMagnitude,   // |v|
  kComponentX,  // |v_x|  (east-west shaking)
  kComponentY,  // |v_y|  (north-south shaking)
  kComponentZ,  // |v_z|  (vertical shaking)
  kHorizontal,  // sqrt(v_x^2 + v_y^2)  (horizontal shaking intensity)
};

// Derive the chosen scalar from interleaved records. Components beyond the
// record width read as zero (a 1-component dataset only supports
// kMagnitude/kComponentX).
std::vector<float> derive_scalar(std::span<const float> interleaved,
                                 int components, Variable variable);

// Temporal-domain enhancement (§4.2, after [16]): boost each node by the
// local rate of change so that small late-time waves remain visible.
//   enhanced[i] = value[i] + gain * max(|value[i]-prev[i]|, |next[i]-value[i]|)
// Either neighbour may be empty (first/last step) — the other is used alone.
std::vector<float> temporal_enhance(std::span<const float> value,
                                    std::span<const float> prev,
                                    std::span<const float> next, float gain);

}  // namespace qv::io
