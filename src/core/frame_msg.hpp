// The render-root -> output-processor frame hop, with the same
// magic/version discipline as the data-distribution messages: a version or
// size mismatch is an explicit parse failure, never garbage pixels, and the
// 16-byte header stays inside the fault layer's 32-byte trusted prefix.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "img/image.hpp"

namespace qv::core {

inline constexpr std::uint32_t kFrameMsgMagic = 0x4d465651u;  // "QVFM"
inline constexpr std::uint16_t kFrameMsgVersion = 1;

struct FrameWireHeader {
  std::uint32_t magic;
  std::uint16_t version;
  std::uint8_t degraded;  // some renderer showed stale data this step
  std::uint8_t pad;
  std::int32_t step;
  std::uint32_t pixel_count;
};
static_assert(sizeof(FrameWireHeader) == 16);

// Parsed view into a frame message; `pixels` aliases the message buffer.
struct FrameMsgView {
  int step = 0;
  bool degraded = false;
  std::span<const img::Rgba> pixels;
};

// Build header + raw Rgba pixels.
std::vector<std::uint8_t> make_frame_msg(std::int32_t step, bool degraded,
                                         std::span<const img::Rgba> pixels);

// Validate and parse. Rejects short buffers, bad magic/version, and any
// pixel count that disagrees with either the header or `expected_pixels`.
std::optional<FrameMsgView> parse_frame_msg(std::span<const std::uint8_t> msg,
                                            std::size_t expected_pixels);

}  // namespace qv::core
