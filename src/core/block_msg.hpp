// The data-source -> renderer block message, shared by the pipeline's input
// ranks and the in-situ solver root: 8-bit quantized node values
// (optionally RLE-compressed) behind a 32-byte header carrying the
// quantization range, the value count, and a CRC-32 of the payload. A
// sender lists each step's messages once (BlockMsgSpec) and ships them
// with send_block_msgs.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "io/block_index.hpp"
#include "io/codec.hpp"
#include "io/preprocess.hpp"
#include "util/crc32.hpp"
#include "vmpi/comm.hpp"

namespace qv::core {

// Per-step message tags: step * 8 + kind keeps the spaces disjoint. Kinds
// 0 (blocks) and 1 (frames) are shared with the render stage; the pipeline
// adds kinds 2 and 3 and the constant control tags 4 and 5, which no
// per-step tag (always ≡ 0..3 mod 8) can collide with.
inline int tag_block(int step) { return step * 8 + 0; }
inline int tag_frame(int step) { return step * 8 + 1; }

inline constexpr std::uint8_t kFlagStepSkipped = 1;  // fetch failed; reuse old data

struct BlockMsgHeader {
  std::int32_t step;
  // Global block id; under 2DIP-independent the sending group member.
  std::int32_t block;
  float lo, hi;          // quantization range
  std::uint32_t count;   // quantized value count
  std::uint32_t payload; // bytes that follow (== count when uncompressed)
  std::uint32_t crc;     // CRC-32 of the payload bytes
  std::uint8_t compressed;
  std::uint8_t flags;    // kFlagStepSkipped
  std::uint8_t pad[2];
};

// The fault layer never corrupts the first FaultPlan::corrupt_offset_min
// (default 32) bytes of a message — the trusted-header model. A data header
// must fit in that prefix so step/block routing and the CRC itself survive,
// which is what lets a renderer address its NACK.
static_assert(sizeof(BlockMsgHeader) == 32);

// Header + payload of one message's quantized values, RLE-compressed when
// `compress` is set and that wins. `raw`/`sent`, when non-null, accumulate
// the payload bytes before and after compression.
inline std::vector<std::uint8_t> make_block_msg(
    int step, std::int32_t id, float lo, float hi,
    std::span<const std::uint8_t> values, bool compress, std::uint64_t* raw,
    std::uint64_t* sent) {
  constexpr std::size_t kHeader = sizeof(BlockMsgHeader);
  std::vector<std::uint8_t> msg(kHeader);
  bool compressed = false;
  if (compress) {
    io::rle8_encode(values, msg);
    compressed = msg.size() - kHeader < values.size();
    if (!compressed) msg.resize(kHeader);  // did not pay off
  }
  if (!compressed) msg.insert(msg.end(), values.begin(), values.end());
  const std::span<const std::uint8_t> payload(msg.data() + kHeader,
                                              msg.size() - kHeader);
  const BlockMsgHeader hdr{step, id, lo, hi, std::uint32_t(values.size()),
                           std::uint32_t(payload.size()), util::crc32(payload),
                           std::uint8_t(compressed), 0, {}};
  std::memcpy(msg.data(), &hdr, sizeof(hdr));
  if (raw) *raw += values.size();
  if (sent) *sent += payload.size();
  return msg;
}

// Header-only "this step's data is not coming" marker.
inline std::vector<std::uint8_t> make_skip_block_msg(int step,
                                                     std::int32_t id = -1) {
  const BlockMsgHeader hdr{step, id, 0, 0, 0, 0, 0, 0, kFlagStepSkipped, {}};
  std::vector<std::uint8_t> msg(sizeof(hdr));
  std::memcpy(msg.data(), &hdr, sizeof(hdr));
  return msg;
}

// The header of a received message; nullopt when `msg` is shorter than one.
inline std::optional<BlockMsgHeader> read_header(
    std::span<const std::uint8_t> msg) {
  if (msg.size() < sizeof(BlockMsgHeader)) return std::nullopt;
  BlockMsgHeader hdr;
  std::memcpy(&hdr, msg.data(), sizeof(hdr));
  return hdr;
}

// Does the payload match its framing checksum?
inline bool payload_ok(const BlockMsgHeader& hdr,
                       std::span<const std::uint8_t> msg) {
  if (msg.size() != sizeof(hdr) + hdr.payload) return false;
  return util::crc32(msg.subspan(sizeof(hdr))) == hdr.crc;
}

// Dequantize a verified message's payload through `store(i, value)`.
template <typename Fn>
void unpack_values(const BlockMsgHeader& hdr, std::span<const std::uint8_t> msg,
                   std::vector<std::uint8_t>& scratch, Fn&& store) {
  std::span<const std::uint8_t> values;
  if (hdr.compressed) {
    scratch.resize(hdr.count);
    if (!io::rle8_decode(msg, sizeof(hdr), scratch))
      throw std::runtime_error("block message: corrupt compressed payload");
    values = scratch;
  } else {
    if (msg.size() - sizeof(hdr) != hdr.count)
      throw std::runtime_error("block message: payload size mismatch");
    values = msg.subspan(sizeof(hdr));
  }
  const float scale = (hdr.hi - hdr.lo) / 255.0f;
  for (std::size_t i = 0; i < values.size(); ++i) {
    store(i, hdr.lo + scale * float(values[i]));
  }
}

// Dequantize a verified block message into the receiving block's values.
// Throws when the value count disagrees with dst.size(): the message was
// built for a different block.
void unpack_block(const BlockMsgHeader& hdr, std::span<const std::uint8_t> msg,
                  std::vector<std::uint8_t>& scratch, std::span<float> dst);

// One message of a sender's step: the quantized values at `positions` of
// the sender's node array, in that order, go to render rank `renderer`
// (within the render group) under header id `id`.
struct BlockMsgSpec {
  int renderer;
  std::int32_t id;
  std::vector<std::uint32_t> positions;
};

// Every block in block order, to its owner, with id = block and the
// block's node ids as positions: the list of a sender holding the level.
std::vector<BlockMsgSpec> per_block_msgs(const io::BlockNodeIndex& index,
                                         std::span<const int> owners);

// Build and isend each message of `msgs` for `step` from `q`, the sender's
// quantized node array, under tag_block(step) to world rank
// first_renderer + renderer. `raw`/`sent` as in make_block_msg.
void send_block_msgs(vmpi::Comm& world, int first_renderer, int step,
                     const io::QuantizedField& q,
                     std::span<const BlockMsgSpec> msgs, bool compress,
                     std::uint64_t* raw, std::uint64_t* sent);

}  // namespace qv::core
