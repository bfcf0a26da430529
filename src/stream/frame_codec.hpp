// Wire codec for remotely delivered frames.
//
// The output processor encodes each finished 8-bit frame against the frame
// the viewer already holds (per-channel delta, see img/delta.hpp), RLE-packs
// the result, and frames it with a magic/version header and a CRC-32 of the
// payload. Two frame kinds:
//
//   keyframe — RLE of the (tier-quantized) channel planes themselves;
//              decodable with no history.
//   delta    — RLE of planes minus the previously DELIVERED frame's planes;
//              the header's base_step names that reference, so a decoder
//              that missed it rejects instead of reconstructing garbage.
//
// Transmission is lossless with respect to the tier-quantized frame: at
// tier 0 the viewer reconstructs the sender's bytes exactly (the delivery
// determinism tests pin this with SHA-256 against the written PPMs). The
// encoder's reference is its own reconstruction of the last frame it sent,
// so drops on the sender side never desynchronize the chain.
//
// The decoder is a hostile-input boundary: any malformed, truncated, or
// corrupt buffer must come back as std::nullopt with the decoder state
// untouched — never a crash, never wrong pixels (see the codec fuzz suite).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "img/delta.hpp"
#include "img/image.hpp"

namespace qv::stream {

inline constexpr std::uint32_t kFrameMagic = 0x31535651u;  // "QVS1"
inline constexpr std::uint16_t kFrameVersion = 1;

enum class FrameKind : std::uint8_t { kKey = 0, kDelta = 1 };

// Fits the fault layer's 32-byte trusted-header prefix, like every other
// wire header in the pipeline.
struct FrameHeader {
  std::uint32_t magic;
  std::uint16_t version;
  std::uint8_t kind;       // FrameKind
  std::uint8_t tier;       // quantization tier the planes were coded at
  std::int32_t step;       // simulation step of this frame
  std::int32_t base_step;  // delta: reference frame's step; key: -1
  std::uint16_t width, height;
  std::uint32_t payload;   // encoded bytes following the header
  std::uint32_t crc;       // CRC-32 of the payload bytes
  // View epoch of the frame: together (step, epoch) is the stable frame id
  // that lineage events carry end to end, so the on-wire bytes ARE the
  // correlation key — a decoder-side event needs no side channel to name
  // the frame it belongs to. Took over the former zero pad; epoch 0 is
  // byte-identical to version-1 frames, so kFrameVersion stays 1.
  std::uint32_t epoch;
};
static_assert(sizeof(FrameHeader) == 32);

// Assemble a complete wire message (header + RLE payload + CRC) from raw
// pre-RLE bytes: channel planes for a keyframe, plane deltas for a delta.
// This is the one place frame wire bytes are built — FrameEncoder and the
// fan-out FrameEncoderBank both call it, so their output is bit-identical.
std::vector<std::uint8_t> pack_frame(FrameKind kind, int tier, int step,
                                     int base_step, int width, int height,
                                     std::span<const std::uint8_t> raw,
                                     std::uint32_t epoch = 0);

// Stateful encoder: owns the reconstruction of the last frame it emitted.
class FrameEncoder {
 public:
  FrameEncoder(int width, int height);

  // Encode `frame` (dimensions must match the constructor's) at the given
  // tier. The first frame, and any frame with `keyframe` set, is emitted as
  // a keyframe. Returns the complete wire message (header + payload).
  std::vector<std::uint8_t> encode(int step, const img::Image8& frame,
                                   int tier = 0, bool keyframe = false);

  bool has_reference() const { return ref_step_ >= 0; }

  // View epoch stamped into every subsequent frame header (lineage id).
  void set_epoch(std::uint32_t epoch) { epoch_ = epoch; }
  std::uint32_t epoch() const { return epoch_; }

  // View change: forget the delta reference so the next encode is forced to
  // a keyframe — a delta can never be coded across the edit.
  void invalidate_chain() { ref_step_ = -1; }

 private:
  int w_, h_;
  std::vector<std::uint8_t> ref_;  // quantized planes of the last sent frame
  int ref_step_ = -1;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint8_t> planes_, deltas_;  // scratch
};

// Shared encoder bank for the delivery server: one delta chain per
// quantization tier, every (step, tier, kind) encoded at most once and the
// wire bytes handed out as shared buffers, so a thousand clients cost one
// encode plus per-client queue copies — never per-client encode CPU.
//
// Chain discipline: a tier's reference advances to step s only if a tier-t
// wire was emitted at s (committed at the next begin_step), so delta(t)
// always codes against the last tier-t frame any client can actually hold.
// The server sends delta(t) only to clients whose last received step equals
// ref_step(t); everyone else re-anchors on key(t).
class FrameEncoderBank {
 public:
  FrameEncoderBank(int width, int height);

  // Stage the frame for `step` (strictly increasing); commits the previous
  // step's emitted planes as each tier's delta reference and clears the
  // per-step wire cache.
  void begin_step(int step, const img::Image8& frame);

  int step() const { return step_; }
  // The step tier t's delta chain references; -1 until a tier-t frame has
  // been emitted (only keyframes are possible then).
  int ref_step(int tier) const;

  // Wire bytes for the staged step, encoded on first demand and cached for
  // the rest of the step. `delta` requires ref_step(tier) >= 0.
  std::shared_ptr<const std::vector<std::uint8_t>> key(int tier);
  std::shared_ptr<const std::vector<std::uint8_t>> delta(int tier);

  // View epoch stamped into every frame header packed from now on (lineage
  // id). Call before begin_step when the view changes; cached wires for the
  // already-staged step keep the epoch they were packed with.
  void set_epoch(std::uint32_t epoch) { epoch_ = epoch; }
  std::uint32_t epoch() const { return epoch_; }

  // View change: drop every tier's delta reference (and any cached wires of
  // the staged step — they encode the pre-edit view). Until a tier re-emits
  // a keyframe, ref_step(t) is -1 and delta(t) throws, so a delta coded
  // across the edit is structurally impossible, for every client at once.
  // Call between steps, before begin_step of the first post-edit frame.
  void invalidate_chains();

  std::uint64_t encodes() const { return encodes_; }  // actual encode work
  std::uint64_t reuses() const { return reuses_; }    // served from cache

 private:
  struct Tier {
    std::vector<std::uint8_t> ref;     // planes of the last emitted step
    int ref_step = -1;
    std::vector<std::uint8_t> planes;  // staged quantized planes
    bool staged = false;               // planes valid for the current step
    bool emitted = false;              // some wire was produced this step
    std::shared_ptr<const std::vector<std::uint8_t>> key_wire, delta_wire;
  };
  Tier& stage(int tier);

  int w_, h_;
  int step_ = -1;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint8_t> planes0_;  // unquantized planes of staged frame
  std::vector<std::uint8_t> scratch_;  // delta scratch
  std::array<Tier, img::kMaxQuantizeTier + 1> tiers_;
  std::uint64_t encodes_ = 0, reuses_ = 0;
};

struct DecodedFrame {
  int step = 0;
  std::uint32_t epoch = 0;  // view epoch from the header ((step, epoch) = frame id)
  int tier = 0;
  int base_step = -1;  // delta: the reference frame's step; key: -1
  FrameKind kind = FrameKind::kKey;
  img::Image8 image;
};

// Stateful decoder: holds the last successfully decoded frame as the delta
// reference. A failed decode leaves that state untouched.
class FrameDecoder {
 public:
  std::optional<DecodedFrame> decode(std::span<const std::uint8_t> wire);

  bool has_reference() const { return ref_step_ >= 0; }
  int reference_step() const { return ref_step_; }

 private:
  int w_ = 0, h_ = 0;              // established by the first keyframe
  std::vector<std::uint8_t> ref_;  // planes of the last decoded frame
  int ref_step_ = -1;
  std::vector<std::uint8_t> scratch_;
};

// --- stream recording -------------------------------------------------------
// On-disk format consumed by `quakeviz view`: an 8-byte magic followed by
// length-prefixed wire frames in delivery order, closed by an end-of-stream
// trailer (a sentinel length + the frame count). The trailer is what makes
// EVERY truncation detectable: a capture cut mid-frame fails the entry read,
// and one cut exactly at a frame boundary — indistinguishable from a clean
// end in the 01 format — now fails the missing-trailer check.
inline constexpr char kRecordMagic[8] = {'Q', 'V', 'S', 'T', 'R', 'M', '0', '2'};
inline constexpr std::uint32_t kRecordEndSentinel = 0xFFFFFFFFu;

// Write `frames` (wire messages) to `path`. Returns false on I/O failure.
bool write_record_file(const std::string& path,
                       std::span<const std::vector<std::uint8_t>> frames);

// Read a record file back into wire messages; nullopt on a missing file,
// bad magic, a truncated entry, or a missing/inconsistent trailer. When
// `err` is non-null it receives a one-line human-readable cause.
std::optional<std::vector<std::vector<std::uint8_t>>> read_record_file(
    const std::string& path, std::string* err = nullptr);

}  // namespace qv::stream
