#include "stream/frame_codec.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "img/delta.hpp"
#include "io/codec.hpp"
#include "util/crc32.hpp"

namespace qv::stream {

std::vector<std::uint8_t> pack_frame(FrameKind kind, int tier, int step,
                                     int base_step, int width, int height,
                                     std::span<const std::uint8_t> raw,
                                     std::uint32_t epoch) {
  std::vector<std::uint8_t> wire(sizeof(FrameHeader));
  io::rle8_encode(raw, wire);

  FrameHeader h{};
  h.magic = kFrameMagic;
  h.version = kFrameVersion;
  h.kind = std::uint8_t(kind);
  h.tier = std::uint8_t(tier);
  h.step = step;
  h.base_step = kind == FrameKind::kKey ? -1 : base_step;
  h.width = std::uint16_t(width);
  h.height = std::uint16_t(height);
  h.payload = std::uint32_t(wire.size() - sizeof(FrameHeader));
  h.crc = util::crc32(
      {wire.data() + sizeof(FrameHeader), wire.size() - sizeof(FrameHeader)});
  h.epoch = epoch;
  std::memcpy(wire.data(), &h, sizeof(h));
  return wire;
}

FrameEncoder::FrameEncoder(int width, int height)
    : w_(width), h_(height) {}

std::vector<std::uint8_t> FrameEncoder::encode(int step,
                                               const img::Image8& frame,
                                               int tier, bool keyframe) {
  tier = std::clamp(tier, 0, img::kMaxQuantizeTier);
  const std::size_t n = std::size_t(w_) * h_ * 3;
  planes_.resize(n);
  img::deinterleave_rgb({frame.data(), n}, planes_);
  img::quantize_tier(planes_, tier);

  const bool key = keyframe || ref_step_ < 0;
  std::vector<std::uint8_t> wire;
  if (key) {
    wire = pack_frame(FrameKind::kKey, tier, step, -1, w_, h_, planes_,
                      epoch_);
  } else {
    deltas_.resize(n);
    img::delta_encode(ref_, planes_, deltas_);
    wire = pack_frame(FrameKind::kDelta, tier, step, ref_step_, w_, h_,
                      deltas_, epoch_);
  }

  // The quantized planes ARE what the viewer will reconstruct (delta is
  // exact byte arithmetic), so they become the next frame's reference.
  ref_.swap(planes_);
  ref_step_ = step;
  return wire;
}

// --- FrameEncoderBank -------------------------------------------------------

FrameEncoderBank::FrameEncoderBank(int width, int height)
    : w_(width), h_(height) {}

void FrameEncoderBank::begin_step(int step, const img::Image8& frame) {
  if (step <= step_)
    throw std::logic_error("FrameEncoderBank: steps must increase");
  for (auto& t : tiers_) {
    if (t.emitted) {
      // Whatever was handed out this step — key or delta — leaves every
      // consumer holding these planes; they are the next delta reference.
      t.ref.swap(t.planes);
      t.ref_step = step_;
    }
    t.staged = false;
    t.emitted = false;
    t.key_wire.reset();
    t.delta_wire.reset();
  }
  step_ = step;
  const std::size_t n = std::size_t(w_) * h_ * 3;
  planes0_.resize(n);
  img::deinterleave_rgb({frame.data(), n}, planes0_);
}

int FrameEncoderBank::ref_step(int tier) const {
  return tiers_[std::size_t(std::clamp(tier, 0, img::kMaxQuantizeTier))]
      .ref_step;
}

FrameEncoderBank::Tier& FrameEncoderBank::stage(int tier) {
  if (step_ < 0)
    throw std::logic_error("FrameEncoderBank: no staged frame");
  Tier& t = tiers_[std::size_t(tier)];
  if (!t.staged) {
    t.planes = planes0_;
    img::quantize_tier(t.planes, tier);
    t.staged = true;
  }
  return t;
}

std::shared_ptr<const std::vector<std::uint8_t>> FrameEncoderBank::key(
    int tier) {
  tier = std::clamp(tier, 0, img::kMaxQuantizeTier);
  Tier& t = stage(tier);
  if (!t.key_wire) {
    t.key_wire = std::make_shared<const std::vector<std::uint8_t>>(pack_frame(
        FrameKind::kKey, tier, step_, -1, w_, h_, t.planes, epoch_));
    ++encodes_;
  } else {
    ++reuses_;
  }
  t.emitted = true;
  return t.key_wire;
}

std::shared_ptr<const std::vector<std::uint8_t>> FrameEncoderBank::delta(
    int tier) {
  tier = std::clamp(tier, 0, img::kMaxQuantizeTier);
  Tier& t = stage(tier);
  if (t.ref_step < 0)
    throw std::logic_error("FrameEncoderBank: delta with no tier reference");
  if (!t.delta_wire) {
    scratch_.resize(t.planes.size());
    img::delta_encode(t.ref, t.planes, scratch_);
    t.delta_wire = std::make_shared<const std::vector<std::uint8_t>>(
        pack_frame(FrameKind::kDelta, tier, step_, t.ref_step, w_, h_,
                   scratch_, epoch_));
    ++encodes_;
  } else {
    ++reuses_;
  }
  t.emitted = true;
  return t.delta_wire;
}

void FrameEncoderBank::invalidate_chains() {
  for (auto& t : tiers_) {
    t.ref.clear();
    t.ref_step = -1;
    // Anything staged or cached for the current step codes the pre-edit
    // view; the emitted flag must die with it or begin_step would commit
    // stale planes as the post-edit reference.
    t.staged = false;
    t.emitted = false;
    t.key_wire.reset();
    t.delta_wire.reset();
  }
}

std::optional<DecodedFrame> FrameDecoder::decode(
    std::span<const std::uint8_t> wire) {
  if (wire.size() < sizeof(FrameHeader)) return std::nullopt;
  FrameHeader h;
  std::memcpy(&h, wire.data(), sizeof(h));
  if (h.magic != kFrameMagic || h.version != kFrameVersion) return std::nullopt;
  if (h.kind > std::uint8_t(FrameKind::kDelta)) return std::nullopt;
  if (h.tier > img::kMaxQuantizeTier) return std::nullopt;
  if (h.width == 0 || h.height == 0) return std::nullopt;
  if (std::size_t(h.payload) != wire.size() - sizeof(FrameHeader))
    return std::nullopt;

  auto payload = wire.subspan(sizeof(FrameHeader));
  if (util::crc32(payload) != h.crc) return std::nullopt;

  const bool key = h.kind == std::uint8_t(FrameKind::kKey);
  if (key) {
    // A keyframe (re)establishes the stream dimensions.
    if (ref_step_ >= 0 && (h.width != w_ || h.height != h_))
      return std::nullopt;
  } else {
    // A delta is only decodable against the exact frame it was coded from.
    if (ref_step_ < 0 || h.base_step != ref_step_) return std::nullopt;
    if (h.width != w_ || h.height != h_) return std::nullopt;
  }

  const std::size_t n = std::size_t(h.width) * h.height * 3;
  scratch_.resize(n);
  auto consumed = io::rle8_decode(payload, 0, scratch_);
  // Exact-consumption check: trailing garbage after a valid prefix is
  // corruption, not slack.
  if (!consumed || *consumed != payload.size()) return std::nullopt;

  if (!key) {
    // scratch_ holds deltas; apply in place against the reference.
    img::delta_apply(ref_, scratch_, scratch_);
  }

  DecodedFrame out;
  out.step = h.step;
  out.epoch = h.epoch;
  out.tier = h.tier;
  out.base_step = key ? -1 : h.base_step;
  out.kind = FrameKind(h.kind);
  out.image = img::Image8(h.width, h.height);
  img::interleave_rgb(scratch_, {out.image.data(), n});

  // Commit decoder state only now that everything validated.
  w_ = h.width;
  h_ = h.height;
  ref_.swap(scratch_);
  ref_step_ = h.step;
  return out;
}

bool write_record_file(const std::string& path,
                       std::span<const std::vector<std::uint8_t>> frames) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f.write(kRecordMagic, sizeof(kRecordMagic));
  for (const auto& w : frames) {
    std::uint32_t len = std::uint32_t(w.size());
    f.write(reinterpret_cast<const char*>(&len), sizeof(len));
    f.write(reinterpret_cast<const char*>(w.data()),
            std::streamsize(w.size()));
  }
  // End-of-stream trailer: without it, a capture truncated at a frame
  // boundary would be indistinguishable from a clean end.
  std::uint32_t sentinel = kRecordEndSentinel;
  std::uint32_t count = std::uint32_t(frames.size());
  f.write(reinterpret_cast<const char*>(&sentinel), sizeof(sentinel));
  f.write(reinterpret_cast<const char*>(&count), sizeof(count));
  return bool(f);
}

std::optional<std::vector<std::vector<std::uint8_t>>> read_record_file(
    const std::string& path, std::string* err) {
  auto fail = [&](const std::string& why)
      -> std::optional<std::vector<std::vector<std::uint8_t>>> {
    if (err) *err = why;
    return std::nullopt;
  };
  std::ifstream f(path, std::ios::binary);
  if (!f) return fail("cannot open " + path);
  char magic[sizeof(kRecordMagic)];
  if (!f.read(magic, sizeof(magic)))
    return fail("not a stream record: file shorter than the magic");
  if (std::memcmp(magic, kRecordMagic, sizeof(magic)) != 0)
    return fail("bad magic: not a " +
                std::string(kRecordMagic, sizeof(kRecordMagic)) +
                " stream record");
  std::vector<std::vector<std::uint8_t>> frames;
  for (;;) {
    std::uint32_t len;
    if (!f.read(reinterpret_cast<char*>(&len), sizeof(len))) {
      // The 01 format treated EOF here as a clean end; with the trailer, any
      // EOF before the sentinel means the capture was cut off mid-stream.
      return fail("truncated record: capture ended after " +
                  std::to_string(frames.size()) +
                  " whole frames with no end-of-stream trailer");
    }
    if (len == kRecordEndSentinel) {
      std::uint32_t count;
      if (!f.read(reinterpret_cast<char*>(&count), sizeof(count)))
        return fail("truncated record: end-of-stream trailer cut short");
      if (count != frames.size())
        return fail("corrupt record: trailer counts " + std::to_string(count) +
                    " frames, file holds " + std::to_string(frames.size()));
      char extra;
      if (f.read(&extra, 1))
        return fail("corrupt record: bytes after the end-of-stream trailer");
      break;
    }
    if (len > (1u << 30))
      return fail("corrupt record: implausible frame length");
    std::vector<std::uint8_t> w(len);
    if (!f.read(reinterpret_cast<char*>(w.data()), std::streamsize(len)))
      return fail("truncated record: frame " + std::to_string(frames.size()) +
                  " cut mid-frame (" + std::to_string(f.gcount()) + " of " +
                  std::to_string(len) + " bytes)");
    frames.push_back(std::move(w));
  }
  return frames;
}

}  // namespace qv::stream
