// Shared machinery for the sort-last parallel compositing algorithms
// (§4.4): the wire format for exchanged image pieces (optionally
// RLE-compressed — the paper's conclusion measures ~50% savings), piece
// extraction from partial images, and statistics counters.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "img/image.hpp"
#include "render/partial_image.hpp"
#include "vmpi/comm.hpp"

namespace qv::compositing {

using render::PartialImage;
using render::ScreenRect;

// A rectangle of pixels with its global compositing order.
struct Piece {
  std::uint32_t order = 0;
  ScreenRect rect;
  std::vector<img::Rgba> pixels;  // row-major, rect.width() * rect.height()
};

struct CompositeStats {
  std::uint64_t messages = 0;        // point-to-point messages sent
  std::uint64_t bytes_sent = 0;      // total payload sent by this rank
  std::uint64_t pixels_sent = 0;     // pre-compression pixel count
  double schedule_seconds = 0.0;     // SLIC schedule computation time
  double composite_seconds = 0.0;    // local compositing work

  void merge(const CompositeStats& o) {
    messages += o.messages;
    bytes_sent += o.bytes_sent;
    pixels_sent += o.pixels_sent;
    schedule_seconds += o.schedule_seconds;
    composite_seconds += o.composite_seconds;
  }
};

// Feed one rank's completed-call statistics into the metrics registry
// (compositing.messages / compositing.bytes_sent / compositing.pixels_sent).
// Every algorithm calls this once per invocation just before returning.
void record_stats(const CompositeStats& s);

// Extract `rect` (screen coordinates, must be inside partial.rect) from a
// partial image as a Piece.
Piece extract_piece(const PartialImage& partial, ScreenRect rect);

// Append a serialized piece to `buf`; `compress` selects RLE pixel payload.
void pack_piece(const Piece& piece, bool compress, std::vector<std::uint8_t>& buf);

// Unpack all pieces in a message. Piece rects must lie inside a
// max_width x max_height image; a malformed piece throws a "compositing:"
// std::runtime_error before anything is sized from it.
std::vector<Piece> unpack_pieces(std::span<const std::uint8_t> buf,
                                 int max_width, int max_height);

// --- active-pixel wire format (radix-k / binary-swap exchange) --------------
//
// A hardened, self-validating framing for piece exchange. Layout:
//
//   [StreamHeader  16 B]  magic "QVPS" | piece_count | total_bytes | crc32
//   [PieceFrame       ]*  repeated piece_count times, back to back
//
//   PieceFrame:
//   [FramedPieceHeader 36 B]  magic "QVP2" | order | x0 y0 x1 y1 |
//                             payload_bytes | encoding | pad[3] | crc32
//   [payload payload_bytes B] kRaw: rect.w*rect.h raw Rgba values
//                             kActiveRle: RLE of the active-pixel bbox
//
// Both headers carry a CRC over their own bytes, the stream header pins the
// exact message length, and the decoder re-derives every payload length —
// so truncation at ANY byte (including a frame boundary), any header bit
// flip, and random garbage are all rejected with nullopt rather than
// repaired or partially decoded (mirrors the stream/control codec fuzz
// contracts from PR 2).
enum class PieceEncoding : std::uint8_t { kRaw = 0, kActiveRle = 1 };

// Bounding box of the non-transparent pixels of `piece`, in screen
// coordinates; {0,0,0,0} when the piece is fully transparent. Dropping the
// pixels outside this box is lossless for compositing: composite_pieces()
// skips transparent sources, and an untouched output pixel is exactly zero.
ScreenRect active_bbox(const Piece& piece);

// Incrementally builds one wire message from pieces. `compress` selects
// kActiveRle (bbox shrink + RLE) for every added piece, else kRaw.
class PieceStreamWriter {
 public:
  explicit PieceStreamWriter(bool compress);
  void add(const Piece& piece);
  // Pre-compression pixel count over all added pieces (for stats).
  std::uint64_t pixels_added() const { return pixels_; }
  // Finalize the stream header and hand back the message; the writer is
  // spent afterwards (pixels_added() stays valid).
  std::vector<std::uint8_t> finish();

 private:
  bool compress_;
  std::uint32_t count_ = 0;
  std::uint64_t pixels_ = 0;
  std::vector<std::uint8_t> buf_;
};

// Decode a full message produced by PieceStreamWriter. `max_width` /
// `max_height` bound the acceptable piece rects (the screen size). Returns
// nullopt on any malformation; never throws, never returns a partial list.
std::optional<std::vector<Piece>> unpack_piece_stream(
    std::span<const std::uint8_t> buf, int max_width, int max_height);

// Composite `pieces` (sorted by order internally, front-to-back) into `out`
// over the region each piece covers. `out` is in screen coordinates
// starting at (ox, oy).
void composite_pieces(std::vector<Piece>& pieces, img::Image& out, int ox, int oy);

// The result of a collective compositing call: rank `root` holds the final
// image; other ranks hold an empty image.
struct CompositeResult {
  img::Image image;
  CompositeStats stats;
};

}  // namespace qv::compositing
