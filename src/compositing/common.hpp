// Shared machinery for the sort-last parallel compositing algorithms
// (§4.4): the one wire format for exchanged image pieces (optionally
// active-pixel RLE-compressed — the paper's conclusion measures ~50%
// savings), the one exchange path every algorithm sends, receives and
// gathers through, piece extraction from partial images, and statistics
// counters.
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

// One rank's traffic. Counted by send_pieces() alone, so it is exactly what
// left the rank: one message per point-to-point send (no rank sends to
// itself), its bytes on the wire, and its pre-compression pixel count.
struct CompositeStats {
  std::uint64_t messages = 0;        // point-to-point messages sent
  std::uint64_t bytes_sent = 0;      // total payload sent by this rank
  std::uint64_t pixels_sent = 0;     // pre-compression pixel count
  double schedule_seconds = 0.0;     // SLIC schedule: slic_schedule span

  void merge(const CompositeStats& o) {
    messages += o.messages;
    bytes_sent += o.bytes_sent;
    pixels_sent += o.pixels_sent;
    schedule_seconds += o.schedule_seconds;
  }
};

// Feed one rank's completed-call statistics into the metrics registry
// (compositing.messages / compositing.bytes_sent / compositing.pixels_sent).
// Every algorithm calls this once per invocation just before returning.
void record_stats(const CompositeStats& s);

// Overlap of two rects; empty() when they are disjoint.
ScreenRect intersect(ScreenRect a, ScreenRect b);

// Extract `rect` (screen coordinates, must be inside partial.rect) from a
// partial image as a Piece.
Piece extract_piece(const PartialImage& partial, ScreenRect rect);

// Copy `rect` (must be inside p.rect) out of an existing piece.
Piece clip_piece(const Piece& p, ScreenRect rect);

// --- the piece wire format (QVPS), shared by every algorithm -----------------
//
// A hardened, self-validating framing for piece exchange. Layout:
//
//   [StreamHeader  16 B]  magic "QVPS" | piece_count | total_bytes | crc32
//   [PieceFrame       ]*  repeated piece_count times, back to back
//
//   PieceFrame:
//   [PieceFrameHeader 36 B]   magic "QVP2" | order | x0 y0 x1 y1 |
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
std::optional<std::vector<Piece>> decode_piece_stream(
    std::span<const std::uint8_t> buf, int max_width, int max_height);

// --- the exchange path --------------------------------------------------------

// Finish `writer` and send it to `dest` as one message, counted once in
// `stats`. Returns the message size in bytes.
std::size_t send_pieces(vmpi::Comm& comm, int dest, int tag,
                        PieceStreamWriter& writer, CompositeStats& stats);

// Receive one message from `source`, decode it and append its pieces to
// `out`. A malformed message throws std::runtime_error("compositing:
// corrupt piece message from rank N").
void recv_pieces(vmpi::Comm& comm, int source, int tag, int width,
                 int height, std::vector<Piece>& out);

// Deliver composited tiles (disjoint across ranks) to `root`. Every rank r
// != root with senders[r] set sends its non-empty `tiles` as one message;
// the root pastes its own tiles and every received one into a width x
// height frame, which it returns. Other ranks get an empty image. Every
// rank must pass the same `senders`.
img::Image gather_tiles(vmpi::Comm& comm, int root, int tag,
                        const std::vector<bool>& senders,
                        std::span<const Piece> tiles, int width, int height,
                        bool compress, CompositeStats& stats);

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
