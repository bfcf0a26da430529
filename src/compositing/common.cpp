#include "compositing/common.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>

#include "img/rle.hpp"
#include "metrics/metrics.hpp"
#include "util/crc32.hpp"

namespace qv::compositing {

namespace {

// QVPS framing (see common.hpp for the layout contract).
constexpr std::uint32_t kStreamMagic = 0x53505651u;  // "QVPS" little-endian
constexpr std::uint32_t kPieceMagic = 0x32505651u;   // "QVP2" little-endian

struct StreamHeader {
  std::uint32_t magic;
  std::uint32_t piece_count;
  std::uint32_t total_bytes;  // whole message, header included
  std::uint32_t header_crc;   // crc32 over the 12 bytes above
};
static_assert(sizeof(StreamHeader) == 16);

struct PieceFrameHeader {
  std::uint32_t magic;
  std::uint32_t order;
  std::int32_t x0, y0, x1, y1;
  std::uint32_t payload_bytes;
  std::uint8_t encoding;  // PieceEncoding
  std::uint8_t pad[3];    // must be zero
  std::uint32_t header_crc;  // crc32 over the 32 bytes above
};
static_assert(sizeof(PieceFrameHeader) == 36);

void write_with_crc(std::vector<std::uint8_t>& buf, std::size_t pos,
                    const void* header, std::size_t size) {
  std::memcpy(buf.data() + pos, header, size);
  std::uint32_t crc = util::crc32(
      std::span<const std::uint8_t>(buf.data() + pos, size - sizeof(crc)));
  std::memcpy(buf.data() + pos + size - sizeof(crc), &crc, sizeof(crc));
}

// The one sub-rect copy: the pixels of `rect` from `src` (row-major over
// `src_rect`) to `dst` (row-major over `dst_rect`); `rect` must lie inside
// both.
void copy_rect(const img::Rgba* src, ScreenRect src_rect, img::Rgba* dst,
               ScreenRect dst_rect, ScreenRect rect) {
  if (rect.empty()) return;
  auto at = [](ScreenRect r, int x, int y) {
    return std::size_t(y - r.y0) * std::size_t(r.width()) +
           std::size_t(x - r.x0);
  };
  for (int y = rect.y0; y < rect.y1; ++y) {
    std::memcpy(dst + at(dst_rect, rect.x0, y), src + at(src_rect, rect.x0, y),
                std::size_t(rect.width()) * sizeof(img::Rgba));
  }
}

Piece sub_piece(std::uint32_t order, const img::Rgba* src, ScreenRect src_rect,
                ScreenRect rect) {
  Piece p;
  p.order = order;
  p.rect = rect;
  p.pixels.resize(std::size_t(rect.width()) * std::size_t(rect.height()));
  copy_rect(src, src_rect, p.pixels.data(), rect, rect);
  return p;
}

}  // namespace

void record_stats(const CompositeStats& s) {
  static auto& messages = metrics::counter("compositing.messages");
  static auto& bytes_sent = metrics::counter("compositing.bytes_sent");
  static auto& pixels_sent = metrics::counter("compositing.pixels_sent");
  messages.add(s.messages);
  bytes_sent.add(s.bytes_sent);
  pixels_sent.add(s.pixels_sent);
}

ScreenRect intersect(ScreenRect a, ScreenRect b) {
  return {std::max(a.x0, b.x0), std::max(a.y0, b.y0), std::min(a.x1, b.x1),
          std::min(a.y1, b.y1)};
}

Piece extract_piece(const PartialImage& partial, ScreenRect rect) {
  return sub_piece(partial.order, partial.pixels.pixels().data(),
                   partial.rect, rect);
}

Piece clip_piece(const Piece& p, ScreenRect rect) {
  return sub_piece(p.order, p.pixels.data(), p.rect, rect);
}

ScreenRect active_bbox(const Piece& piece) {
  int x0 = piece.rect.x1, y0 = piece.rect.y1;
  int x1 = piece.rect.x0, y1 = piece.rect.y0;
  bool any = false;
  const int w = piece.rect.width();
  for (int y = piece.rect.y0; y < piece.rect.y1; ++y) {
    for (int x = piece.rect.x0; x < piece.rect.x1; ++x) {
      const img::Rgba& px =
          piece.pixels[std::size_t(y - piece.rect.y0) * std::size_t(w) +
                       std::size_t(x - piece.rect.x0)];
      if (px.transparent()) continue;
      any = true;
      x0 = std::min(x0, x);
      y0 = std::min(y0, y);
      x1 = std::max(x1, x + 1);
      y1 = std::max(y1, y + 1);
    }
  }
  if (!any) return {0, 0, 0, 0};
  return {x0, y0, x1, y1};
}

PieceStreamWriter::PieceStreamWriter(bool compress) : compress_(compress) {
  buf_.resize(sizeof(StreamHeader));  // placeholder, filled by finish()
}

void PieceStreamWriter::add(const Piece& piece) {
  pixels_ += piece.pixels.size();
  count_ += 1;

  PieceFrameHeader h{};
  h.magic = kPieceMagic;
  h.order = piece.order;
  ScreenRect rect = piece.rect;
  if (compress_) {
    rect = active_bbox(piece);
    h.encoding = std::uint8_t(PieceEncoding::kActiveRle);
  } else {
    h.encoding = std::uint8_t(PieceEncoding::kRaw);
  }
  h.x0 = rect.x0;
  h.y0 = rect.y0;
  h.x1 = rect.x1;
  h.y1 = rect.y1;

  std::size_t header_pos = buf_.size();
  buf_.resize(buf_.size() + sizeof(h));
  std::size_t payload_pos = buf_.size();
  if (compress_) {
    if (!rect.empty()) img::rle_encode(clip_piece(piece, rect).pixels, buf_);
  } else {
    std::size_t bytes = piece.pixels.size() * sizeof(img::Rgba);
    buf_.resize(buf_.size() + bytes);
    std::memcpy(buf_.data() + payload_pos, piece.pixels.data(), bytes);
  }
  if (buf_.size() - payload_pos > UINT32_MAX)
    throw std::runtime_error("piece stream: payload too large");
  h.payload_bytes = std::uint32_t(buf_.size() - payload_pos);
  write_with_crc(buf_, header_pos, &h, sizeof(h));
}

std::vector<std::uint8_t> PieceStreamWriter::finish() {
  StreamHeader sh{};
  sh.magic = kStreamMagic;
  sh.piece_count = count_;
  if (buf_.size() > UINT32_MAX)
    throw std::runtime_error("piece stream: message too large");
  sh.total_bytes = std::uint32_t(buf_.size());
  write_with_crc(buf_, 0, &sh, sizeof(sh));
  return std::move(buf_);
}

std::optional<std::vector<Piece>> decode_piece_stream(
    std::span<const std::uint8_t> buf, int max_width, int max_height) {
  StreamHeader sh;
  if (buf.size() < sizeof(sh)) return std::nullopt;
  std::memcpy(&sh, buf.data(), sizeof(sh));
  if (sh.magic != kStreamMagic) return std::nullopt;
  if (sh.header_crc != util::crc32(buf.first(sizeof(sh) - 4)))
    return std::nullopt;
  if (sh.total_bytes != buf.size()) return std::nullopt;
  if (std::uint64_t(sh.piece_count) * sizeof(PieceFrameHeader) >
      buf.size() - sizeof(sh))
    return std::nullopt;

  std::vector<Piece> out;
  out.reserve(sh.piece_count);
  std::size_t pos = sizeof(sh);
  for (std::uint32_t i = 0; i < sh.piece_count; ++i) {
    PieceFrameHeader h;
    if (buf.size() - pos < sizeof(h)) return std::nullopt;
    std::memcpy(&h, buf.data() + pos, sizeof(h));
    if (h.magic != kPieceMagic) return std::nullopt;
    if (h.header_crc != util::crc32(buf.subspan(pos, sizeof(h) - 4)))
      return std::nullopt;
    if (h.pad[0] || h.pad[1] || h.pad[2]) return std::nullopt;
    if (h.encoding > std::uint8_t(PieceEncoding::kActiveRle))
      return std::nullopt;
    if (h.x0 < 0 || h.y0 < 0 || h.x1 < h.x0 || h.y1 < h.y0 ||
        h.x1 > max_width || h.y1 > max_height)
      return std::nullopt;
    pos += sizeof(h);
    if (h.payload_bytes > buf.size() - pos) return std::nullopt;

    Piece p;
    p.order = h.order;
    p.rect = {h.x0, h.y0, h.x1, h.y1};
    std::uint64_t count =
        std::uint64_t(p.rect.width()) * std::uint64_t(p.rect.height());
    p.pixels.resize(count);
    if (h.encoding == std::uint8_t(PieceEncoding::kRaw)) {
      if (count * sizeof(img::Rgba) != h.payload_bytes) return std::nullopt;
      std::memcpy(p.pixels.data(), buf.data() + pos, h.payload_bytes);
    } else {
      auto used = img::rle_decode(buf.first(pos + h.payload_bytes), pos,
                                  p.pixels);
      if (!used || *used != h.payload_bytes) return std::nullopt;
    }
    pos += h.payload_bytes;
    out.push_back(std::move(p));
  }
  if (pos != buf.size()) return std::nullopt;
  return out;
}

std::size_t send_pieces(vmpi::Comm& comm, int dest, int tag,
                        PieceStreamWriter& writer, CompositeStats& stats) {
  const std::vector<std::uint8_t> msg = writer.finish();
  stats.messages += 1;
  stats.bytes_sent += msg.size();
  stats.pixels_sent += writer.pixels_added();
  comm.send(dest, tag, msg);
  return msg.size();
}

void recv_pieces(vmpi::Comm& comm, int source, int tag, int width,
                 int height, std::vector<Piece>& out) {
  std::vector<std::uint8_t> msg;
  comm.recv(source, tag, msg);
  auto got = decode_piece_stream(msg, width, height);
  if (!got)
    throw std::runtime_error("compositing: corrupt piece message from rank " +
                             std::to_string(source));
  out.insert(out.end(), std::make_move_iterator(got->begin()),
             std::make_move_iterator(got->end()));
}

img::Image gather_tiles(vmpi::Comm& comm, int root, int tag,
                        const std::vector<bool>& senders,
                        std::span<const Piece> tiles, int width, int height,
                        bool compress, CompositeStats& stats) {
  if (comm.rank() != root) {
    if (senders[std::size_t(comm.rank())]) {
      PieceStreamWriter writer(compress);
      for (const Piece& t : tiles)
        if (!t.rect.empty()) writer.add(t);
      send_pieces(comm, root, tag, writer, stats);
    }
    return {};
  }
  img::Image image(width, height);
  const ScreenRect frame{0, 0, width, height};
  auto paste = [&](const Piece& p) {
    copy_rect(p.pixels.data(), p.rect, image.pixels().data(), frame, p.rect);
  };
  for (const Piece& t : tiles) paste(t);
  std::vector<Piece> got;
  for (int r = 0; r < comm.size(); ++r) {
    if (r == root || !senders[std::size_t(r)]) continue;
    got.clear();
    recv_pieces(comm, r, tag, width, height, got);
    for (const Piece& p : got) paste(p);
  }
  return image;
}

void composite_pieces(std::vector<Piece>& pieces, img::Image& out, int ox,
                      int oy) {
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) { return a.order < b.order; });
  for (const Piece& p : pieces) {
    for (int y = p.rect.y0; y < p.rect.y1; ++y) {
      for (int x = p.rect.x0; x < p.rect.x1; ++x) {
        const img::Rgba& src =
            p.pixels[std::size_t(y - p.rect.y0) * std::size_t(p.rect.width()) +
                     std::size_t(x - p.rect.x0)];
        if (src.transparent()) continue;
        out.at(x - ox, y - oy).blend_under(src);
      }
    }
  }
}

}  // namespace qv::compositing
