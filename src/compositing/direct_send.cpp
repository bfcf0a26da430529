#include "compositing/direct_send.hpp"

#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace qv::compositing {

namespace {
constexpr int kTagPieces = 910;
constexpr int kTagStrip = 911;
}  // namespace

ScreenRect strip_rows(int rank, int size, int width, int height) {
  int y0 = int(std::int64_t(height) * rank / size);
  int y1 = int(std::int64_t(height) * (rank + 1) / size);
  return {0, y0, width, y1};
}

CompositeResult direct_send(vmpi::Comm& comm,
                            std::span<const PartialImage> partials, int width,
                            int height, bool compress, int root) {
  const int P = comm.size();
  const int me = comm.rank();
  CompositeResult result;

  // Build one message per strip owner containing all overlapping pieces.
  std::vector<std::vector<std::uint8_t>> outbox(static_cast<std::size_t>(P));
  {
  trace::Span extract_span("compositing", "ds_extract");
  for (const PartialImage& part : partials) {
    if (part.rect.empty()) continue;
    for (int owner = 0; owner < P; ++owner) {
      ScreenRect strip = strip_rows(owner, P, width, height);
      ScreenRect overlap{std::max(part.rect.x0, strip.x0),
                         std::max(part.rect.y0, strip.y0),
                         std::min(part.rect.x1, strip.x1),
                         std::min(part.rect.y1, strip.y1)};
      if (overlap.empty()) continue;
      Piece piece = extract_piece(part, overlap);
      result.stats.pixels_sent += piece.pixels.size();
      pack_piece(piece, compress, outbox[std::size_t(owner)]);
    }
  }
  for (int r = 0; r < P; ++r) {
    if (r != me) {
      result.stats.messages += 1;
      result.stats.bytes_sent += outbox[std::size_t(r)].size();
    }
    comm.send(r, kTagPieces, outbox[std::size_t(r)]);
  }
  }  // ds_extract

  // Composite my strip.
  WallTimer timer;
  ScreenRect my_strip = strip_rows(me, P, width, height);
  img::Image strip_img(my_strip.width(), my_strip.height());
  std::vector<Piece> pieces;
  {
    trace::Span exchange_span("compositing", "ds_exchange");
    for (int r = 0; r < P; ++r) {
      std::vector<std::uint8_t> msg;
      comm.recv(r, kTagPieces, msg);
      auto got = unpack_pieces(msg, width, height);
      for (auto& p : got) pieces.push_back(std::move(p));
    }
  }
  {
    trace::Span composite_span("compositing", "ds_composite");
    composite_pieces(pieces, strip_img, my_strip.x0, my_strip.y0);
  }
  result.stats.composite_seconds = timer.seconds();

  // Deliver strips to the root (compressed when requested — image delivery
  // is part of the compositing traffic the paper compresses).
  trace::Span deliver_span("compositing", "ds_deliver");
  if (me == root) {
    result.image = img::Image(width, height);
    auto paste = [&](const Piece& piece) {
      for (int y = piece.rect.y0; y < piece.rect.y1; ++y) {
        for (int x = piece.rect.x0; x < piece.rect.x1; ++x) {
          result.image.at(x, y) =
              piece.pixels[std::size_t(y - piece.rect.y0) *
                               std::size_t(piece.rect.width()) +
                           std::size_t(x - piece.rect.x0)];
        }
      }
    };
    if (!my_strip.empty()) {
      Piece mine_piece;
      mine_piece.rect = my_strip;
      mine_piece.pixels.assign(strip_img.pixels().begin(),
                               strip_img.pixels().end());
      paste(mine_piece);
    }
    for (int r = 0; r < P; ++r) {
      if (r == root) continue;
      std::vector<std::uint8_t> msg;
      comm.recv(r, kTagStrip, msg);
      for (const Piece& piece : unpack_pieces(msg, width, height)) paste(piece);
    }
  } else {
    std::vector<std::uint8_t> msg;
    if (!my_strip.empty()) {
      Piece piece;
      piece.order = 0;
      piece.rect = my_strip;
      piece.pixels.assign(strip_img.pixels().begin(), strip_img.pixels().end());
      result.stats.pixels_sent += piece.pixels.size();
      pack_piece(piece, compress, msg);
    }
    result.stats.messages += 1;
    result.stats.bytes_sent += msg.size();
    comm.send(root, kTagStrip, msg);
  }
  record_stats(result.stats);
  return result;
}

}  // namespace qv::compositing
