#include "compositing/direct_send.hpp"

#include "trace/trace.hpp"

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

  // One message per other strip owner containing all overlapping pieces;
  // pieces of my own strip stay local.
  std::vector<Piece> pieces;
  {
  trace::Span extract_span("compositing", "ds_extract");
  std::vector<PieceStreamWriter> outbox(static_cast<std::size_t>(P),
                                        PieceStreamWriter(compress));
  for (const PartialImage& part : partials) {
    if (part.rect.empty()) continue;
    for (int owner = 0; owner < P; ++owner) {
      ScreenRect overlap =
          intersect(part.rect, strip_rows(owner, P, width, height));
      if (overlap.empty()) continue;
      Piece piece = extract_piece(part, overlap);
      if (owner == me) {
        pieces.push_back(std::move(piece));
      } else {
        outbox[std::size_t(owner)].add(piece);
      }
    }
  }
  for (int r = 0; r < P; ++r)
    if (r != me)
      send_pieces(comm, r, kTagPieces, outbox[std::size_t(r)], result.stats);
  }  // ds_extract

  // Composite my strip.
  ScreenRect my_strip = strip_rows(me, P, width, height);
  img::Image strip_img(my_strip.width(), my_strip.height());
  {
    trace::Span exchange_span("compositing", "ds_exchange");
    for (int r = 0; r < P; ++r)
      if (r != me) recv_pieces(comm, r, kTagPieces, width, height, pieces);
  }
  {
    trace::Span composite_span("compositing", "ds_composite");
    composite_pieces(pieces, strip_img, my_strip.x0, my_strip.y0);
  }

  // Deliver strips to the root (compressed when requested — image delivery
  // is part of the compositing traffic the paper compresses).
  trace::Span deliver_span("compositing", "ds_deliver");
  const Piece tile{0, my_strip,
                   std::vector<img::Rgba>(strip_img.pixels().begin(),
                                          strip_img.pixels().end())};
  result.image = gather_tiles(comm, root, kTagStrip,
                              std::vector<bool>(std::size_t(P), true),
                              {&tile, 1}, width, height, compress,
                              result.stats);
  record_stats(result.stats);
  return result;
}

}  // namespace qv::compositing
