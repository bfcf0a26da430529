#include "compositing/common.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace qv::compositing {
namespace {

PartialImage make_partial(ScreenRect rect, std::uint32_t order,
                          std::uint64_t seed, double transparent_fraction) {
  PartialImage p;
  p.rect = rect;
  p.order = order;
  p.pixels = img::Image(rect.width(), rect.height());
  Rng rng(seed);
  for (auto& px : p.pixels.pixels()) {
    if (rng.next_double() < transparent_fraction) continue;
    float a = 0.05f + 0.9f * rng.next_float();
    px = {rng.next_float() * a, rng.next_float() * a, rng.next_float() * a, a};
  }
  return p;
}

TEST(Piece, ExtractReadsScreenCoordinates) {
  PartialImage p = make_partial({10, 20, 30, 40}, 3, 1, 0.0);
  Piece piece = extract_piece(p, {15, 25, 20, 30});
  EXPECT_EQ(piece.order, 3u);
  EXPECT_EQ(piece.pixels.size(), 25u);
  EXPECT_FLOAT_EQ(piece.pixels[0].r, p.at_screen(15, 25).r);
  EXPECT_FLOAT_EQ(piece.pixels[24].a, p.at_screen(19, 29).a);
}

TEST(Piece, CompressionShrinksSparsePieces) {
  PartialImage p = make_partial({0, 0, 64, 64}, 0, 5, 0.95);
  Piece piece = extract_piece(p, {0, 0, 64, 64});
  PieceStreamWriter raw(/*compress=*/false), packed(/*compress=*/true);
  raw.add(piece);
  packed.add(piece);
  EXPECT_LT(packed.finish().size() * 3, raw.finish().size());
}

TEST(CompositePieces, OrderDeterminesResult) {
  // Two overlapping single-pixel pieces; the lower order wins in front.
  Piece front;
  front.order = 0;
  front.rect = {0, 0, 1, 1};
  front.pixels = {{0.8f, 0.0f, 0.0f, 0.8f}};
  Piece back;
  back.order = 5;
  back.rect = {0, 0, 1, 1};
  back.pixels = {{0.0f, 1.0f, 0.0f, 1.0f}};

  for (bool reversed : {false, true}) {
    std::vector<Piece> pieces =
        reversed ? std::vector<Piece>{back, front} : std::vector<Piece>{front, back};
    img::Image out(1, 1);
    composite_pieces(pieces, out, 0, 0);
    EXPECT_NEAR(out.at(0, 0).r, 0.8f, 1e-5f);
    EXPECT_NEAR(out.at(0, 0).g, 0.2f, 1e-5f);  // (1-0.8) * 1.0
    EXPECT_NEAR(out.at(0, 0).a, 1.0f, 1e-5f);
  }
}

TEST(CompositePieces, RespectsOffsets) {
  Piece p;
  p.order = 0;
  p.rect = {10, 10, 11, 11};
  p.pixels = {{0.5f, 0.5f, 0.5f, 1.0f}};
  std::vector<Piece> pieces{p};
  img::Image out(4, 4);
  composite_pieces(pieces, out, 8, 8);  // region origin at (8, 8)
  EXPECT_FLOAT_EQ(out.at(2, 2).r, 0.5f);
}

}  // namespace
}  // namespace qv::compositing
