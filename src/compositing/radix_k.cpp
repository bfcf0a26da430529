#include "compositing/radix_k.hpp"

#include <algorithm>
#include <stdexcept>

#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace qv::compositing {

namespace {
constexpr int kTagFold = 930;
constexpr int kTagRoundBase = 931;  // + round index
constexpr int kTagGather = 959;
}  // namespace

RadixPlan plan_radix_rounds(int ranks, int k) {
  if (ranks < 1) throw std::runtime_error("radix_k: ranks must be >= 1");
  if (k < 2) throw std::runtime_error("radix_k: k must be >= 2");
  auto k_smooth = [k](int n) {
    for (int f = 2; f <= k && n > 1; ++f)
      while (n % f == 0) n /= f;
    return n == 1;
  };
  RadixPlan plan;
  plan.ranks = ranks;
  plan.active = ranks;
  while (!k_smooth(plan.active)) --plan.active;
  // Greedy largest factor first: k-smoothness guarantees some f in [2, k]
  // divides every intermediate quotient.
  int rem = plan.active;
  while (rem > 1) {
    int f = std::min(k, rem);
    while (rem % f != 0) --f;
    plan.factors.push_back(f);
    rem /= f;
  }
  return plan;
}

CompositeResult radix_k(vmpi::Comm& comm,
                        std::span<const PartialImage> partials, int width,
                        int height, int k, bool compress, int root) {
  const int P = comm.size();
  const int me = comm.rank();
  const RadixPlan plan = plan_radix_rounds(P, k);
  if (root < 0 || root >= plan.active)
    throw std::runtime_error("radix_k: root must be an active rank");
  if (plan.rounds() > kTagGather - kTagRoundBase)
    throw std::runtime_error("radix_k: too many rounds");

  static auto& round_bytes_hist = metrics::histogram(
      "compositing.radixk.round_bytes", metrics::HistogramSpec::bytes());
  static auto& folded_counter = metrics::counter("compositing.radixk.folded");

  CompositeResult result;

  // My initial pieces: one per non-empty partial, clipped to the screen.
  std::vector<Piece> pieces;
  for (const PartialImage& part : partials) {
    ScreenRect r = part.rect.clipped(width, height);
    if (r.empty()) continue;
    pieces.push_back(extract_piece(part, r));
  }

  // Pre-round: remainder ranks fold everything onto an active partner
  // (me - active, always valid because active > P/2).
  if (me >= plan.active) {
    trace::Span fold_span("compositing", "radixk_fold");
    folded_counter.add(1);
    PieceStreamWriter writer(compress);
    for (const Piece& p : pieces) writer.add(p);
    send_pieces(comm, me - plan.active, kTagFold, writer, result.stats);
    record_stats(result.stats);
    return result;  // folded ranks own no region and skip the rounds
  }
  if (me + plan.active < P) {
    trace::Span fold_span("compositing", "radixk_fold");
    recv_pieces(comm, me + plan.active, kTagFold, width, height, pieces);
  }

  // k-way exchange rounds over the active ranks. Group members in round r
  // share every mixed-radix digit of their rank except digit r, so they all
  // hold the identical region; the region's rows are split into f bands and
  // each member keeps exactly one.
  ScreenRect region{0, 0, width, height};
  int stride = 1;
  for (int round = 0; round < plan.rounds(); ++round) {
    const int f = plan.factors[std::size_t(round)];
    trace::Span round_span("compositing", "radixk_round", round);
    const int tag = kTagRoundBase + round;
    const int pos = (me / stride) % f;
    const int base = me - pos * stride;  // group member j sits at base+j*stride

    std::vector<ScreenRect> bands(static_cast<std::size_t>(f));
    for (int j = 0; j < f; ++j) {
      const int h = region.height();
      bands[std::size_t(j)] = {
          region.x0, region.y0 + int(std::int64_t(h) * j / f), region.x1,
          region.y0 + int(std::int64_t(h) * (j + 1) / f)};
    }

    std::vector<PieceStreamWriter> writers(static_cast<std::size_t>(f),
                                           PieceStreamWriter(compress));

    std::vector<Piece> kept;
    for (const Piece& p : pieces) {
      for (int j = 0; j < f; ++j) {
        ScreenRect overlap = intersect(p.rect, bands[std::size_t(j)]);
        if (overlap.empty()) continue;
        Piece sub = clip_piece(p, overlap);
        if (j == pos) {
          kept.push_back(std::move(sub));
        } else {
          writers[std::size_t(j)].add(sub);
        }
      }
    }
    std::uint64_t round_sent = 0;
    for (int j = 0; j < f; ++j)
      if (j != pos)
        round_sent += send_pieces(comm, base + j * stride, tag,
                                  writers[std::size_t(j)], result.stats);
    round_bytes_hist.observe(double(round_sent));

    pieces = std::move(kept);
    for (int j = 0; j < f; ++j)
      if (j != pos)
        recv_pieces(comm, base + j * stride, tag, width, height, pieces);
    region = bands[std::size_t(pos)];
    stride *= f;
  }

  // Single deferred blend over my final region — the identical order-sorted
  // fold direct_send() runs, hence bit-exact output.
  img::Image tile(region.width(), region.height());
  {
    trace::Span composite_span("compositing", "radixk_composite");
    composite_pieces(pieces, tile, region.x0, region.y0);
  }

  // Gather the region tiles at the root.
  trace::Span gather_span("compositing", "radixk_gather");
  std::vector<bool> active(std::size_t(P), false);
  std::fill_n(active.begin(), plan.active, true);
  const Piece mine{0, region,
                   std::vector<img::Rgba>(tile.pixels().begin(),
                                          tile.pixels().end())};
  result.image = gather_tiles(comm, root, kTagGather, active, {&mine, 1},
                              width, height, compress, result.stats);
  record_stats(result.stats);
  return result;
}

}  // namespace qv::compositing
