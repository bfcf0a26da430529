#include "compositing/slic.hpp"

#include <algorithm>
#include <cstring>

#include "trace/trace.hpp"

namespace qv::compositing {

namespace {
constexpr int kTagSpanData = 931;
constexpr int kTagFinal = 932;

struct WireFootprint {
  std::int32_t x0, y0, x1, y1;
  std::uint32_t order;
};
}  // namespace

SlicSchedule build_slic_schedule(std::span<const FootprintInfo> footprints,
                                 int num_ranks, int width, int height) {
  SlicSchedule sched;
  std::vector<std::uint64_t> load(static_cast<std::size_t>(num_ranks), 0);

  // Bucket footprints by scanline range to avoid an O(H * F) scan blowup for
  // tall images: per scanline, collect the rects covering it.
  std::vector<std::vector<std::size_t>> by_line(static_cast<std::size_t>(height));
  for (std::size_t f = 0; f < footprints.size(); ++f) {
    const ScreenRect& r = footprints[f].rect;
    for (int y = std::max(r.y0, 0); y < std::min(r.y1, height); ++y) {
      by_line[std::size_t(y)].push_back(f);
    }
  }

  for (int y = 0; y < height; ++y) {
    const auto& active = by_line[std::size_t(y)];
    if (active.empty()) continue;
    // Span breakpoints at every footprint x-edge.
    std::vector<int> cuts;
    for (std::size_t f : active) {
      cuts.push_back(std::clamp(footprints[f].rect.x0, 0, width));
      cuts.push_back(std::clamp(footprints[f].rect.x1, 0, width));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      int x0 = cuts[c], x1 = cuts[c + 1];
      if (x0 >= x1) continue;
      SlicSpan span;
      span.y = y;
      span.x0 = x0;
      span.x1 = x1;
      for (std::size_t f : active) {
        const ScreenRect& r = footprints[f].rect;
        if (r.x0 <= x0 && r.x1 >= x1) span.contributors.push_back(footprints[f].owner);
      }
      if (span.contributors.empty()) continue;
      std::sort(span.contributors.begin(), span.contributors.end());
      span.contributors.erase(
          std::unique(span.contributors.begin(), span.contributors.end()),
          span.contributors.end());
      std::uint64_t pixels = std::uint64_t(x1 - x0);
      if (span.contributors.size() == 1) {
        span.compositor = span.contributors[0];
        sched.single_owner_pixels += pixels;
      } else {
        // Least-loaded contributor composites (deterministic tie-break by
        // rank): data for (c-1) contributors moves.
        int best = span.contributors[0];
        for (int r : span.contributors) {
          if (load[std::size_t(r)] < load[std::size_t(best)]) best = r;
        }
        span.compositor = best;
        sched.exchanged_pixels += pixels * (span.contributors.size() - 1);
      }
      load[std::size_t(span.compositor)] += pixels;
      sched.spans.push_back(std::move(span));
    }
  }
  return sched;
}

CompositeResult slic(vmpi::Comm& comm, std::span<const PartialImage> partials,
                     int width, int height, bool compress, int root) {
  const int P = comm.size();
  const int me = comm.rank();
  CompositeResult result;

  // 1. Exchange footprint metadata so all ranks compute the same schedule.
  std::vector<WireFootprint> my_meta;
  for (const auto& p : partials) {
    if (p.rect.empty()) continue;
    my_meta.push_back({p.rect.x0, p.rect.y0, p.rect.x1, p.rect.y1, p.order});
  }
  auto blobs = comm.allgather(
      {reinterpret_cast<const std::uint8_t*>(my_meta.data()),
       my_meta.size() * sizeof(WireFootprint)});

  std::vector<FootprintInfo> footprints;
  for (int r = 0; r < P; ++r) {
    const auto& b = blobs[std::size_t(r)];
    std::size_t n = b.size() / sizeof(WireFootprint);
    for (std::size_t i = 0; i < n; ++i) {
      WireFootprint w;
      std::memcpy(&w, b.data() + i * sizeof(WireFootprint), sizeof(w));
      footprints.push_back({{w.x0, w.y0, w.x1, w.y1}, r});
    }
  }

  // 2. Precompute the view-dependent schedule (identical everywhere).
  SlicSchedule sched;
  {
    trace::Span tsp("compositing", "slic_schedule", -1, /*timed=*/true);
    sched = build_slic_schedule(footprints, P, width, height);
    result.stats.schedule_seconds = tsp.stop();
  }

  // 3. Exchange span pixels. The schedule names each span's contributors,
  //    so every rank derives the same send and receive sets from it: I send
  //    to compositor c exactly when I contribute to one of c's spans, and
  //    receive from exactly the contributors my own spans name.
  const auto covers = [](const PartialImage& p, ScreenRect span) {
    return !p.rect.empty() && p.rect.y0 <= span.y0 && span.y0 < p.rect.y1 &&
           p.rect.x0 <= span.x0 && span.x1 <= p.rect.x1;
  };
  std::vector<Piece> incoming;
  std::vector<const SlicSpan*> my_spans;
  std::vector<bool> composites(std::size_t(P), false);
  {
  trace::Span exchange_span("compositing", "slic_exchange");
  std::vector<PieceStreamWriter> outbox(static_cast<std::size_t>(P),
                                        PieceStreamWriter(compress));
  std::vector<bool> send_to(std::size_t(P), false);
  std::vector<bool> recv_from(std::size_t(P), false);
  for (const SlicSpan& span : sched.spans) {
    const auto c = std::size_t(span.compositor);
    composites[c] = true;
    if (span.compositor == me) {
      my_spans.push_back(&span);
      for (int r : span.contributors) recv_from[std::size_t(r)] = true;
      continue;
    }
    if (!std::binary_search(span.contributors.begin(),
                            span.contributors.end(), me))
      continue;
    send_to[c] = true;
    // My pixels covering this span, from each of my overlapping partials
    // (there may be several stacked blocks).
    const ScreenRect rect{span.x0, span.y, span.x1, span.y + 1};
    for (const auto& p : partials)
      if (covers(p, rect)) outbox[c].add(extract_piece(p, rect));
  }
  for (int r = 0; r < P; ++r)
    if (r != me && send_to[std::size_t(r)])
      send_pieces(comm, r, kTagSpanData, outbox[std::size_t(r)], result.stats);
  for (int r = 0; r < P; ++r)
    if (r != me && recv_from[std::size_t(r)])
      recv_pieces(comm, r, kTagSpanData, width, height, incoming);
  }  // slic_exchange

  // 4. Composite my scheduled spans.
  std::vector<Piece> done;
  {
  trace::Span composite_span("compositing", "slic_composite");
  // Order incoming pieces by (y, x0). A compressed piece arrives shrunk to
  // its active bbox, so it lies inside its span rather than matching it.
  std::sort(incoming.begin(), incoming.end(), [](const Piece& a, const Piece& b) {
    if (a.rect.y0 != b.rect.y0) return a.rect.y0 < b.rect.y0;
    return a.rect.x0 < b.rect.x0;
  });

  for (const SlicSpan* span : my_spans) {
    const ScreenRect rect{span->x0, span->y, span->x1, span->y + 1};
    std::vector<Piece> contributions;
    for (const auto& p : partials)
      if (covers(p, rect)) contributions.push_back(extract_piece(p, rect));
    // Remote pieces inside this span (binary search window). Each lies in
    // exactly one span, so it is moved, not copied; the search reads only
    // rects, which a move keeps.
    auto it = std::lower_bound(
        incoming.begin(), incoming.end(), rect, [](const Piece& a, ScreenRect r) {
          if (a.rect.y0 != r.y0) return a.rect.y0 < r.y0;
          return a.rect.x0 < r.x0;
        });
    for (; it != incoming.end() && it->rect.y0 == rect.y0 &&
           it->rect.x0 < rect.x1;
         ++it) {
      contributions.push_back(std::move(*it));
    }
    img::Image span_img(rect.width(), 1);
    composite_pieces(contributions, span_img, rect.x0, rect.y0);
    done.push_back({0, rect,
                    std::vector<img::Rgba>(span_img.pixels().begin(),
                                           span_img.pixels().end())});
  }
  }  // slic_composite

  // 5. Deliver composited spans to the root (the output processor's role):
  //    every rank that composites a span sends them in one message.
  trace::Span deliver_span("compositing", "slic_deliver");
  result.image = gather_tiles(comm, root, kTagFinal, composites, done, width,
                              height, compress, result.stats);
  record_stats(result.stats);
  return result;
}

}  // namespace qv::compositing
