#include "compositing/slic.hpp"

#include <algorithm>
#include <cstring>

#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace qv::compositing {

namespace {
constexpr int kTagMeta = 930;
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
  (void)kTagMeta;

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
  WallTimer sched_timer;
  SlicSchedule sched;
  {
    trace::Span tsp("compositing", "slic_schedule");
    sched = build_slic_schedule(footprints, P, width, height);
  }
  result.stats.schedule_seconds = sched_timer.seconds();

  // 3. Send my pixels of every span whose compositor is another rank;
  //    aggregate per destination.
  std::vector<Piece> incoming;
  std::vector<const SlicSpan*> my_spans;
  {
  trace::Span exchange_span("compositing", "slic_exchange");
  std::vector<std::vector<std::uint8_t>> outbox(static_cast<std::size_t>(P));
  for (const SlicSpan& span : sched.spans) {
    if (span.compositor == me) my_spans.push_back(&span);
    bool i_contribute =
        std::find(span.contributors.begin(), span.contributors.end(), me) !=
        span.contributors.end();
    if (!i_contribute || span.compositor == me) continue;
    // Extract my pixels covering this span from each of my overlapping
    // partials (there may be several stacked blocks).
    for (const auto& p : partials) {
      if (p.rect.empty()) continue;
      if (span.y < p.rect.y0 || span.y >= p.rect.y1) continue;
      if (p.rect.x0 > span.x0 || p.rect.x1 < span.x1) continue;
      Piece piece = extract_piece(p, {span.x0, span.y, span.x1, span.y + 1});
      result.stats.pixels_sent += piece.pixels.size();
      pack_piece(piece, compress, outbox[std::size_t(span.compositor)]);
    }
  }
  for (int r = 0; r < P; ++r) {
    if (r == me) continue;
    result.stats.messages += outbox[std::size_t(r)].empty() ? 0 : 1;
    result.stats.bytes_sent += outbox[std::size_t(r)].size();
    comm.send(r, kTagSpanData, outbox[std::size_t(r)]);
  }

  // 4. Receive contributions and composite my scheduled spans.
  for (int r = 0; r < P; ++r) {
    if (r == me) continue;
    std::vector<std::uint8_t> msg;
    comm.recv(r, kTagSpanData, msg);
    auto got = unpack_pieces(msg, width, height);
    for (auto& p : got) incoming.push_back(std::move(p));
  }
  }  // slic_exchange

  // Final pixels of my spans, to be shipped to the root.
  std::vector<std::uint8_t> final_msg;
  {
  trace::Span composite_span("compositing", "slic_composite");
  WallTimer comp_timer;
  // Group incoming pieces by (y, x0): they match spans exactly.
  std::sort(incoming.begin(), incoming.end(), [](const Piece& a, const Piece& b) {
    if (a.rect.y0 != b.rect.y0) return a.rect.y0 < b.rect.y0;
    if (a.rect.x0 != b.rect.x0) return a.rect.x0 < b.rect.x0;
    return a.order < b.order;
  });

  for (const SlicSpan* span : my_spans) {
    std::vector<Piece> contributions;
    // My own partials' pixels.
    for (const auto& p : partials) {
      if (p.rect.empty()) continue;
      if (span->y < p.rect.y0 || span->y >= p.rect.y1) continue;
      if (p.rect.x0 > span->x0 || p.rect.x1 < span->x1) continue;
      contributions.push_back(
          extract_piece(p, {span->x0, span->y, span->x1, span->y + 1}));
    }
    // Remote pieces matching this span (binary search window).
    Piece key;
    key.rect = {span->x0, span->y, span->x1, span->y + 1};
    auto lo = std::lower_bound(
        incoming.begin(), incoming.end(), key, [](const Piece& a, const Piece& b) {
          if (a.rect.y0 != b.rect.y0) return a.rect.y0 < b.rect.y0;
          return a.rect.x0 < b.rect.x0;
        });
    for (auto it = lo; it != incoming.end() && it->rect.y0 == span->y &&
                       it->rect.x0 == span->x0;
         ++it) {
      contributions.push_back(*it);
    }
    img::Image span_img(span->x1 - span->x0, 1);
    composite_pieces(contributions, span_img, span->x0, span->y);
    Piece done;
    done.order = 0;
    done.rect = key.rect;
    done.pixels.assign(span_img.pixels().begin(), span_img.pixels().end());
    pack_piece(done, compress, final_msg);
  }
  result.stats.composite_seconds = comp_timer.seconds();
  }  // slic_composite

  // 5. Deliver composited spans to the root (the output processor's role).
  trace::Span deliver_span("compositing", "slic_deliver");
  if (me != root) {
    result.stats.messages += final_msg.empty() ? 0 : 1;
    result.stats.bytes_sent += final_msg.size();
    comm.send(root, kTagFinal, final_msg);
    record_stats(result.stats);
    return result;
  }
  result.image = img::Image(width, height);
  auto paste = [&](std::span<const std::uint8_t> msg) {
    auto pieces = unpack_pieces(msg, width, height);
    for (const Piece& p : pieces) {
      for (int x = p.rect.x0; x < p.rect.x1; ++x) {
        result.image.at(x, p.rect.y0) = p.pixels[std::size_t(x - p.rect.x0)];
      }
    }
  };
  paste(final_msg);
  for (int r = 0; r < P; ++r) {
    if (r == root) continue;
    std::vector<std::uint8_t> msg;
    comm.recv(r, kTagFinal, msg);
    paste(msg);
  }
  record_stats(result.stats);
  return result;
}

}  // namespace qv::compositing
