// §4.4 / §7 compositing study on the real algorithms over vmpi:
//   * SLIC vs direct-send vs binary-swap vs radix-k message counts, bytes
//     and time at 512x512 and 1024x1024 (the paper: SLIC wins, >= 1024^2);
//   * schedule precompute cost (paper: under 10 ms);
//   * per-rank-count radix-k sweep (power-of-two and not) with active-pixel
//     compression on/off — the traffic cut the paper's conclusion reports
//     (~50% lower compositing time with compression).
//
// With --json=PATH the bench emits a qv-run-report for the regression gate:
// SLIC / direct-send / radix-k at 512x512 on 8 ranks, min-of-3 on time,
// deterministic bytes/messages.
#include <cstdio>
#include <mutex>

#include "compositing/direct_send.hpp"
#include "compositing/radix_k.hpp"
#include "compositing/slic.hpp"
#include "metrics/report.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace qv;
using namespace qv::compositing;

// Sort-last partials as a renderer would produce them: each rank owns a
// contiguous screen slab (its subtree's footprint) plus padding overlap,
// mostly transparent outside the wavefront.
std::vector<std::vector<PartialImage>> make_partials(int ranks, int w, int h) {
  Rng rng(2026);
  std::vector<std::vector<PartialImage>> dist(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    PartialImage p;
    int x0 = std::max(0, w * r / ranks - w / 16);
    int x1 = std::min(w, w * (r + 1) / ranks + w / 16);
    p.rect = {x0, 0, x1, h};
    p.order = std::uint32_t(r);
    p.pixels = img::Image(p.rect.width(), h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < p.rect.width(); ++x) {
        // A diagonal "wavefront" band is opaque; the rest transparent.
        int gx = x0 + x;
        bool band = (gx + y) % (w / 2) < w / 8;
        if (!band) continue;
        float a = 0.2f + 0.7f * rng.next_float();
        p.pixels.at(x, y) = {a * rng.next_float(), a * rng.next_float(),
                             a * rng.next_float(), a};
      }
    }
    dist[std::size_t(r)].push_back(std::move(p));
  }
  return dist;
}

struct Row {
  double seconds = 0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  double schedule_ms = 0;
};

template <typename Fn>
Row run(int ranks, const std::vector<std::vector<PartialImage>>& dist, Fn fn) {
  Row row;
  std::mutex mu;
  WallTimer timer;
  vmpi::Runtime::run(ranks, [&](vmpi::Comm& comm) {
    auto result = fn(comm, dist[std::size_t(comm.rank())]);
    std::lock_guard lk(mu);
    row.bytes += result.stats.bytes_sent;
    row.messages += result.stats.messages;
    row.schedule_ms =
        std::max(row.schedule_ms, result.stats.schedule_seconds * 1e3);
  });
  row.seconds = timer.seconds();
  return row;
}

void print_row(const char* name, const Row& row, bool schedule) {
  std::printf("%-28s %-10.3f %-12.2f %-10llu ", name, row.seconds,
              double(row.bytes) / 1e6,
              static_cast<unsigned long long>(row.messages));
  if (schedule)
    std::printf("%-14.3f\n", row.schedule_ms);
  else
    std::printf("%-14s\n", "-");
}

void bench_size(int ranks, int w, int h) {
  auto dist = make_partials(ranks, w, h);
  std::printf("\n-- %dx%d, %d compositing ranks --\n", w, h, ranks);
  std::printf("%-28s %-10s %-12s %-10s %-14s\n", "algorithm", "time (s)",
              "MB moved", "messages", "schedule (ms)");

  for (bool compress : {false, true}) {
    auto slic_row = run(ranks, dist, [&](vmpi::Comm& c, auto partials) {
      return slic(c, partials, w, h, compress, 0);
    });
    print_row(compress ? "SLIC + compression" : "SLIC", slic_row, true);

    auto ds_row = run(ranks, dist, [&](vmpi::Comm& c, auto partials) {
      return direct_send(c, partials, w, h, compress, 0);
    });
    print_row(compress ? "direct-send + compression" : "direct-send", ds_row,
              false);

    auto rk_row = run(ranks, dist, [&](vmpi::Comm& c, auto partials) {
      return radix_k(c, partials, w, h, /*k=*/4, compress, 0);
    });
    print_row(compress ? "radix-k(4) + compression" : "radix-k(4)", rk_row,
              false);

    if ((ranks & (ranks - 1)) == 0) {
      auto bs_row = run(ranks, dist, [&](vmpi::Comm& c, auto partials) {
        return radix_k(c, partials, w, h, /*k=*/2, compress, 0);
      });
      print_row(compress ? "binary-swap + compression" : "binary-swap",
                bs_row, false);
    }
  }
}

// Per-rank-count columns: direct-send vs radix-k(4), active-pixel
// compression off/on, over power-of-two and awkward counts.
void bench_rank_sweep(int w, int h) {
  std::printf("\n-- rank sweep at %dx%d: bytes moved (MB) --\n", w, h);
  std::printf("%-8s %-14s %-14s %-14s %-14s\n", "ranks", "direct", "direct+c",
              "radix-k4", "radix-k4+c");
  for (int ranks : {4, 7, 8, 13}) {
    auto dist = make_partials(ranks, w, h);
    double mb[4];
    int col = 0;
    for (bool radix : {false, true}) {
      for (bool compress : {false, true}) {
        Row row = run(ranks, dist, [&](vmpi::Comm& c, auto partials) {
          return radix ? radix_k(c, partials, w, h, 4, compress, 0)
                       : direct_send(c, partials, w, h, compress, 0);
        });
        mb[col++] = double(row.bytes) / 1e6;
      }
    }
    std::printf("%-8d %-14.2f %-14.2f %-14.2f %-14.2f\n", ranks, mb[0], mb[1],
                mb[2], mb[3]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  metrics::BenchReporter rep("bench_compositing", argc, argv);
  std::printf("Parallel image compositing study (§4.4, conclusions)\n");
  std::printf("(paper: SLIC outperforms, esp. >=1024^2; schedule <10 ms;\n");
  std::printf(" compression halves compositing traffic)\n");
  bench_size(8, 512, 512);
  bench_size(8, 1024, 1024);
  bench_rank_sweep(512, 512);

  if (rep.json_requested()) {
    const int ranks = 8, w = 512, h = 512;
    auto dist = make_partials(ranks, w, h);
    auto best_of3 = [&](auto fn) {
      Row best;
      best.seconds = 1e9;
      for (int r = 0; r < 3; ++r) {
        Row row = run(ranks, dist, fn);
        if (row.seconds < best.seconds) best = row;
      }
      return best;
    };
    Row best = best_of3([&](vmpi::Comm& c, auto partials) {
      return slic(c, partials, w, h, /*compress=*/false, 0);
    });
    rep.track("slic_512_s", best.seconds, "s");
    rep.track("slic_512_bytes", double(best.bytes), "bytes");
    rep.track("slic_512_messages", double(best.messages), "count");

    Row ds = best_of3([&](vmpi::Comm& c, auto partials) {
      return direct_send(c, partials, w, h, /*compress=*/false, 0);
    });
    rep.track("ds_512_bytes", double(ds.bytes), "bytes");

    Row rk = best_of3([&](vmpi::Comm& c, auto partials) {
      return radix_k(c, partials, w, h, /*k=*/4, /*compress=*/false, 0);
    });
    rep.track("radix_512_s", rk.seconds, "s");
    rep.track("radix_512_bytes", double(rk.bytes), "bytes");

    Row rkc = best_of3([&](vmpi::Comm& c, auto partials) {
      return radix_k(c, partials, w, h, /*k=*/4, /*compress=*/true, 0);
    });
    rep.track("radix_compress_512_bytes", double(rkc.bytes), "bytes");
  }
  return rep.finish();
}
