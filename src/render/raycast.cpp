#include "render/raycast.hpp"

#include <algorithm>
#include <cmath>

#include "metrics/metrics.hpp"
#include "render/order.hpp"
#include "trace/trace.hpp"

namespace qv::render {

Raycaster::Raycaster(const TransferFunction& tf, RenderOptions options,
                     float domain_extent_x)
    : tf_(&tf), opt_(options) {
  ref_length_ =
      opt_.ref_length > 0.0f ? opt_.ref_length : domain_extent_x / 256.0f;
}

std::vector<std::uint8_t> Raycaster::classify_empty_macros(
    const RenderBlock& block) const {
  auto macros = block.macrocells();
  std::vector<std::uint8_t> empty(macros.size(), 0);
  const float inv_range =
      1.0f / std::max(opt_.value_hi - opt_.value_lo, 1e-20f);
  for (std::size_t i = 0; i < macros.size(); ++i) {
    // The normalization below is the monotone map the sampling loop applies
    // to every value, so [vmin, vmax] covers every normalized sample the
    // macro can produce.
    float nlo = std::clamp((macros[i].vmin - opt_.value_lo) * inv_range,
                           0.0f, 1.0f);
    float nhi = std::clamp((macros[i].vmax - opt_.value_lo) * inv_range,
                           0.0f, 1.0f);
    empty[i] = tf_->opacity_zero_in(nlo, nhi) ? 1 : 0;
  }
  return empty;
}

void Raycaster::render_region(const Camera& camera, const RenderBlock& block,
                              const ScreenRect& tile, PartialImage& out,
                              const std::uint8_t* empty_macros,
                              RenderStats* stats) const {
  const float ds = block.finest_cell_edge() * opt_.step_scale;
  const float inv_range =
      1.0f / std::max(opt_.value_hi - opt_.value_lo, 1e-20f);
  const float grad_h = block.finest_cell_edge() * 0.5f;
  auto macros = block.macrocells();

  // Per-call accumulators; folded into RenderStats and the registry once at
  // the end so the inner loop touches only registers.
  std::uint64_t n_rays = 0, n_samples = 0, n_shaded = 0, n_early = 0;
  std::uint64_t n_skipped = 0, n_macro_skips = 0;

  for (int py = tile.y0; py < tile.y1; ++py) {
    for (int px = tile.x0; px < tile.x1; ++px) {
      Ray ray = camera.pixel_ray(px, py);
      float t_in, t_out;
      if (!block.bounds().intersect(ray.origin, ray.inv_dir, t_in, t_out))
        continue;
      t_in = std::max(t_in, 0.0f);
      if (t_in >= t_out) continue;
      ++n_rays;

      img::Rgba acc{};
      // Global step phase so block boundaries do not introduce seams:
      // sample positions are multiples of ds along the ray from the eye.
      float t = (std::floor(t_in / ds) + 0.5f) * ds;
      if (t < t_in) t += ds;
      std::size_t cell_hint = std::size_t(-1);
      for (; t < t_out && acc.a < opt_.early_exit_alpha; t += ds) {
        Vec3 p = ray.origin + ray.dir * t;
        if (empty_macros) {
          // Grid lookup, no octree descent: macro_at only answers for
          // points STRICTLY inside a macro's octant box, where the
          // containing cell is guaranteed to belong to that macro. Every
          // sample in an empty macro maps to zero opacity, so it would
          // fall through the `opacity <= 0` branch below — skip to the
          // macro's exit without locating or interpolating. The
          // fast-forward replays the same `t += ds` additions the
          // unskipped loop performs, so downstream sample positions stay
          // bit-identical, and it stops one full step short of the
          // computed exit so float error in the slab test can never jump
          // a sample that lies outside the macro.
          std::uint32_t m = block.macro_at(p);
          if (m != RenderBlock::kNoMacro && empty_macros[m]) {
            ++n_macro_skips;
            ++n_skipped;  // the tested-but-not-interpolated sample itself
            float m_in, m_out;
            if (macros[m].bounds.intersect(ray.origin, ray.inv_dir, m_in,
                                           m_out)) {
              float stop = m_out - ds;
              while (t + ds < stop) {
                t += ds;
                ++n_skipped;
              }
            }
            continue;
          }
        }
        mesh::HexMesh::CellSample cs;
        if (!block.locate(p, cs, &cell_hint)) continue;
        float v = block.interpolate(cs);
        ++n_samples;
        float nv = std::clamp((v - opt_.value_lo) * inv_range, 0.0f, 1.0f);
        TfSample tf = tf_->sample(nv);
        if (tf.opacity <= 0.0f) continue;
        ++n_shaded;
        float alpha = 1.0f - std::pow(1.0f - tf.opacity, ds / ref_length_);
        Vec3 color = tf.color;
        if (opt_.lighting) {
          Vec3 g;
          if (block.sample_gradient(p, grad_h, g, cs.cell) &&
              g.norm2() > 1e-12f) {
            Vec3 n = g.normalized();
            // Headlight: light direction is the reversed ray direction.
            float lambert = std::fabs(n.dot(ray.dir));
            color = color * (opt_.ambient + opt_.diffuse * lambert);
          } else {
            color = color * (opt_.ambient + opt_.diffuse);
          }
        }
        img::Rgba contrib{color.x * alpha, color.y * alpha, color.z * alpha,
                          alpha};
        acc.blend_under(contrib);
      }
      if (acc.a >= opt_.early_exit_alpha) ++n_early;
      if (acc.a > 0.0f) out.at_screen(px, py) = acc;
    }
  }
  if (stats) {
    stats->rays += n_rays;
    stats->samples += n_samples;
    stats->shaded_samples += n_shaded;
    stats->skipped_samples += n_skipped;
    stats->macro_skips += n_macro_skips;
  }
  static auto& rays_ctr = metrics::counter("render.rays");
  static auto& samples_ctr = metrics::counter("render.samples");
  static auto& shaded_ctr = metrics::counter("render.shaded_samples");
  static auto& early_ctr = metrics::counter("render.early_terminations");
  static auto& skipped_ctr = metrics::counter("render.skipped_samples");
  static auto& mskip_ctr = metrics::counter("render.macro_skips");
  rays_ctr.add(n_rays);
  samples_ctr.add(n_samples);
  shaded_ctr.add(n_shaded);
  early_ctr.add(n_early);
  skipped_ctr.add(n_skipped);
  mskip_ctr.add(n_macro_skips);
}

PartialImage Raycaster::render_block(const Camera& camera,
                                     const RenderBlock& block,
                                     std::uint32_t order,
                                     RenderStats* stats) const {
  trace::Span tsp("render", "render_block", order);
  PartialImage out;
  out.order = order;
  out.rect = camera.footprint(block.bounds());
  if (out.rect.empty()) {
    out.pixels = img::Image(0, 0);
    return out;
  }
  out.pixels = img::Image(out.rect.width(), out.rect.height());
  std::vector<std::uint8_t> empty;
  if (opt_.empty_skipping) empty = classify_empty_macros(block);
  render_region(camera, block, out.rect, out,
                empty.empty() ? nullptr : empty.data(), stats);
  return out;
}

std::vector<PartialImage> render_blocks(
    const Camera& camera, const Raycaster& rc,
    std::span<const RenderBlock> blocks,
    std::span<const std::uint32_t> orders, util::ThreadPool* pool,
    int tile_size, RenderStats* stats, double* per_block_seconds) {
  auto out = render_blocks_cancellable(camera, rc, blocks, orders, pool,
                                       /*cancel=*/nullptr, tile_size, stats,
                                       per_block_seconds);
  // Without a token a render can never be cancelled.
  return std::move(*out);
}

std::optional<std::vector<PartialImage>> render_blocks_cancellable(
    const Camera& camera, const Raycaster& rc,
    std::span<const RenderBlock> blocks,
    std::span<const std::uint32_t> orders, util::ThreadPool* pool,
    const util::CancelToken* cancel, int tile_size, RenderStats* stats,
    double* per_block_seconds) {
  if (tile_size < 1) tile_size = 1;
  std::vector<PartialImage> out(blocks.size());
  std::vector<std::vector<std::uint8_t>> empty(blocks.size());

  struct Task {
    std::uint32_t block;
    ScreenRect tile;
  };
  std::vector<Task> tasks;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    out[b].order = orders[b];
    out[b].rect = camera.footprint(blocks[b].bounds());
    if (out[b].rect.empty()) {
      out[b].pixels = img::Image(0, 0);
      continue;
    }
    out[b].pixels = img::Image(out[b].rect.width(), out[b].rect.height());
    if (rc.options().empty_skipping)
      empty[b] = rc.classify_empty_macros(blocks[b]);
    const ScreenRect& r = out[b].rect;
    for (int y = r.y0; y < r.y1; y += tile_size) {
      for (int x = r.x0; x < r.x1; x += tile_size) {
        ScreenRect tile{x, y, std::min(x + tile_size, r.x1),
                        std::min(y + tile_size, r.y1)};
        tasks.push_back({std::uint32_t(b), tile});
      }
    }
  }

  // Tiles of one block are disjoint pixel ranges of its PartialImage and
  // tasks share no other mutable state, so execution order (and therefore
  // thread count and stealing schedule) cannot change the output. Stats and
  // timings accumulate per worker and merge at join: integer and
  // per-block-slot sums, order-independent.
  const std::size_t workers = std::size_t(pool ? pool->thread_count() : 1);
  std::vector<RenderStats> wstats(workers);
  std::vector<std::vector<double>> wsecs;
  if (per_block_seconds)
    wsecs.assign(workers, std::vector<double>(blocks.size(), 0.0));

  auto run_task = [&](std::size_t ti, int w) {
    // Per-tile cancellation poll: the pool also skips queued tasks once the
    // token fires, but this check covers the serial path and a task popped
    // in the race window.
    if (cancel && cancel->requested()) return;
    const Task& tk = tasks[ti];
    trace::Span tsp("render", "render_tile", orders[tk.block],
                    per_block_seconds != nullptr);
    rc.render_region(camera, blocks[tk.block], tk.tile, out[tk.block],
                     empty[tk.block].empty() ? nullptr
                                             : empty[tk.block].data(),
                     &wstats[std::size_t(w)]);
    if (per_block_seconds) wsecs[std::size_t(w)][tk.block] += tsp.stop();
  };

  if (pool && pool->thread_count() > 1) {
    pool->parallel_for(tasks.size(), run_task, cancel);
  } else {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (cancel && cancel->requested()) break;
      run_task(i, 0);
    }
  }

  if (cancel && cancel->requested()) {
    // The frame is trash: discard the partials AND the per-worker stats /
    // timings so nothing from the aborted render can reach RenderStats or
    // the rebalancer's cost signal.
    static auto& cancelled_ctr = metrics::counter("render.cancelled");
    static auto& cancelled_tiles_ctr =
        metrics::counter("render.cancelled_tiles");
    cancelled_ctr.add();
    cancelled_tiles_ctr.add(tasks.size());
    trace::instant("render", "render_cancelled",
                   blocks.empty() ? 0 : orders[0]);
    return std::nullopt;
  }

  if (stats) {
    for (const RenderStats& s : wstats) {
      stats->rays += s.rays;
      stats->samples += s.samples;
      stats->shaded_samples += s.shaded_samples;
      stats->skipped_samples += s.skipped_samples;
      stats->macro_skips += s.macro_skips;
    }
  }
  if (per_block_seconds) {
    for (const auto& ws : wsecs)
      for (std::size_t b = 0; b < ws.size(); ++b)
        per_block_seconds[b] += ws[b];
  }
  return out;
}

img::Image render_frame(const Camera& camera, const TransferFunction& tf,
                        RenderOptions options,
                        std::span<const RenderBlock> blocks,
                        std::span<const octree::Block> block_descs,
                        const Box3& domain, RenderStats* stats,
                        util::ThreadPool* pool, int tile_size) {
  Raycaster rc(tf, options, domain.extent().x);
  auto order = visibility_order(block_descs, domain, camera.eye());
  // Map block index -> order rank.
  std::vector<std::uint32_t> rank(block_descs.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    rank[order[i]] = std::uint32_t(i);

  std::vector<PartialImage> partials =
      render_blocks(camera, rc, blocks, rank, pool, tile_size, stats);
  std::vector<const PartialImage*> ptrs;
  ptrs.reserve(partials.size());
  for (const auto& p : partials) ptrs.push_back(&p);
  return compose_reference(std::move(ptrs), camera.width(), camera.height());
}

}  // namespace qv::render
