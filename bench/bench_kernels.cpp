// Microbenchmarks of the kernels whose measured rates calibrate the
// machine model (google-benchmark): raycasting samples/s, quantization,
// temporal enhancement, Morton encoding, octree point location, RLE, and
// LIC.
//
// This is the one bench NOT on the qv-run-report schema: google-benchmark
// already has machine-readable output (--benchmark_format=json); use that
// rather than wrapping it in a BenchReporter.
#include <benchmark/benchmark.h>

#include "img/rle.hpp"
#include "io/block_index.hpp"
#include "io/preprocess.hpp"
#include "lic/lic.hpp"
#include "mesh/hex_mesh.hpp"
#include "octree/blocks.hpp"
#include "quake/synthetic.hpp"
#include "render/raycast.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace qv;

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};

void BM_MortonEncode(benchmark::State& state) {
  Rng rng(1);
  std::uint32_t x = 123456, y = 654321, z = 42;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::morton_encode(x, y, z));
    x += 7;
    y += 13;
    z += 29;
  }
}
BENCHMARK(BM_MortonEncode);

void BM_OctreeFindLeaf(benchmark::State& state) {
  auto tree = mesh::LinearOctree::uniform(kUnit, int(state.range(0)));
  Rng rng(2);
  for (auto _ : state) {
    Vec3 p{rng.next_float(), rng.next_float(), rng.next_float()};
    benchmark::DoNotOptimize(tree.find_leaf(p));
  }
}
BENCHMARK(BM_OctreeFindLeaf)->Arg(3)->Arg(5)->Arg(6);

void BM_Quantize(benchmark::State& state) {
  Rng rng(3);
  std::vector<float> data(std::size_t(state.range(0)));
  for (auto& v : data) v = rng.next_float();
  for (auto _ : state) {
    auto q = io::quantize(data, 0.0f, 1.0f);
    benchmark::DoNotOptimize(q.values.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(data.size() * sizeof(float)));
}
BENCHMARK(BM_Quantize)->Arg(1 << 16)->Arg(1 << 20);

void BM_TemporalEnhance(benchmark::State& state) {
  Rng rng(4);
  std::vector<float> cur(1 << 18), prev(1 << 18), next(1 << 18);
  for (std::size_t i = 0; i < cur.size(); ++i) {
    cur[i] = rng.next_float();
    prev[i] = rng.next_float();
    next[i] = rng.next_float();
  }
  for (auto _ : state) {
    auto e = io::temporal_enhance(cur, prev, next, 2.0f);
    benchmark::DoNotOptimize(e.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(cur.size()));
}
BENCHMARK(BM_TemporalEnhance);

void BM_Magnitude(benchmark::State& state) {
  Rng rng(5);
  std::vector<float> data(3 << 18);
  for (auto& v : data) v = rng.next_float();
  for (auto _ : state) {
    auto m = io::magnitude(data, 3);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(data.size() / 3));
}
BENCHMARK(BM_Magnitude);

struct RaycastFixture {
  mesh::HexMesh mesh;
  std::vector<octree::Block> blocks;
  io::BlockNodeIndex index;
  std::vector<render::RenderBlock> rblocks;
  render::TransferFunction tf = render::TransferFunction::seismic();

  explicit RaycastFixture(int level)
      : mesh(mesh::LinearOctree::uniform(kUnit, level)),
        blocks(octree::decompose(mesh.octree(), 1)),
        index(mesh, blocks),
        rblocks(render::build_render_blocks(mesh, blocks, index)) {
    octree::estimate_workloads(mesh.octree(), blocks,
                               octree::WorkloadModel::kCellCount);
    quake::SyntheticQuake q;
    auto data = q.sample_nodes(mesh, 1.5f);
    auto mag = io::magnitude(data, 3);
    for (auto& rb : rblocks) rb.gather_values(mag);
  }
};

void BM_RaycastFrame(benchmark::State& state) {
  RaycastFixture fx(4);
  render::RenderOptions opt;
  opt.value_hi = 3.0f;
  opt.lighting = state.range(1) != 0;
  int res = int(state.range(0));
  render::Camera cam = render::Camera::overview(kUnit, res, res);
  std::uint64_t samples = 0;
  for (auto _ : state) {
    render::RenderStats stats;
    auto im = render::render_frame(cam, fx.tf, opt, fx.rblocks, fx.blocks,
                                   kUnit, &stats);
    benchmark::DoNotOptimize(im.pixels().data());
    samples += stats.samples;
  }
  state.counters["samples/s"] = benchmark::Counter(
      double(samples), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RaycastFrame)
    ->Args({128, 0})
    ->Args({256, 0})
    ->Args({128, 1})
    ->Unit(benchmark::kMillisecond);

// The tiled parallel path: range(1) is the thread count (0 = the serial
// reference with empty-space skipping disabled, for the baseline row).
void BM_RaycastFrameThreaded(benchmark::State& state) {
  RaycastFixture fx(4);
  render::RenderOptions opt;
  opt.value_hi = 3.0f;
  int res = int(state.range(0));
  int threads = int(state.range(1));
  opt.empty_skipping = threads > 0;
  render::Camera cam = render::Camera::overview(kUnit, res, res);
  util::ThreadPool pool(std::max(1, threads));
  util::ThreadPool* ppool = threads > 0 ? &pool : nullptr;
  std::uint64_t skipped = 0;
  for (auto _ : state) {
    render::RenderStats stats;
    auto im = render::render_frame(cam, fx.tf, opt, fx.rblocks, fx.blocks,
                                   kUnit, &stats, ppool);
    benchmark::DoNotOptimize(im.pixels().data());
    skipped += stats.skipped_samples;
  }
  state.counters["skipped/s"] = benchmark::Counter(
      double(skipped), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RaycastFrameThreaded)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4})
    ->Unit(benchmark::kMillisecond);

void BM_RleEncode(benchmark::State& state) {
  Rng rng(6);
  std::vector<img::Rgba> px(1 << 16);
  double density = double(state.range(0)) / 100.0;
  for (auto& p : px) {
    if (rng.next_double() < density) {
      float a = rng.next_float();
      p = {a, a, a, a};
    }
  }
  for (auto _ : state) {
    img::RleBuffer buf;
    img::rle_encode(px, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(px.size() * sizeof(img::Rgba)));
}
BENCHMARK(BM_RleEncode)->Arg(5)->Arg(50)->Arg(95);

void BM_Lic(benchmark::State& state) {
  const int n = int(state.range(0));
  lic::VectorGrid grid(n, n, {0, 0, 1, 1});
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x)
      grid.at(x, y) = {float(y - n / 2), float(n / 2 - x)};
  auto noise = lic::make_noise(n, n, 7);
  lic::LicOptions opt;
  for (auto _ : state) {
    auto out = lic::compute_lic(grid, noise, n, n, opt);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * n * n);
}
BENCHMARK(BM_Lic)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
