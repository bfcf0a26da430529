#include "pipesim/calibration.hpp"

#include <vector>

#include "io/block_index.hpp"
#include "io/preprocess.hpp"
#include "lic/lic.hpp"
#include "mesh/linear_octree.hpp"
#include "octree/blocks.hpp"
#include "quake/synthetic.hpp"
#include "render/raycast.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace qv::pipesim {

KernelRates measure_kernel_rates() {
  KernelRates rates;

  // Raycasting rate: render a small synthetic volume and count samples.
  {
    Box3 domain{{0, 0, 0}, {1, 1, 1}};
    mesh::HexMesh mesh(mesh::LinearOctree::uniform(domain, 4));
    quake::SyntheticQuake quake;
    auto vel = quake.sample_nodes(mesh, 2.0f);
    auto mag = io::magnitude(vel, 3);

    auto blocks = octree::decompose(mesh.octree(), 1);
    octree::estimate_workloads(mesh.octree(), blocks,
                               octree::WorkloadModel::kCellCount);
    io::BlockNodeIndex index(mesh, blocks);
    auto rblocks = render::build_render_blocks(mesh, blocks, index);
    for (auto& rb : rblocks) rb.gather_values(mag);
    auto tf = render::TransferFunction::seismic();
    render::RenderOptions opt;
    opt.value_hi = 2.0f;
    render::Camera cam = render::Camera::overview(domain, 128, 128);
    render::RenderStats stats;
    WallTimer timer;
    (void)render::render_frame(cam, tf, opt, rblocks, blocks, domain, &stats);
    double secs = timer.seconds();
    rates.render_samples_per_sec =
        secs > 0.0 ? double(stats.samples) / secs : 1e8;
  }

  // Quantization throughput.
  {
    Rng rng(7);
    std::vector<float> data(4 << 20);
    for (auto& v : data) v = rng.next_float();
    WallTimer timer;
    auto q = io::quantize(data);
    double secs = timer.seconds();
    rates.quantize_bytes_per_sec =
        secs > 0.0 ? double(data.size() * sizeof(float)) / secs : 1e9;
    (void)q;
  }

  // LIC throughput.
  {
    const int n = 128;
    lic::VectorGrid grid(n, n, {0, 0, 1, 1});
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x)
        grid.at(x, y) = {float(y - n / 2), float(n / 2 - x)};
    auto noise = lic::make_noise(n, n, 11);
    lic::LicOptions opt;
    WallTimer timer;
    auto out = lic::compute_lic(grid, noise, n, n, opt);
    double secs = timer.seconds();
    rates.lic_pixels_per_sec = secs > 0.0 ? double(n) * n / secs : 1e6;
    (void)out;
  }

  return rates;
}

double render_seconds_from_rate(const KernelRates& rates, int procs, int pixels,
                                double samples_per_ray) {
  double total_samples = double(pixels) * samples_per_ray;
  return total_samples / (rates.render_samples_per_sec * double(procs));
}

}  // namespace qv::pipesim
