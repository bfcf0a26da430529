#include "core/serial.hpp"

#include <fstream>
#include <stdexcept>

#include "io/block_index.hpp"
#include "io/preprocess.hpp"

namespace qv::core {

std::vector<float> load_step_level(io::DatasetReader& reader, int step,
                                   int level) {
  if (level < 0) level = reader.meta().finest_level;
  std::ifstream is(reader.step_path(step), std::ios::binary);
  if (!is) throw std::runtime_error("serial: cannot open step file");
  is.seekg(std::streamoff(reader.level_offset_bytes(level)));
  std::vector<float> data(reader.level_bytes(level) / sizeof(float));
  is.read(reinterpret_cast<char*>(data.data()),
          std::streamsize(data.size() * sizeof(float)));
  if (!is) throw std::runtime_error("serial: truncated step file");
  return data;
}

std::vector<float> load_scalar_field(io::DatasetReader& reader, int step,
                                     int level, bool enhancement,
                                     float enhancement_gain,
                                     io::Variable variable) {
  if (level < 0) level = reader.meta().finest_level;
  const int comps = reader.meta().components;
  auto cur =
      io::derive_scalar(load_step_level(reader, step, level), comps, variable);
  if (!enhancement) return cur;
  std::vector<float> prev, next;
  if (step > 0)
    prev = io::derive_scalar(load_step_level(reader, step - 1, level), comps,
                             variable);
  if (step + 1 < reader.meta().num_steps)
    next = io::derive_scalar(load_step_level(reader, step + 1, level), comps,
                             variable);
  return io::temporal_enhance(cur, prev, next, enhancement_gain);
}

img::Image render_step(io::DatasetReader& reader, int step,
                       const render::Camera& camera,
                       const render::TransferFunction& tf,
                       const SerialRenderConfig& config,
                       render::RenderStats* stats) {
  int level = config.level < 0 ? reader.meta().finest_level : config.level;
  const mesh::HexMesh& mesh = reader.level_mesh(level);

  auto scalar = load_scalar_field(reader, step, level, config.enhancement,
                                  config.enhancement_gain, config.variable);
  if (config.quantize) {
    auto q = io::quantize(scalar, config.render.value_lo, config.render.value_hi);
    for (std::size_t i = 0; i < scalar.size(); ++i) scalar[i] = q.dequantize(i);
  }

  auto blocks = octree::decompose(mesh.octree(), config.block_level);
  octree::estimate_workloads(mesh.octree(), blocks,
                             octree::WorkloadModel::kCellCount);
  io::BlockNodeIndex index(mesh, blocks);

  auto rblocks = render::build_render_blocks(mesh, blocks, index);
  for (auto& rb : rblocks) rb.gather_values(scalar);
  return render::render_frame(camera, tf, config.render, rblocks, blocks,
                              mesh.domain(), stats);
}

}  // namespace qv::core
