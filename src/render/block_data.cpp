#include "render/block_data.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qv::render {

RenderBlock::RenderBlock(const mesh::HexMesh& mesh, const octree::Block& block,
                         std::span<const mesh::NodeId> nodes, NodeRemap& remap)
    : mesh_(&mesh), block_(block), nodes_(nodes.begin(), nodes.end()) {
  std::vector<std::uint32_t>& local = remap.local_;
  for (mesh::NodeId n : nodes_)
    if (n >= local.size())
      throw std::runtime_error("RenderBlock: node id outside the mesh");
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    local[nodes_[i]] = std::uint32_t(i);
  // Clears this block's entries again, however the constructor leaves.
  struct Clear {
    std::vector<std::uint32_t>& local;
    std::span<const mesh::NodeId> nodes;
    ~Clear() {
      for (mesh::NodeId n : nodes) local[n] = NodeRemap::kAbsent;
    }
  } clear{local, nodes_};
  conn_.resize(block.cell_count());
  auto cells = mesh.cells();
  auto leaves = mesh.octree().leaves();
  float min_edge = 1e30f;
  for (std::size_t c = block.cell_begin; c < block.cell_end; ++c) {
    for (int i = 0; i < 8; ++i) {
      const std::uint32_t l = local[cells[c][std::size_t(i)]];
      if (l == NodeRemap::kAbsent)
        throw std::runtime_error("RenderBlock: node missing from block list");
      conn_[c - block.cell_begin][std::size_t(i)] = l;
    }
    min_edge = std::min(min_edge, leaves[c].box(mesh.domain()).extent().x);
  }
  min_edge_ = block.cell_count() ? min_edge : block.bounds.extent().x;

  // Macrocell structure: group Morton-consecutive leaves by their octree
  // ancestor one level above the finest leaf in the block (leaves that are
  // already coarser than that level form single-cell macros). Ancestors of
  // consecutive leaves are themselves consecutive, so each macro is a
  // contiguous local cell range.
  int max_leaf_level = int(block.root.level);
  for (std::size_t c = block.cell_begin; c < block.cell_end; ++c)
    max_leaf_level = std::max(max_leaf_level, int(leaves[c].level));
  int macro_level = std::max(int(block.root.level), max_leaf_level - 1);
  macro_of_cell_.resize(block.cell_count());
  mesh::OctKey cur{};
  for (std::size_t c = block.cell_begin; c < block.cell_end; ++c) {
    mesh::OctKey key = leaves[c];
    mesh::OctKey anc = key.ancestor(std::min(int(key.level), macro_level));
    if (macros_.empty() || !(anc == cur)) {
      Macrocell m;
      m.bounds = anc.box(mesh.domain());
      m.cell_begin = std::uint32_t(c - block.cell_begin);
      m.cell_end = m.cell_begin + 1;
      macros_.push_back(m);
      cur = anc;
    } else {
      macros_.back().cell_end = std::uint32_t(c - block.cell_begin) + 1;
    }
    macro_of_cell_[c - block.cell_begin] = std::uint32_t(macros_.size() - 1);
  }

  // Position -> macro lookup grid at macro resolution. The grid is a pure
  // accelerator: macro_at() re-verifies containment against the macro's
  // exact octant box, so a misaligned entry can only cost a locate(), never
  // a wrong skip.
  grid_dim_ = 1 << (macro_level - int(block.root.level));
  Vec3 ext = block.bounds.extent();
  grid_scale_ = {float(grid_dim_) / ext.x, float(grid_dim_) / ext.y,
                 float(grid_dim_) / ext.z};
  macro_grid_.assign(std::size_t(grid_dim_) * std::size_t(grid_dim_) *
                         std::size_t(grid_dim_),
                     kNoMacro);
  for (std::size_t m = 0; m < macros_.size(); ++m) {
    Vec3 rel = macros_[m].bounds.lo - block.bounds.lo;
    Vec3 mext = macros_[m].bounds.extent();
    int ix = int(std::lround(rel.x * grid_scale_.x));
    int iy = int(std::lround(rel.y * grid_scale_.y));
    int iz = int(std::lround(rel.z * grid_scale_.z));
    int nx = std::max(1, int(std::lround(mext.x * grid_scale_.x)));
    int ny = std::max(1, int(std::lround(mext.y * grid_scale_.y)));
    int nz = std::max(1, int(std::lround(mext.z * grid_scale_.z)));
    for (int z = iz; z < std::min(iz + nz, grid_dim_); ++z)
      for (int y = iy; y < std::min(iy + ny, grid_dim_); ++y)
        for (int x = ix; x < std::min(ix + nx, grid_dim_); ++x)
          macro_grid_[(std::size_t(z) * std::size_t(grid_dim_) +
                       std::size_t(y)) *
                          std::size_t(grid_dim_) +
                      std::size_t(x)] = std::uint32_t(m);
  }

  values_.assign(nodes_.size(), 0.0f);
  refresh_macro_ranges();
}

std::uint32_t RenderBlock::macro_at(Vec3 p) const {
  const Box3& bb = block_.bounds;
  if (!(p.x > bb.lo.x && p.x < bb.hi.x && p.y > bb.lo.y && p.y < bb.hi.y &&
        p.z > bb.lo.z && p.z < bb.hi.z))
    return kNoMacro;
  int ix = std::min(grid_dim_ - 1,
                    std::max(0, int((p.x - bb.lo.x) * grid_scale_.x)));
  int iy = std::min(grid_dim_ - 1,
                    std::max(0, int((p.y - bb.lo.y) * grid_scale_.y)));
  int iz = std::min(grid_dim_ - 1,
                    std::max(0, int((p.z - bb.lo.z) * grid_scale_.z)));
  std::uint32_t m =
      macro_grid_[(std::size_t(iz) * std::size_t(grid_dim_) +
                   std::size_t(iy)) *
                      std::size_t(grid_dim_) +
                  std::size_t(ix)];
  if (m == kNoMacro) return kNoMacro;
  const Box3& mb = macros_[m].bounds;
  if (p.x > mb.lo.x && p.x < mb.hi.x && p.y > mb.lo.y && p.y < mb.hi.y &&
      p.z > mb.lo.z && p.z < mb.hi.z)
    return m;
  return kNoMacro;
}

void RenderBlock::set_values(std::vector<float> values) {
  if (values.size() != nodes_.size())
    throw std::runtime_error("RenderBlock: value count mismatch");
  values_ = std::move(values);
  refresh_macro_ranges();
}

void RenderBlock::gather_values(std::span<const float> field) {
  std::vector<float> values(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) values[i] = field[nodes_[i]];
  set_values(std::move(values));
}

void RenderBlock::refresh_macro_ranges() {
  for (Macrocell& m : macros_) {
    float lo = 1e30f, hi = -1e30f;
    for (std::uint32_t c = m.cell_begin; c < m.cell_end; ++c) {
      for (std::uint32_t n : conn_[c]) {
        lo = std::min(lo, values_[n]);
        hi = std::max(hi, values_[n]);
      }
    }
    m.vmin = lo;
    m.vmax = hi;
  }
}

bool RenderBlock::locate(Vec3 p, mesh::HexMesh::CellSample& cs,
                         std::size_t* hint) const {
  // The ray march's test: keep the hint cell while its float box contains
  // p. On a shared face, or just inside one, this can keep a cell the
  // quantized key of find_cell would not pick; the golden images pin it.
  if (hint && *hint >= block_.cell_begin && *hint < block_.cell_end) {
    Box3 b = mesh_->cell_box(*hint);
    if (b.contains(p)) {
      cs.cell = *hint;
      Vec3 ext = b.extent();
      cs.u = (p.x - b.lo.x) / ext.x;
      cs.v = (p.y - b.lo.y) / ext.y;
      cs.w = (p.z - b.lo.z) / ext.z;
      return true;
    }
  }
  if (!find_cell(p, hint ? *hint : kNoCell, cs)) return false;
  if (hint) *hint = cs.cell;
  return true;
}

bool RenderBlock::find_cell(Vec3 p, std::size_t hint,
                            mesh::HexMesh::CellSample& cs) const {
  // HexMesh::locate answers find_leaf(q) for p's quantized key q. That is
  // the one leaf for which leaf_holds(i, q) is true, so a hint or macrocell
  // leaf that holds q is the answer, and a search of the block's range
  // finds it exactly when it lies in the block.
  const mesh::LinearOctree& tree = mesh_->octree();
  mesh::OctKey q;
  if (!tree.quantize(p, q)) return false;
  std::size_t cell = kNoCell;
  if (hint >= block_.cell_begin && hint < block_.cell_end &&
      tree.leaf_holds(hint, q)) {
    cell = hint;
  } else if (std::uint32_t m = macro_at(p); m != kNoMacro) {
    for (std::uint32_t c = macros_[m].cell_begin; c < macros_[m].cell_end;
         ++c) {
      if (tree.leaf_holds(block_.cell_begin + c, q)) {
        cell = block_.cell_begin + c;
        break;
      }
    }
  }
  if (cell == kNoCell) {
    auto idx = tree.find_leaf(q, block_.cell_begin, block_.cell_end);
    if (idx < 0) return false;
    cell = std::size_t(idx);
  }
  cs = mesh_->cell_sample(cell, p);
  return true;
}

float RenderBlock::interpolate(const mesh::HexMesh::CellSample& cs) const {
  const auto& n = conn_[cs.cell - block_.cell_begin];
  float u = cs.u, v = cs.v, w = cs.w;
  float c00 = values_[n[0]] * (1 - u) + values_[n[1]] * u;
  float c10 = values_[n[2]] * (1 - u) + values_[n[3]] * u;
  float c01 = values_[n[4]] * (1 - u) + values_[n[5]] * u;
  float c11 = values_[n[6]] * (1 - u) + values_[n[7]] * u;
  float c0 = c00 * (1 - v) + c10 * v;
  float c1 = c01 * (1 - v) + c11 * v;
  return c0 * (1 - w) + c1 * w;
}

bool RenderBlock::sample_gradient(Vec3 p, float h, Vec3& out,
                                  std::size_t cell) const {
  auto value_at = [&](Vec3 x, float& v) {
    mesh::HexMesh::CellSample cs;
    if (!find_cell(x, cell, cs)) return false;
    v = interpolate(cs);
    return true;
  };
  float center;
  if (!value_at(p, center)) return false;
  Vec3 g{};
  for (int a = 0; a < 3; ++a) {
    Vec3 d{};
    if (a == 0) d.x = h;
    if (a == 1) d.y = h;
    if (a == 2) d.z = h;
    float fp = center, fm = center;
    bool okp = value_at(p + d, fp);
    bool okm = value_at(p - d, fm);
    float denom = (okp && okm) ? 2.0f * h : h;
    float grad = (okp || okm) ? (fp - fm) / denom : 0.0f;
    if (a == 0) g.x = grad;
    if (a == 1) g.y = grad;
    if (a == 2) g.z = grad;
  }
  out = g;
  return true;
}

std::vector<RenderBlock> build_render_blocks(
    const mesh::HexMesh& mesh, std::span<const octree::Block> blocks,
    const io::BlockNodeIndex& index, std::span<const std::size_t> ids) {
  NodeRemap remap(mesh.node_count());
  std::vector<RenderBlock> out;
  out.reserve(ids.size());
  for (std::size_t b : ids)
    out.emplace_back(mesh, blocks[b], index.block_nodes(b), remap);
  return out;
}

std::vector<RenderBlock> build_render_blocks(
    const mesh::HexMesh& mesh, std::span<const octree::Block> blocks,
    const io::BlockNodeIndex& index) {
  std::vector<std::size_t> all(blocks.size());
  for (std::size_t b = 0; b < all.size(); ++b) all[b] = b;
  return build_render_blocks(mesh, blocks, index, all);
}

}  // namespace qv::render
