#include "mesh/hex_mesh.hpp"

#include <algorithm>
#include <cmath>

namespace qv::mesh {

namespace {

// Grid coordinate of corner `corner` (bit0=x, bit1=y, bit2=z) of octant `k`.
GridCoord corner_grid(const OctKey& k, int corner) {
  std::uint32_t step = 1u << (kMaxLevel - k.level);
  return {(k.x + ((corner >> 0) & 1u)) * step, (k.y + ((corner >> 1) & 1u)) * step,
          (k.z + ((corner >> 2) & 1u)) * step};
}

}  // namespace

HexMesh::HexMesh(LinearOctree tree) : tree_(std::move(tree)) {
  build_nodes_and_cells();
  build_constraints();
  build_surface();
}

void HexMesh::build_nodes_and_cells() {
  auto leaves = tree_.leaves();
  cells_.resize(leaves.size());
  node_index_.reserve(leaves.size() * 2);

  const Box3& dom = tree_.domain();
  Vec3 ext = dom.extent();
  const float inv_grid = 1.0f / static_cast<float>(1u << kMaxLevel);

  for (std::size_t c = 0; c < leaves.size(); ++c) {
    for (int corner = 0; corner < 8; ++corner) {
      GridCoord gc = corner_grid(leaves[c], corner);
      auto [it, inserted] =
          node_index_.try_emplace(gc.packed(), NodeId(node_pos_.size()));
      if (inserted) {
        node_grid_.push_back(gc);
        node_pos_.push_back(dom.lo + Vec3{ext.x * gc.x * inv_grid,
                                          ext.y * gc.y * inv_grid,
                                          ext.z * gc.z * inv_grid});
      }
      cells_[c][std::size_t(corner)] = it->second;
    }
  }
  hanging_flag_.assign(node_pos_.size(), 0);
}

void HexMesh::build_constraints() {
  // Edge (corner-pair) and face (corner-quad) index tables of a hexahedron
  // in our bit-coded corner numbering.
  static constexpr int kEdges[12][2] = {{0, 1}, {2, 3}, {4, 5}, {6, 7},
                                        {0, 2}, {1, 3}, {4, 6}, {5, 7},
                                        {0, 4}, {1, 5}, {2, 6}, {3, 7}};
  static constexpr int kFaces[6][4] = {{0, 2, 4, 6}, {1, 3, 5, 7}, {0, 1, 4, 5},
                                       {2, 3, 6, 7}, {0, 1, 2, 3}, {4, 5, 6, 7}};

  auto leaves = tree_.leaves();
  for (std::size_t c = 0; c < leaves.size(); ++c) {
    const OctKey& k = leaves[c];
    if (int(k.level) >= kMaxLevel) continue;  // no midpoints on the grid
    const auto& conn = cells_[c];

    auto midpoint = [&](GridCoord a, GridCoord b) {
      return GridCoord{(a.x + b.x) / 2, (a.y + b.y) / 2, (a.z + b.z) / 2};
    };

    for (const auto& e : kEdges) {
      GridCoord a = corner_grid(k, e[0]);
      GridCoord b = corner_grid(k, e[1]);
      auto idx = find_node(midpoint(a, b));
      if (idx < 0) continue;
      HangingConstraint hc;
      hc.node = NodeId(idx);
      hc.parents = {conn[std::size_t(e[0])], conn[std::size_t(e[1])], 0, 0};
      hc.parent_count = 2;
      hc.cell_level = k.level;
      constraints_.push_back(hc);
      hanging_flag_[hc.node] = 1;
    }
    for (const auto& f : kFaces) {
      GridCoord a = corner_grid(k, f[0]);
      GridCoord b = corner_grid(k, f[3]);  // diagonal corners of the face
      auto idx = find_node(midpoint(a, b));
      if (idx < 0) continue;
      HangingConstraint hc;
      hc.node = NodeId(idx);
      hc.parents = {conn[std::size_t(f[0])], conn[std::size_t(f[1])],
                    conn[std::size_t(f[2])], conn[std::size_t(f[3])]};
      hc.parent_count = 4;
      hc.cell_level = k.level;
      constraints_.push_back(hc);
      hanging_flag_[hc.node] = 1;
    }
  }

  // A node may be flagged by several coarse cells (shared edges); keep one
  // constraint per node, preferring the coarsest generating cell.
  std::sort(constraints_.begin(), constraints_.end(),
            [](const HangingConstraint& a, const HangingConstraint& b) {
              if (a.node != b.node) return a.node < b.node;
              return a.cell_level < b.cell_level;
            });
  constraints_.erase(
      std::unique(constraints_.begin(), constraints_.end(),
                  [](const HangingConstraint& a, const HangingConstraint& b) {
                    return a.node == b.node;
                  }),
      constraints_.end());
  // Resolution order: coarse generating cells first.
  std::stable_sort(constraints_.begin(), constraints_.end(),
                   [](const HangingConstraint& a, const HangingConstraint& b) {
                     return a.cell_level < b.cell_level;
                   });
}

void HexMesh::build_surface() {
  const std::uint32_t top = 1u << kMaxLevel;
  for (NodeId n = 0; n < node_grid_.size(); ++n) {
    if (node_grid_[n].z == top) surface_.push_back(n);
  }
  std::sort(surface_.begin(), surface_.end(), [&](NodeId a, NodeId b) {
    return morton_encode(node_grid_[a].x, node_grid_[a].y, 0) <
           morton_encode(node_grid_[b].x, node_grid_[b].y, 0);
  });
}

std::ptrdiff_t HexMesh::find_node(GridCoord gc) const {
  auto it = node_index_.find(gc.packed());
  return it == node_index_.end() ? -1 : std::ptrdiff_t(it->second);
}

bool HexMesh::locate(Vec3 p, CellSample& out) const {
  auto idx = tree_.find_leaf(p);
  if (idx < 0) return false;
  out = cell_sample(std::size_t(idx), p);
  return true;
}

HexMesh::CellSample HexMesh::cell_sample(std::size_t c, Vec3 p) const {
  Box3 b = cell_box(c);
  Vec3 ext = b.extent();
  return {c, std::clamp((p.x - b.lo.x) / ext.x, 0.0f, 1.0f),
          std::clamp((p.y - b.lo.y) / ext.y, 0.0f, 1.0f),
          std::clamp((p.z - b.lo.z) / ext.z, 0.0f, 1.0f)};
}

float HexMesh::interpolate(std::span<const float> node_values,
                           const CellSample& s) const {
  const auto& n = cells_[s.cell];
  float u = s.u, v = s.v, w = s.w;
  float c00 = node_values[n[0]] * (1 - u) + node_values[n[1]] * u;
  float c10 = node_values[n[2]] * (1 - u) + node_values[n[3]] * u;
  float c01 = node_values[n[4]] * (1 - u) + node_values[n[5]] * u;
  float c11 = node_values[n[6]] * (1 - u) + node_values[n[7]] * u;
  float c0 = c00 * (1 - v) + c10 * v;
  float c1 = c01 * (1 - v) + c11 * v;
  return c0 * (1 - w) + c1 * w;
}

bool HexMesh::sample(std::span<const float> node_values, Vec3 p, float& out) const {
  CellSample s;
  if (!locate(p, s)) return false;
  out = interpolate(node_values, s);
  return true;
}

void HexMesh::apply_constraints(std::span<float> node_values) const {
  for (const auto& hc : constraints_) {
    float sum = 0.0f;
    for (int i = 0; i < hc.parent_count; ++i) sum += node_values[hc.parents[std::size_t(i)]];
    node_values[hc.node] = sum / float(hc.parent_count);
  }
}

void HexMesh::distribute_hanging_forces(std::span<Vec3> node_forces) const {
  // Reverse order: hanging-on-hanging chains fold inward correctly.
  for (auto it = constraints_.rbegin(); it != constraints_.rend(); ++it) {
    const auto& hc = *it;
    Vec3 share = node_forces[hc.node] / float(hc.parent_count);
    for (int i = 0; i < hc.parent_count; ++i) {
      node_forces[hc.parents[std::size_t(i)]] += share;
    }
    node_forces[hc.node] = {};
  }
}

}  // namespace qv::mesh
