// Hexahedral mesh extracted from a linear octree: shared-corner node
// deduplication, cell connectivity, hanging-node constraints, and the
// ground-surface node set used by the LIC module.
//
// This is the static mesh the whole pipeline shares: "the mesh structure
// never changes throughout the simulation [so] a one-time preprocessing
// step is done to generate a spatial (octree) encoding" (§4).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "mesh/linear_octree.hpp"
#include "util/vec.hpp"

namespace qv::mesh {

using NodeId = std::uint32_t;

// Integer node coordinates on the finest (level kMaxLevel) grid,
// range [0, 2^kMaxLevel] inclusive per axis.
struct GridCoord {
  std::uint32_t x = 0, y = 0, z = 0;
  bool operator==(const GridCoord&) const = default;
  std::uint64_t packed() const {
    return std::uint64_t(x) | (std::uint64_t(y) << 21) | (std::uint64_t(z) << 42);
  }
};

// A hanging node and the regular nodes it interpolates from: 2 parents for
// an edge-hanging node, 4 for a face-hanging node. `cell_level` is the
// level of the coarse cell that induced the constraint; applying
// constraints in ascending cell_level order resolves chained constraints.
struct HangingConstraint {
  NodeId node = 0;
  std::array<NodeId, 4> parents{};
  std::uint8_t parent_count = 0;
  std::uint8_t cell_level = 0;
};

class HexMesh {
 public:
  HexMesh() = default;

  // Extract the hex mesh of `tree`. The octree is retained by value for
  // point location during sampling.
  explicit HexMesh(LinearOctree tree);

  const LinearOctree& octree() const { return tree_; }
  const Box3& domain() const { return tree_.domain(); }

  std::size_t node_count() const { return node_pos_.size(); }
  std::size_t cell_count() const { return cells_.size(); }

  std::span<const Vec3> node_positions() const { return node_pos_; }
  std::span<const GridCoord> node_grid_coords() const { return node_grid_; }
  std::span<const std::array<NodeId, 8>> cells() const { return cells_; }
  const std::array<NodeId, 8>& cell_nodes(std::size_t c) const { return cells_[c]; }
  OctKey cell_key(std::size_t c) const { return tree_.leaves()[c]; }
  Box3 cell_box(std::size_t c) const { return cell_key(c).box(domain()); }

  std::span<const HangingConstraint> constraints() const { return constraints_; }

  // Node ids on the top surface (max z), Morton-sorted in (x, y).
  // The paper notes >20% of mesh points sit near the surface (§4.3).
  std::span<const NodeId> surface_nodes() const { return surface_; }

  // Node id at exact grid coords, or -1 when no node exists there.
  std::ptrdiff_t find_node(GridCoord gc) const;

  // Trilinear interpolation of a per-node scalar field at point `p`.
  // Returns false when `p` lies outside the mesh.
  bool sample(std::span<const float> node_values, Vec3 p, float& out) const;

  // Local (unit-cube) coordinates of `p` within cell `c` plus the cell's
  // node ids; used by the renderer's inner loop.
  struct CellSample {
    std::size_t cell = 0;
    float u = 0, v = 0, w = 0;  // in [0,1]^3
  };
  bool locate(Vec3 p, CellSample& out) const;
  // What locate() answers once it has found cell `c`: p's local coordinates
  // in c, clamped to the unit cube.
  CellSample cell_sample(std::size_t c, Vec3 p) const;

  // Interpolate a node field at a located sample.
  float interpolate(std::span<const float> node_values, const CellSample& s) const;

  // Enforce hanging-node constraints on a field in place (values at hanging
  // nodes become interpolations of their parents).
  void apply_constraints(std::span<float> node_values) const;

  // Transpose operation for the solver: fold force contributions that landed
  // on hanging nodes back onto their parents (then zero the hanging entry).
  void distribute_hanging_forces(std::span<Vec3> node_forces) const;

  // True when node `n` is hanging.
  bool is_hanging(NodeId n) const { return hanging_flag_[n] != 0; }

 private:
  void build_nodes_and_cells();
  void build_constraints();
  void build_surface();

  LinearOctree tree_;
  std::vector<Vec3> node_pos_;
  std::vector<GridCoord> node_grid_;
  std::vector<std::array<NodeId, 8>> cells_;
  std::vector<HangingConstraint> constraints_;  // sorted by cell_level
  std::vector<std::uint8_t> hanging_flag_;
  std::vector<NodeId> surface_;
  std::unordered_map<std::uint64_t, NodeId> node_index_;
};

}  // namespace qv::mesh
