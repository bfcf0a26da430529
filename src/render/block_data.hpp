// Renderer-side block storage: a subtree's cells with connectivity remapped
// to a block-local node array. The structure is built once per block when
// the input processors ship the subtree at startup ("the subtree is
// delivered ... only once at the beginning" — §4); per-step node values are
// swapped in as each time step arrives. build_render_blocks builds a set of
// blocks in one linear pass over their cells.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "io/block_index.hpp"
#include "mesh/hex_mesh.hpp"
#include "octree/blocks.hpp"

namespace qv::render {

// A dense global -> block-local node table over one mesh's node ids, empty
// between builds. A RenderBlock's constructor fills its own nodes' entries,
// remaps its connectivity through them and clears them again, also when it
// throws, so one table serves every block built on the mesh.
class NodeRemap {
 public:
  explicit NodeRemap(std::size_t node_count) : local_(node_count, kAbsent) {}

 private:
  friend class RenderBlock;
  static constexpr std::uint32_t kAbsent = 0xffffffffu;
  std::vector<std::uint32_t> local_;
};

class RenderBlock {
 public:
  // `nodes` is the block's sorted unique global node list (from
  // io::BlockNodeIndex); connectivity is remapped against it through
  // `remap`, a table over `mesh`'s nodes. Throws when a cell's node is
  // missing from `nodes` or a node id is outside the table.
  RenderBlock(const mesh::HexMesh& mesh, const octree::Block& block,
              std::span<const mesh::NodeId> nodes, NodeRemap& remap);

  const octree::Block& block() const { return block_; }
  const Box3& bounds() const { return block_.bounds; }
  std::size_t local_node_count() const { return nodes_.size(); }
  std::span<const mesh::NodeId> global_nodes() const { return nodes_; }
  float finest_cell_edge() const { return min_edge_; }

  // Install this time step's scalar values (size == local_node_count()).
  // Also refreshes the per-macrocell value ranges used for empty-space
  // skipping (one min/max fold over the block's cells).
  void set_values(std::vector<float> values);
  // set_values() with each node's value read from `field`, an array over
  // the whole mesh indexed by global node id.
  void gather_values(std::span<const float> field);
  std::span<const float> values() const { return values_; }

  // Empty-space-skipping macrocells: groups of Morton-consecutive leaf
  // cells sharing an octree ancestor one level above the finest leaves.
  // Each macrocell's bounds are the *exact* octant box of that ancestor
  // key — never a fitted bounding box, which could overlap a neighboring
  // macro and make skip decisions inexact. vmin/vmax cover every node value
  // of every cell in the macro, so any trilinear sample taken inside it is
  // guaranteed to land in [vmin, vmax] (interpolation is a convex
  // combination of node values).
  struct Macrocell {
    Box3 bounds;
    float vmin = 0.0f;
    float vmax = 0.0f;
    std::uint32_t cell_begin = 0;  // local cell range [begin, end)
    std::uint32_t cell_end = 0;
  };
  std::span<const Macrocell> macrocells() const { return macros_; }
  // Macro index for a *global* cell id in [block().cell_begin, cell_end).
  std::uint32_t macro_of_cell(std::size_t cell) const {
    return macro_of_cell_[cell - block_.cell_begin];
  }

  static constexpr std::uint32_t kNoMacro = 0xffffffffu;
  // Macro containing p, found by direct grid arithmetic — no octree
  // descent, so the raycaster can test empty space before paying for
  // locate(). Returns kNoMacro unless p is STRICTLY inside the macro's
  // octant box: boundary samples fall back to the locate() path, which
  // keeps skip decisions exact even if grid float arithmetic rounds a
  // face point to the wrong side.
  std::uint32_t macro_at(Vec3 p) const;

  // Locate the cell containing p without interpolating — lets the
  // raycaster consult the macrocell table before paying for the trilinear
  // fetch. False when p is outside this block. `hint` (optional) caches the
  // containing cell between calls: rays take many samples inside one cell
  // before crossing into the next, so location is skipped whenever the
  // cached cell's box still contains p; otherwise the answer is
  // HexMesh::locate's, if that cell is in this block. Pass the same
  // variable across consecutive samples of a ray.
  bool locate(Vec3 p, mesh::HexMesh::CellSample& cs,
              std::size_t* hint = nullptr) const;
  // Trilinear interpolation for a cell previously located on this block.
  float interpolate(const mesh::HexMesh::CellSample& cs) const;

  static constexpr std::size_t kNoCell = std::size_t(-1);
  // Central-difference gradient at p with probe distance h. Probes falling
  // outside the block clamp to the center value (one-sided estimate).
  // `cell` is a cell at or near p, such as the ray's current cell; it makes
  // the seven locations cheap and never changes the result.
  bool sample_gradient(Vec3 p, float h, Vec3& out,
                       std::size_t cell = kNoCell) const;

 private:
  void refresh_macro_ranges();
  // The cell HexMesh::locate(p) finds, with its clamped coordinates, when
  // that cell is in this block; false otherwise. Searches nothing when
  // `hint` holds p, and at most the block's own leaves otherwise.
  bool find_cell(Vec3 p, std::size_t hint,
                 mesh::HexMesh::CellSample& cs) const;

  const mesh::HexMesh* mesh_;
  octree::Block block_;
  std::vector<mesh::NodeId> nodes_;
  std::vector<std::array<std::uint32_t, 8>> conn_;  // per cell in block
  std::vector<float> values_;
  std::vector<Macrocell> macros_;
  std::vector<std::uint32_t> macro_of_cell_;  // per local cell
  // Regular macro-resolution lookup grid over the block's bounds
  // (grid_dim_^3 entries; coarse single-cell macros cover several entries).
  std::vector<std::uint32_t> macro_grid_;
  int grid_dim_ = 1;
  Vec3 grid_scale_{};  // grid_dim_ / bounds extent, per axis
  float min_edge_ = 0.0f;
};

// The RenderBlocks of blocks[ids[i]], each over its list in `index`, built
// with one NodeRemap: one linear pass over the blocks' cells.
std::vector<RenderBlock> build_render_blocks(
    const mesh::HexMesh& mesh, std::span<const octree::Block> blocks,
    const io::BlockNodeIndex& index, std::span<const std::size_t> ids);
// ... of every block.
std::vector<RenderBlock> build_render_blocks(
    const mesh::HexMesh& mesh, std::span<const octree::Block> blocks,
    const io::BlockNodeIndex& index);

}  // namespace qv::render
