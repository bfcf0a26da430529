// Index structures connecting octree blocks to node-array file layout —
// the machinery behind both §5.3 reading strategies.
//
// Strategy 1 (single collective noncontiguous read): each input processor
// owns a set of blocks; its reading pattern is the merged, deduplicated node
// list of those blocks, expressed as an IndexedBlockView
// (MPI_TYPE_CREATE_INDEXED_BLOCK in the paper).
//
// Strategy 2 (independent contiguous read): each input processor reads a
// contiguous 1/m slice of the node array, scans the octree data, and builds
// a map from its local slice to (block, position-within-block) pieces, which
// are forwarded to renderers and merged there (Figure 7).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/hex_mesh.hpp"
#include "octree/blocks.hpp"

namespace qv::io {

// Per-block sorted unique node lists for one level mesh, built in one pass
// over the cells: a per-node stamp collects each block's unique ids, and
// only those are sorted. The lists are stored back to back.
class BlockNodeIndex {
 public:
  BlockNodeIndex() = default;
  BlockNodeIndex(const mesh::HexMesh& mesh,
                 std::span<const octree::Block> blocks);

  std::size_t block_count() const { return first_.size() - 1; }
  // Sorted unique node ids used by block `b`'s cells.
  std::span<const mesh::NodeId> block_nodes(std::size_t b) const {
    return std::span(ids_).subspan(first_[b], first_[b + 1] - first_[b]);
  }
  // Total node entries across blocks (with inter-block duplication).
  std::uint64_t total_entries() const { return ids_.size(); }

 private:
  std::vector<std::size_t> first_{0};  // block b's ids: [first_[b], first_[b+1])
  std::vector<mesh::NodeId> ids_;
};

// Merged, deduplicated node list for a set of blocks ("octree data are
// merged for each rendering processor" — §5.3.1). Returned sorted; built
// through a presence bitmap over the node ids, not a sort.
std::vector<mesh::NodeId> merged_nodes(const BlockNodeIndex& index,
                                       std::span<const std::size_t> block_ids);

// Where each block's nodes sit in `merged`, a sorted list holding every
// node of those blocks (merged_nodes' answer): entry i lists, for each node
// of block_ids[i] in block order, its index in `merged`. Read through a
// dense node -> position table, not a search per node.
std::vector<std::vector<std::uint32_t>> merged_positions(
    const BlockNodeIndex& index, std::span<const std::size_t> block_ids,
    std::span<const mesh::NodeId> merged);

// One forwarded piece under strategy 2: node `slice_pos` within the reader's
// contiguous slice goes to position `block_pos` of block `block`.
struct ForwardEntry {
  std::uint32_t block = 0;      // global block id
  std::uint32_t block_pos = 0;  // index into the block's sorted node list
  std::uint32_t slice_pos = 0;  // index into the reader's slice
};

// Build the forwarding map of a contiguous node slice [first, last) against
// all blocks. Entries are grouped by block (ascending), then block_pos.
std::vector<ForwardEntry> build_forward_map(const BlockNodeIndex& index,
                                            mesh::NodeId first, mesh::NodeId last);

// Contiguous slice boundaries for reader `i` of `m` over `n` nodes:
// [n*i/m, n*(i+1)/m).
std::pair<mesh::NodeId, mesh::NodeId> slice_bounds(std::uint64_t node_count,
                                                   int reader, int readers);

}  // namespace qv::io
