#include "io/block_index.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace qv::io {

BlockNodeIndex::BlockNodeIndex(const mesh::HexMesh& mesh,
                               std::span<const octree::Block> blocks) {
  auto cells = mesh.cells();
  // stamp[n] == b + 1 once node n is listed for block b.
  std::vector<std::uint32_t> stamp(mesh.node_count(), 0);
  first_.reserve(blocks.size() + 1);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto mark = std::uint32_t(b + 1);
    const std::size_t begin = ids_.size();
    for (std::size_t c = blocks[b].cell_begin; c < blocks[b].cell_end; ++c) {
      for (mesh::NodeId n : cells[c]) {
        if (stamp[n] == mark) continue;
        stamp[n] = mark;
        ids_.push_back(n);
      }
    }
    std::sort(ids_.begin() + std::ptrdiff_t(begin), ids_.end());
    first_.push_back(ids_.size());
  }
  ids_.shrink_to_fit();
}

std::vector<mesh::NodeId> merged_nodes(const BlockNodeIndex& index,
                                       std::span<const std::size_t> block_ids) {
  // Each list is sorted, so its last id bounds the bitmap.
  std::size_t words = 0;
  for (std::size_t b : block_ids) {
    auto nodes = index.block_nodes(b);
    if (!nodes.empty()) words = std::max(words, std::size_t(nodes.back()) / 64 + 1);
  }
  std::vector<std::uint64_t> present(words, 0);
  for (std::size_t b : block_ids) {
    for (mesh::NodeId n : index.block_nodes(b))
      present[n / 64] |= std::uint64_t(1) << (n % 64);
  }
  std::vector<mesh::NodeId> out;
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = present[w]; bits != 0; bits &= bits - 1)
      out.push_back(mesh::NodeId(w * 64 + std::size_t(std::countr_zero(bits))));
  }
  return out;
}

std::vector<std::vector<std::uint32_t>> merged_positions(
    const BlockNodeIndex& index, std::span<const std::size_t> block_ids,
    std::span<const mesh::NodeId> merged) {
  std::vector<std::uint32_t> pos_of(merged.empty() ? 0 : merged.back() + 1);
  for (std::size_t i = 0; i < merged.size(); ++i)
    pos_of[merged[i]] = std::uint32_t(i);
  std::vector<std::vector<std::uint32_t>> out(block_ids.size());
  for (std::size_t i = 0; i < block_ids.size(); ++i) {
    auto nodes = index.block_nodes(block_ids[i]);
    out[i].reserve(nodes.size());
    for (mesh::NodeId n : nodes) {
      if (n >= pos_of.size() || merged[pos_of[n]] != n)
        throw std::invalid_argument("merged_positions: node not in the merged list");
      out[i].push_back(pos_of[n]);
    }
  }
  return out;
}

std::vector<ForwardEntry> build_forward_map(const BlockNodeIndex& index,
                                            mesh::NodeId first, mesh::NodeId last) {
  std::vector<ForwardEntry> out;
  for (std::size_t b = 0; b < index.block_count(); ++b) {
    auto nodes = index.block_nodes(b);
    // Sorted: binary search the window [first, last).
    auto lo = std::lower_bound(nodes.begin(), nodes.end(), first);
    auto hi = std::lower_bound(lo, nodes.end(), last);
    for (auto it = lo; it != hi; ++it) {
      out.push_back({std::uint32_t(b), std::uint32_t(it - nodes.begin()),
                     std::uint32_t(*it - first)});
    }
  }
  return out;
}

std::pair<mesh::NodeId, mesh::NodeId> slice_bounds(std::uint64_t node_count,
                                                   int reader, int readers) {
  auto lo = node_count * std::uint64_t(reader) / std::uint64_t(readers);
  auto hi = node_count * std::uint64_t(reader + 1) / std::uint64_t(readers);
  return {mesh::NodeId(lo), mesh::NodeId(hi)};
}

}  // namespace qv::io
