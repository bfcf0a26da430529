// Linear octree: the sorted-leaf-array representation of an adaptive octree,
// plus the wavelength-driven refinement used to generate earthquake meshes
// (finer cells where the local seismic wavelength is short, i.e. soft soil
// near the surface — §3 of the paper).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mesh/octkey.hpp"
#include "util/vec.hpp"

namespace qv::mesh {

// Returns the desired edge length (in domain units) at a point. The mesher
// refines until every leaf's edge is <= the minimum desired size inside it.
using SizeField = std::function<float(Vec3)>;

class LinearOctree {
 public:
  LinearOctree() = default;

  // Build by recursive refinement over `domain`. The size field is sampled
  // at the cell center and corners. Levels are clamped to
  // [min_level, max_level]. The result is 2:1 balanced across faces.
  static LinearOctree build(const Box3& domain, const SizeField& desired_size,
                            int min_level, int max_level);

  // Uniform octree at `level` (every leaf the same size).
  static LinearOctree uniform(const Box3& domain, int level);

  // Adopt an explicit leaf set (e.g. deserialized from disk). Keys are
  // sorted and deduplicated; no balancing is applied (the set is assumed to
  // come from a previously built tree).
  static LinearOctree from_leaves(const Box3& domain, std::vector<OctKey> leaves);

  // Restrict to `level`: every leaf deeper than `level` is replaced by its
  // level-`level` ancestor (duplicates removed). Leaves already at or above
  // `level` are kept. This implements the renderer's adaptive
  // level-of-detail and the adaptive fetching of §6.
  LinearOctree clipped(int level) const;

  const Box3& domain() const { return domain_; }
  std::span<const OctKey> leaves() const { return leaves_; }
  std::size_t leaf_count() const { return leaves_.size(); }
  int max_leaf_level() const;
  int min_leaf_level() const;

  // Index of the leaf whose octant contains `p`, or -1 when `p` is outside
  // the domain. Binary search in Morton order: O(log n).
  std::ptrdiff_t find_leaf(Vec3 p) const;

  // The kMaxLevel key find_leaf(p) searches for. False (q untouched) when
  // find_leaf(p) returns -1 without searching: p outside the domain, or no
  // leaves.
  bool quantize(Vec3 p, OctKey& q) const;

  // Index of the leaf equal to or containing `key`, or -1.
  std::ptrdiff_t find_leaf(const OctKey& key) const;

  // find_leaf(key) when that index lies in [first, last), else -1; the
  // binary search covers only that range.
  std::ptrdiff_t find_leaf(const OctKey& key, std::size_t first,
                           std::size_t last) const;

  // True exactly when find_leaf(q) == i, in O(1): leaf i contains q and the
  // next leaf does not sort at or before q. Requires i < leaf_count().
  bool leaf_holds(std::size_t i, const OctKey& q) const {
    return leaves_[i].is_ancestor_of(q) &&
           (i + 1 == leaves_.size() || q < leaves_[i + 1]);
  }

  // True when no leaf's face neighbor differs by more than one level.
  bool is_balanced() const;

  // Leaves (by index) whose ancestor at `block_level` equals `block`.
  // Leaves shallower than block_level belong to the block they contain.
  // Because storage is Morton-ordered this is a contiguous range.
  std::pair<std::size_t, std::size_t> subtree_range(const OctKey& block) const;

 private:
  void sort_and_dedup();
  void balance();

  Box3 domain_;
  std::vector<OctKey> leaves_;  // Morton-sorted
};

}  // namespace qv::mesh
