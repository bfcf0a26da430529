#include "mesh/linear_octree.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace qv::mesh {

namespace {

// All 26 neighbor offsets (face + edge + corner). Balancing across all of
// them ("0-balance") guarantees that the parents of any hanging node are
// regular mesh nodes, which keeps the FEM constraint resolution one level
// deep.
struct Offset {
  int dx, dy, dz;
};

std::vector<Offset> all_offsets() {
  std::vector<Offset> out;
  for (int dz = -1; dz <= 1; ++dz)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx)
        if (dx || dy || dz) out.push_back({dx, dy, dz});
  return out;
}

bool neighbor_key(const OctKey& k, const Offset& o, OctKey& out) {
  std::int64_t limit = 1ll << k.level;
  std::int64_t nx = std::int64_t(k.x) + o.dx;
  std::int64_t ny = std::int64_t(k.y) + o.dy;
  std::int64_t nz = std::int64_t(k.z) + o.dz;
  if (nx < 0 || ny < 0 || nz < 0 || nx >= limit || ny >= limit || nz >= limit)
    return false;
  out = {std::uint32_t(nx), std::uint32_t(ny), std::uint32_t(nz), k.level};
  return true;
}

// Find the leaf in `s` that equals `q` or is an ancestor of `q`.
// Returns s.end() when the region of q is covered by finer leaves instead.
std::set<OctKey>::iterator find_containing(std::set<OctKey>& s, const OctKey& q) {
  auto it = s.upper_bound(q);
  if (it != s.begin()) {
    --it;
    if (*it == q || it->is_ancestor_of(q)) return it;
  }
  return s.end();
}

}  // namespace

LinearOctree LinearOctree::build(const Box3& domain, const SizeField& desired_size,
                                 int min_level, int max_level) {
  LinearOctree t;
  t.domain_ = domain;

  // Recursive refinement. A cell is refined when any size-field sample
  // inside it asks for an edge shorter than the cell's edge.
  struct Builder {
    const Box3& domain;
    const SizeField& size;
    int min_level;
    int max_level;
    std::vector<OctKey>& out;

    void visit(const OctKey& k) {
      if (int(k.level) >= max_level) {
        out.push_back(k);
        return;
      }
      bool refine = int(k.level) < min_level;
      if (!refine) {
        Box3 b = k.box(domain);
        float edge = b.extent().x;  // cubic cells in index space
        Vec3 c = b.center();
        float want = size(c);
        // Also probe the corners: the field may dip near a boundary.
        for (int i = 0; i < 8 && !refine; ++i) {
          Vec3 p{(i & 1) ? b.hi.x : b.lo.x, (i & 2) ? b.hi.y : b.lo.y,
                 (i & 4) ? b.hi.z : b.lo.z};
          want = std::min(want, size(p));
        }
        refine = want < edge;
      }
      if (refine) {
        for (int c = 0; c < 8; ++c) visit(k.child(c));
      } else {
        out.push_back(k);
      }
    }
  };

  Builder{domain, desired_size, min_level, max_level, t.leaves_}.visit(OctKey{});
  t.sort_and_dedup();
  t.balance();
  return t;
}

LinearOctree LinearOctree::uniform(const Box3& domain, int level) {
  LinearOctree t;
  t.domain_ = domain;
  std::uint32_t n = 1u << level;
  t.leaves_.reserve(std::size_t(n) * n * n);
  for (std::uint32_t z = 0; z < n; ++z)
    for (std::uint32_t y = 0; y < n; ++y)
      for (std::uint32_t x = 0; x < n; ++x)
        t.leaves_.push_back({x, y, z, std::uint8_t(level)});
  t.sort_and_dedup();
  return t;
}

LinearOctree LinearOctree::from_leaves(const Box3& domain,
                                       std::vector<OctKey> leaves) {
  LinearOctree t;
  t.domain_ = domain;
  t.leaves_ = std::move(leaves);
  t.sort_and_dedup();
  return t;
}

LinearOctree LinearOctree::clipped(int level) const {
  LinearOctree t;
  t.domain_ = domain_;
  t.leaves_.reserve(leaves_.size());
  for (const OctKey& k : leaves_) {
    t.leaves_.push_back(int(k.level) > level ? k.ancestor(level) : k);
  }
  t.sort_and_dedup();
  return t;
}

int LinearOctree::max_leaf_level() const {
  int m = 0;
  for (const auto& k : leaves_) m = std::max(m, int(k.level));
  return m;
}

int LinearOctree::min_leaf_level() const {
  int m = kMaxLevel;
  for (const auto& k : leaves_) m = std::min(m, int(k.level));
  return leaves_.empty() ? 0 : m;
}

std::ptrdiff_t LinearOctree::find_leaf(Vec3 p) const {
  OctKey q;
  if (!quantize(p, q)) return -1;
  return find_leaf(q);
}

bool LinearOctree::quantize(Vec3 p, OctKey& q) const {
  if (!domain_.contains(p) || leaves_.empty()) return false;
  Vec3 rel = p - domain_.lo;
  Vec3 ext = domain_.extent();
  auto grid = [&](float v, float e) {
    auto g = std::int64_t(double(v) / double(e) * double(1u << kMaxLevel));
    return std::uint32_t(std::clamp<std::int64_t>(g, 0, (1u << kMaxLevel) - 1));
  };
  q = {grid(rel.x, ext.x), grid(rel.y, ext.y), grid(rel.z, ext.z),
       std::uint8_t(kMaxLevel)};
  return true;
}

std::ptrdiff_t LinearOctree::find_leaf(const OctKey& key) const {
  return find_leaf(key, 0, leaves_.size());
}

std::ptrdiff_t LinearOctree::find_leaf(const OctKey& key, std::size_t first,
                                       std::size_t last) const {
  // find_leaf(key) answers with the last leaf at or before `key`; if that
  // leaf lies in the range it is the range's last one too, and leaf_holds
  // rejects any other candidate.
  auto lo = leaves_.begin() + std::ptrdiff_t(first);
  auto it = std::upper_bound(lo, leaves_.begin() + std::ptrdiff_t(last), key);
  if (it == lo) return -1;
  std::size_t i = std::size_t(it - leaves_.begin()) - 1;
  return leaf_holds(i, key) ? std::ptrdiff_t(i) : -1;
}

bool LinearOctree::is_balanced() const {
  std::set<OctKey> s(leaves_.begin(), leaves_.end());
  auto offsets = all_offsets();
  for (const OctKey& k : leaves_) {
    for (const auto& o : offsets) {
      OctKey n;
      if (!neighbor_key(k, o, n)) continue;
      auto it = find_containing(s, n);
      if (it != s.end() && int(it->level) + 1 < int(k.level)) return false;
    }
  }
  return true;
}

std::pair<std::size_t, std::size_t> LinearOctree::subtree_range(
    const OctKey& block) const {
  // All descendants of `block` are a contiguous Morton range.
  auto lo = std::lower_bound(leaves_.begin(), leaves_.end(), block);
  auto hi = lo;
  while (hi != leaves_.end() && (block == *hi || block.is_ancestor_of(*hi))) ++hi;
  if (lo == hi) {
    // The block itself may sit inside a shallower leaf.
    auto idx = find_leaf(block);
    if (idx >= 0) return {std::size_t(idx), std::size_t(idx) + 1};
    return {0, 0};
  }
  return {std::size_t(lo - leaves_.begin()), std::size_t(hi - leaves_.begin())};
}

void LinearOctree::sort_and_dedup() {
  std::sort(leaves_.begin(), leaves_.end());
  leaves_.erase(std::unique(leaves_.begin(), leaves_.end()), leaves_.end());
}

void LinearOctree::balance() {
  std::set<OctKey> s(leaves_.begin(), leaves_.end());
  auto offsets = all_offsets();

  // Worklist of leaves whose neighbors may need splitting; process the
  // deepest first so splits ripple outward at most once per level.
  std::vector<OctKey> work(leaves_.begin(), leaves_.end());
  std::sort(work.begin(), work.end(),
            [](const OctKey& a, const OctKey& b) { return a.level < b.level; });

  while (!work.empty()) {
    OctKey k = work.back();
    work.pop_back();
    if (!s.count(k)) continue;  // already split away
    if (k.level < 2) continue;  // neighbors can't be 2 levels coarser
    for (const auto& o : offsets) {
      OctKey n;
      if (!neighbor_key(k, o, n)) continue;
      auto it = find_containing(s, n);
      if (it == s.end()) continue;  // finer cover: nothing to enforce
      while (int(it->level) + 1 < int(k.level)) {
        OctKey coarse = *it;
        s.erase(it);
        for (int c = 0; c < 8; ++c) {
          OctKey ch = coarse.child(c);
          s.insert(ch);
          work.push_back(ch);
        }
        it = find_containing(s, n);
        if (it == s.end()) break;
      }
    }
  }
  leaves_.assign(s.begin(), s.end());
}

}  // namespace qv::mesh
