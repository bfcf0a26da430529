// On-disk time-varying dataset layout.
//
// The earthquake files the paper reads are "node data stored as a linear
// array on the disk" per time step, with a separate one-time octree (spatial)
// encoding (§4, §5.3). We reproduce that layout and extend it with the
// multiresolution arrays that make §6's *adaptive fetching* possible — only
// the node array of the selected octree level is fetched:
//
//   <dir>/meta.bin        header: domain, level range, components, steps
//   <dir>/octree.bin      leaf keys of the finest-resolution octree
//   <dir>/step_%04d.bin   per step: node arrays for every level,
//                         coarsest level first, finest (raw) level last;
//                         each array is node_count(L) * components float32,
//                         in the deterministic node order of the level mesh
//
// Level meshes are derived data: both writer and reader rebuild them from
// octree.bin via LinearOctree::clipped + HexMesh extraction, which is
// deterministic, so node ordering always agrees.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mesh/hex_mesh.hpp"

namespace qv::io {

struct DatasetMeta {
  Box3 domain;
  int coarsest_level = 0;
  int finest_level = 0;
  int components = 1;  // floats per node (3 for velocity vectors)
  int num_steps = 0;
  float step_dt = 1.0f;  // simulated seconds between stored steps
  std::vector<std::uint64_t> level_node_count;  // indexed by level - coarsest
};

// Writes the dataset. The fine mesh (and hence all level meshes) is fixed at
// construction; steps are appended one at a time.
class DatasetWriter {
 public:
  // `fine` must outlive the writer. Level meshes for
  // [coarsest_level, fine level] are built on construction. Throws
  // std::invalid_argument when the fine level is below coarsest_level.
  DatasetWriter(std::string dir, const mesh::HexMesh& fine, int coarsest_level,
                int components, float step_dt);

  // Append one step of fine-mesh node data (interleaved components,
  // size = fine.node_count() * components). Coarser levels are derived by
  // direct nodal restriction (coarse nodes are a subset of fine nodes).
  void write_step(std::span<const float> fine_node_data);

  // Finalize meta.bin (call once after the last step).
  void finish();

  const mesh::HexMesh& level_mesh(int level) const;
  const DatasetMeta& meta() const { return meta_; }

 private:
  std::string dir_;
  const mesh::HexMesh& fine_;
  DatasetMeta meta_;
  // Meshes for coarser levels; the finest level aliases `fine_`.
  std::map<int, std::unique_ptr<mesh::HexMesh>> coarse_meshes_;
  // Per coarse level: node id in the fine mesh for each coarse node.
  std::map<int, std::vector<mesh::NodeId>> restriction_;
  int steps_written_ = 0;
};

// Reads the dataset: metadata, octree, derived level meshes (cached), and
// the byte layout needed to build file views.
class DatasetReader {
 public:
  explicit DatasetReader(std::string dir);

  const DatasetMeta& meta() const { return meta_; }
  const mesh::LinearOctree& fine_octree() const { return fine_tree_; }

  // The three level accessors throw std::out_of_range, naming the level
  // and the stored range, for a level outside [coarsest, finest].
  // Lazily built, cached. Thread-compatible only (build before sharing).
  const mesh::HexMesh& level_mesh(int level);

  // Byte offset of level `level`'s node array within a step file.
  std::uint64_t level_offset_bytes(int level) const;
  // Size of level `level`'s node array in bytes.
  std::uint64_t level_bytes(int level) const;
  std::uint64_t node_record_bytes() const {
    return std::uint64_t(meta_.components) * sizeof(float);
  }
  std::string step_path(int step) const;

 private:
  std::size_t level_index(int level) const;  // in meta().level_node_count

  std::string dir_;
  DatasetMeta meta_;
  mesh::LinearOctree fine_tree_;
  std::map<int, std::unique_ptr<mesh::HexMesh>> meshes_;
};

// Serialization helpers shared by writer/reader (exposed for tests).
void write_meta(const std::string& path, const DatasetMeta& meta);
DatasetMeta read_meta(const std::string& path);
void write_octree(const std::string& path, const mesh::LinearOctree& tree);
mesh::LinearOctree read_octree(const std::string& path);

}  // namespace qv::io
