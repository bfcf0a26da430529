#include "io/dataset.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace qv::io {

namespace {

constexpr char kMetaMagic[8] = {'Q', 'V', 'D', 'A', 'T', 'A', '1', '\0'};

template <typename T>
void put(std::ofstream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::ifstream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  return v;
}

}  // namespace

void write_meta(const std::string& path, const DatasetMeta& meta) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("dataset: cannot write " + path);
  os.write(kMetaMagic, sizeof(kMetaMagic));
  put(os, meta.domain.lo);
  put(os, meta.domain.hi);
  put(os, std::int32_t(meta.coarsest_level));
  put(os, std::int32_t(meta.finest_level));
  put(os, std::int32_t(meta.components));
  put(os, std::int32_t(meta.num_steps));
  put(os, meta.step_dt);
  for (auto n : meta.level_node_count) put(os, n);
  if (!os) throw std::runtime_error("dataset: write failed " + path);
}

DatasetMeta read_meta(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("dataset: cannot read " + path);
  char magic[8];
  is.read(magic, sizeof(magic));
  if (std::memcmp(magic, kMetaMagic, sizeof(magic)) != 0)
    throw std::runtime_error("dataset: bad magic in " + path);
  DatasetMeta m;
  m.domain.lo = get<Vec3>(is);
  m.domain.hi = get<Vec3>(is);
  m.coarsest_level = get<std::int32_t>(is);
  m.finest_level = get<std::int32_t>(is);
  m.components = get<std::int32_t>(is);
  m.num_steps = get<std::int32_t>(is);
  m.step_dt = get<float>(is);
  if (m.finest_level < m.coarsest_level)
    throw std::runtime_error("dataset: inverted level range " +
                             std::to_string(m.coarsest_level) + ".." +
                             std::to_string(m.finest_level) + " in " + path);
  m.level_node_count.resize(std::size_t(m.finest_level - m.coarsest_level + 1));
  for (auto& n : m.level_node_count) n = get<std::uint64_t>(is);
  if (!is) throw std::runtime_error("dataset: truncated meta " + path);
  return m;
}

void write_octree(const std::string& path, const mesh::LinearOctree& tree) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("dataset: cannot write " + path);
  put(os, tree.domain().lo);
  put(os, tree.domain().hi);
  put(os, std::uint64_t(tree.leaf_count()));
  for (const auto& k : tree.leaves()) {
    put(os, k.x);
    put(os, k.y);
    put(os, k.z);
    put(os, std::uint32_t(k.level));
  }
  if (!os) throw std::runtime_error("dataset: write failed " + path);
}

mesh::LinearOctree read_octree(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("dataset: cannot read " + path);
  Box3 dom;
  dom.lo = get<Vec3>(is);
  dom.hi = get<Vec3>(is);
  auto count = get<std::uint64_t>(is);
  // Rebuild through the uniform constructor path: collect keys, then clip
  // to themselves via a clipped() no-op. LinearOctree lacks a raw-key
  // constructor by design, so we reconstruct via its public builder.
  std::vector<mesh::OctKey> keys(count);
  for (auto& k : keys) {
    k.x = get<std::uint32_t>(is);
    k.y = get<std::uint32_t>(is);
    k.z = get<std::uint32_t>(is);
    k.level = std::uint8_t(get<std::uint32_t>(is));
  }
  if (!is) throw std::runtime_error("dataset: truncated octree " + path);
  return mesh::LinearOctree::from_leaves(dom, std::move(keys));
}

DatasetWriter::DatasetWriter(std::string dir, const mesh::HexMesh& fine,
                             int coarsest_level, int components, float step_dt)
    : dir_(std::move(dir)), fine_(fine) {
  if (fine.octree().max_leaf_level() < coarsest_level)
    throw std::invalid_argument(
        "dataset: the mesh's finest level " +
        std::to_string(fine.octree().max_leaf_level()) +
        " is below the coarsest stored level " +
        std::to_string(coarsest_level));
  meta_.domain = fine.domain();
  meta_.coarsest_level = coarsest_level;
  meta_.finest_level = fine.octree().max_leaf_level();
  meta_.components = components;
  meta_.step_dt = step_dt;

  for (int level = coarsest_level; level < meta_.finest_level; ++level) {
    auto m = std::make_unique<mesh::HexMesh>(fine.octree().clipped(level));
    // Restriction map: every coarse node's grid coords exist in the fine
    // mesh (octant corners are corners of descendant leaves).
    std::vector<mesh::NodeId> restrict_ids(m->node_count());
    auto coords = m->node_grid_coords();
    for (std::size_t i = 0; i < coords.size(); ++i) {
      auto id = fine.find_node(coords[i]);
      if (id < 0)
        throw std::runtime_error("dataset: coarse node missing from fine mesh");
      restrict_ids[i] = mesh::NodeId(id);
    }
    restriction_[level] = std::move(restrict_ids);
    meta_.level_node_count.push_back(m->node_count());
    coarse_meshes_[level] = std::move(m);
  }
  meta_.level_node_count.push_back(fine.node_count());

  write_octree(dir_ + "/octree.bin", fine.octree());
}

const mesh::HexMesh& DatasetWriter::level_mesh(int level) const {
  if (level >= meta_.finest_level) return fine_;
  return *coarse_meshes_.at(level);
}

void DatasetWriter::write_step(std::span<const float> fine_node_data) {
  const std::size_t comps = std::size_t(meta_.components);
  if (fine_node_data.size() != fine_.node_count() * comps)
    throw std::runtime_error("dataset: step data size mismatch");

  char name[32];
  std::snprintf(name, sizeof(name), "/step_%04d.bin", steps_written_);
  std::ofstream os(dir_ + name, std::ios::binary);
  if (!os) throw std::runtime_error("dataset: cannot write step file");

  std::vector<float> coarse;
  for (int level = meta_.coarsest_level; level < meta_.finest_level; ++level) {
    const auto& ids = restriction_.at(level);
    coarse.resize(ids.size() * comps);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (std::size_t c = 0; c < comps; ++c) {
        coarse[i * comps + c] = fine_node_data[std::size_t(ids[i]) * comps + c];
      }
    }
    os.write(reinterpret_cast<const char*>(coarse.data()),
             std::streamsize(coarse.size() * sizeof(float)));
  }
  os.write(reinterpret_cast<const char*>(fine_node_data.data()),
           std::streamsize(fine_node_data.size_bytes()));
  if (!os) throw std::runtime_error("dataset: step write failed");
  ++steps_written_;
}

void DatasetWriter::finish() {
  meta_.num_steps = steps_written_;
  write_meta(dir_ + "/meta.bin", meta_);
}

DatasetReader::DatasetReader(std::string dir) : dir_(std::move(dir)) {
  meta_ = read_meta(dir_ + "/meta.bin");
  fine_tree_ = read_octree(dir_ + "/octree.bin");
}

std::size_t DatasetReader::level_index(int level) const {
  if (level < meta_.coarsest_level || level > meta_.finest_level)
    throw std::out_of_range("dataset: level " + std::to_string(level) +
                            " is outside the stored levels " +
                            std::to_string(meta_.coarsest_level) + ".." +
                            std::to_string(meta_.finest_level));
  return std::size_t(level - meta_.coarsest_level);
}

const mesh::HexMesh& DatasetReader::level_mesh(int level) {
  level_index(level);
  auto it = meshes_.find(level);
  if (it == meshes_.end()) {
    auto m = std::make_unique<mesh::HexMesh>(
        level == meta_.finest_level ? fine_tree_ : fine_tree_.clipped(level));
    it = meshes_.emplace(level, std::move(m)).first;
  }
  return *it->second;
}

std::uint64_t DatasetReader::level_offset_bytes(int level) const {
  std::uint64_t off = 0;
  for (std::size_t i = 0; i < level_index(level); ++i)
    off += meta_.level_node_count[i] * node_record_bytes();
  return off;
}

std::uint64_t DatasetReader::level_bytes(int level) const {
  return meta_.level_node_count[level_index(level)] * node_record_bytes();
}

std::string DatasetReader::step_path(int step) const {
  char name[32];
  std::snprintf(name, sizeof(name), "/step_%04d.bin", step);
  return dir_ + name;
}

}  // namespace qv::io
