#include "io/dataset.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>

#include "quake/synthetic.hpp"
#include "util/rng.hpp"

namespace qv::io {
namespace {

const Box3 kUnit{{0, 0, 0}, {1, 1, 1}};

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const char* name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string str() const { return path.string(); }
};

mesh::HexMesh small_mesh() {
  auto size = [](Vec3 p) { return p.z > 0.6f ? 0.1f : 0.35f; };
  return mesh::HexMesh(mesh::LinearOctree::build(kUnit, size, 1, 4));
}

TEST(DatasetMeta, RoundTrip) {
  TempDir dir("qv_ds_meta");
  DatasetMeta m;
  m.domain = {{-1, -2, -3}, {4, 5, 6}};
  m.coarsest_level = 2;
  m.finest_level = 5;
  m.components = 3;
  m.num_steps = 17;
  m.step_dt = 0.25f;
  m.level_node_count = {10, 20, 30, 40};
  write_meta(dir.str() + "/meta.bin", m);
  DatasetMeta r = read_meta(dir.str() + "/meta.bin");
  EXPECT_EQ(r.coarsest_level, 2);
  EXPECT_EQ(r.finest_level, 5);
  EXPECT_EQ(r.components, 3);
  EXPECT_EQ(r.num_steps, 17);
  EXPECT_FLOAT_EQ(r.step_dt, 0.25f);
  EXPECT_EQ(r.level_node_count, m.level_node_count);
  EXPECT_FLOAT_EQ(r.domain.hi.z, 6);
}

TEST(DatasetMeta, RejectsBadMagic) {
  TempDir dir("qv_ds_magic");
  {
    std::ofstream os(dir.str() + "/meta.bin", std::ios::binary);
    os << "GARBAGEGARBAGE";
  }
  EXPECT_THROW(read_meta(dir.str() + "/meta.bin"), std::runtime_error);
}

// finest < coarsest would size the level table by a negative count.
TEST(DatasetMeta, RejectsAnInvertedLevelRange) {
  TempDir dir("qv_ds_inverted");
  DatasetMeta m;
  m.coarsest_level = 2;
  m.finest_level = 1;
  write_meta(dir.str() + "/meta.bin", m);
  EXPECT_THROW(read_meta(dir.str() + "/meta.bin"), std::runtime_error);
}

TEST(DatasetOctree, RoundTrip) {
  TempDir dir("qv_ds_oct");
  auto mesh = small_mesh();
  write_octree(dir.str() + "/octree.bin", mesh.octree());
  auto tree = read_octree(dir.str() + "/octree.bin");
  ASSERT_EQ(tree.leaf_count(), mesh.octree().leaf_count());
  for (std::size_t i = 0; i < tree.leaf_count(); ++i) {
    EXPECT_EQ(tree.leaves()[i], mesh.octree().leaves()[i]);
  }
}

TEST(Dataset, WriteReadFullCycle) {
  TempDir dir("qv_ds_cycle");
  auto fine = small_mesh();
  const int coarsest = 2;
  DatasetWriter writer(dir.str(), fine, coarsest, 3, 0.1f);

  quake::SyntheticQuake quake;
  const int steps = 3;
  for (int s = 0; s < steps; ++s) {
    writer.write_step(quake.sample_nodes(fine, float(s) * 0.5f));
  }
  writer.finish();

  DatasetReader reader(dir.str());
  EXPECT_EQ(reader.meta().num_steps, steps);
  EXPECT_EQ(reader.meta().components, 3);
  EXPECT_EQ(reader.meta().finest_level, fine.octree().max_leaf_level());
  EXPECT_EQ(reader.meta().coarsest_level, coarsest);

  // Reader's level meshes agree with the writer's.
  for (int level = coarsest; level <= reader.meta().finest_level; ++level) {
    const auto& rm = reader.level_mesh(level);
    const auto& wm = writer.level_mesh(level);
    EXPECT_EQ(rm.node_count(), wm.node_count()) << "level " << level;
    EXPECT_EQ(rm.cell_count(), wm.cell_count());
    EXPECT_EQ(rm.node_count(),
              reader.meta().level_node_count[std::size_t(level - coarsest)]);
  }

  // Byte layout: offsets are cumulative, total matches the file size.
  std::uint64_t expect_off = 0;
  for (int level = coarsest; level <= reader.meta().finest_level; ++level) {
    EXPECT_EQ(reader.level_offset_bytes(level), expect_off);
    expect_off += reader.level_bytes(level);
  }
  EXPECT_EQ(std::filesystem::file_size(reader.step_path(0)), expect_off);
}

TEST(Dataset, CoarseLevelsAreNodalRestrictions) {
  TempDir dir("qv_ds_restrict");
  auto fine = small_mesh();
  DatasetWriter writer(dir.str(), fine, 2, 3, 0.1f);
  quake::SyntheticQuake quake;
  auto data = quake.sample_nodes(fine, 1.0f);
  writer.write_step(data);
  writer.finish();

  DatasetReader reader(dir.str());
  const int level = 2;
  const auto& cm = reader.level_mesh(level);
  // Load the level array from the step file directly.
  std::ifstream is(reader.step_path(0), std::ios::binary);
  is.seekg(std::streamoff(reader.level_offset_bytes(level)));
  std::vector<float> coarse(reader.level_bytes(level) / 4);
  is.read(reinterpret_cast<char*>(coarse.data()),
          std::streamsize(coarse.size() * 4));
  ASSERT_TRUE(bool(is));

  // Every coarse node's value equals the fine node value at the same grid
  // coordinates (restriction, not interpolation).
  auto coords = cm.node_grid_coords();
  for (std::size_t n = 0; n < cm.node_count(); ++n) {
    auto fid = fine.find_node(coords[n]);
    ASSERT_GE(fid, 0);
    for (int c = 0; c < 3; ++c) {
      ASSERT_FLOAT_EQ(coarse[n * 3 + std::size_t(c)],
                      data[std::size_t(fid) * 3 + std::size_t(c)]);
    }
  }
}

TEST(Dataset, StepSizeMismatchThrows) {
  TempDir dir("qv_ds_bad");
  auto fine = small_mesh();
  DatasetWriter writer(dir.str(), fine, 2, 3, 0.1f);
  std::vector<float> wrong(10);
  EXPECT_THROW(writer.write_step(wrong), std::runtime_error);
}

// A mesh whose finest level is below the coarsest stored level has no
// level to store.
TEST(Dataset, WriterRejectsAMeshCoarserThanTheCoarsestLevel) {
  TempDir dir("qv_ds_coarse");
  mesh::HexMesh coarse(mesh::LinearOctree::uniform(kUnit, 1));
  EXPECT_THROW(DatasetWriter(dir.str(), coarse, 2, 3, 0.1f),
               std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(dir.path / "meta.bin"));
}

// A level the dataset does not store has no entry in level_node_count:
// every level accessor refuses it, naming the level and the stored range.
TEST(Dataset, ReaderRejectsLevelsOutsideTheStoredRange) {
  TempDir dir("qv_ds_levels");
  auto fine = small_mesh();
  DatasetWriter writer(dir.str(), fine, 2, 3, 0.1f);
  writer.write_step(quake::SyntheticQuake{}.sample_nodes(fine, 1.0f));
  writer.finish();

  DatasetReader reader(dir.str());
  const int finest = reader.meta().finest_level;
  const std::string range = "levels 2.." + std::to_string(finest);
  for (int level : {1, finest + 1}) {
    const std::vector<std::function<void()>> calls = {
        [&] { (void)reader.level_mesh(level); },
        [&] { (void)reader.level_bytes(level); },
        [&] { (void)reader.level_offset_bytes(level); }};
    for (const auto& call : calls) {
      try {
        call();
        ADD_FAILURE() << "level " << level << " was accepted";
      } catch (const std::out_of_range& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("level " + std::to_string(level)),
                  std::string::npos) << what;
        EXPECT_NE(what.find(range), std::string::npos) << what;
      }
    }
  }
  // Both ends of the stored range stay readable.
  EXPECT_EQ(reader.level_offset_bytes(2), 0u);
  EXPECT_EQ(reader.level_mesh(finest).node_count(), fine.node_count());
}

TEST(Dataset, MissingDirectoryThrows) {
  EXPECT_THROW(DatasetReader("/nonexistent/qv_nowhere"), std::runtime_error);
}

}  // namespace
}  // namespace qv::io
