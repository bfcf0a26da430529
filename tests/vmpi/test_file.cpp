#include "vmpi/file.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/rng.hpp"

namespace qv::vmpi {
namespace {

// A file of `n` float records whose value encodes the index. PID-qualified:
// ctest runs each case as its own process, concurrently, and parameterized
// cases would otherwise write/remove the same path under each other.
std::string make_test_file(std::size_t n, const char* name) {
  std::string path = (std::filesystem::temp_directory_path() /
                      (std::string(name) + "." + std::to_string(::getpid())))
                         .string();
  std::ofstream os(path, std::ios::binary);
  for (std::size_t i = 0; i < n; ++i) {
    float v = float(i) * 0.5f;
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  return path;
}

TEST(File, ReadAtContiguous) {
  auto path = make_test_file(1000, "qv_file_a.bin");
  Runtime::run(3, [&](Comm& comm) {
    File f(comm, path);
    EXPECT_EQ(f.size_bytes(), 4000u);
    // Each rank reads its own third.
    std::size_t per = 1000 / 3;
    std::size_t first = per * std::size_t(comm.rank());
    std::vector<float> buf(per);
    f.read_at(first * 4, {reinterpret_cast<std::uint8_t*>(buf.data()), per * 4});
    for (std::size_t i = 0; i < per; ++i) {
      ASSERT_FLOAT_EQ(buf[i], float(first + i) * 0.5f);
    }
    EXPECT_EQ(f.stats().useful_bytes, per * 4);
  });
  std::remove(path.c_str());
}

TEST(File, OpenMissingFileThrows) {
  Runtime::run(1, [](Comm& comm) {
    EXPECT_THROW(File(comm, "/nonexistent/definitely_missing.bin"),
                 std::runtime_error);
  });
}

TEST(File, CollectiveReadInterleavedBlocks) {
  // Rank r requests every 4th record starting at r: a fully noncontiguous,
  // interleaved pattern; all data together covers the file.
  const std::size_t n = 4096;
  auto path = make_test_file(n, "qv_file_b.bin");
  Runtime::run(4, [&](Comm& comm) {
    File f(comm, path);
    IndexedBlockView view;
    view.elem_bytes = 4;
    view.block_elems = 1;
    for (std::size_t i = std::size_t(comm.rank()); i < n; i += 4) {
      view.block_offsets.push_back(i);
    }
    f.set_view(view);
    std::vector<float> out(view.block_offsets.size());
    f.read_all({reinterpret_cast<std::uint8_t*>(out.data()), out.size() * 4});
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_FLOAT_EQ(out[i], float(comm.rank() + 4 * i) * 0.5f)
          << "rank " << comm.rank() << " i " << i;
    }
  });
  std::remove(path.c_str());
}

TEST(File, CollectiveReadMultiElementBlocks) {
  const std::size_t n = 2000;
  auto path = make_test_file(n, "qv_file_c.bin");
  Runtime::run(3, [&](Comm& comm) {
    File f(comm, path);
    IndexedBlockView view;
    view.elem_bytes = 4;
    view.block_elems = 10;  // blocks of 10 records
    // Rank r takes block starts at 100*r, 100*r+300, ..., deliberately
    // unsorted to exercise the out-of-order mapping.
    std::vector<std::uint64_t> offs = {std::uint64_t(100 * comm.rank() + 600),
                                       std::uint64_t(100 * comm.rank()),
                                       std::uint64_t(100 * comm.rank() + 300)};
    view.block_offsets = offs;
    f.set_view(view);
    std::vector<float> out(30);
    f.read_all({reinterpret_cast<std::uint8_t*>(out.data()), 120});
    for (int b = 0; b < 3; ++b) {
      for (int i = 0; i < 10; ++i) {
        ASSERT_FLOAT_EQ(out[std::size_t(b * 10 + i)],
                        float(offs[std::size_t(b)] + std::uint64_t(i)) * 0.5f);
      }
    }
  });
  std::remove(path.c_str());
}

TEST(File, CollectiveReadWithEmptyParticipant) {
  const std::size_t n = 256;
  auto path = make_test_file(n, "qv_file_d.bin");
  Runtime::run(3, [&](Comm& comm) {
    File f(comm, path);
    IndexedBlockView view;
    view.elem_bytes = 4;
    view.block_elems = 8;
    if (comm.rank() != 1) {  // rank 1 requests nothing
      view.block_offsets = {std::uint64_t(comm.rank() * 64),
                            std::uint64_t(comm.rank() * 64 + 16)};
    }
    f.set_view(view);
    std::vector<std::uint8_t> out(view.total_bytes());
    f.read_all(out);
    if (comm.rank() != 1) {
      const float* vals = reinterpret_cast<const float*>(out.data());
      ASSERT_FLOAT_EQ(vals[0], float(comm.rank() * 64) * 0.5f);
      ASSERT_FLOAT_EQ(vals[8], float(comm.rank() * 64 + 16) * 0.5f);
    }
  });
  std::remove(path.c_str());
}

TEST(File, CollectiveReadNothingAnywhere) {
  auto path = make_test_file(16, "qv_file_e.bin");
  Runtime::run(2, [&](Comm& comm) {
    File f(comm, path);
    f.set_view({4, 1, {}});
    std::vector<std::uint8_t> out;
    f.read_all(out);  // must complete without deadlock
  });
  std::remove(path.c_str());
}

// A plan coalesces blocks adjacent in both the file and the buffer, so a
// view whose sorted blocks tile one span is one range however many blocks
// it has; out-of-order or repeated blocks split it.
TEST(File, ViewPlanCoalescesAdjacentBlocks) {
  const auto ranges = [](std::vector<std::uint64_t> offs) {
    return ViewPlan(IndexedBlockView{4, 2, std::move(offs)}).range_count();
  };
  std::vector<std::uint64_t> tiled;
  for (std::uint64_t b = 0; b < 1000; ++b) tiled.push_back(10 + 2 * b);
  EXPECT_EQ(ranges(tiled), 1u);
  EXPECT_EQ(ranges({6, 0, 2, 4}), 2u);  // [0, 6) then [6, 8)
  EXPECT_EQ(ranges({0, 0}), 2u);
  EXPECT_EQ(ranges({0, 4}), 2u);
  EXPECT_EQ(ranges({}), 0u);
  EXPECT_EQ(ViewPlan(IndexedBlockView{4, 2, tiled}).total_bytes(),
            tiled.size() * 8);
}

class SieveTest : public ::testing::TestWithParam<double> {};

TEST_P(SieveTest, ResultsIdenticalAcrossSieveThresholds) {
  // The sieving heuristic must never change WHAT is read, only how.
  const std::size_t n = 3000;
  auto path = make_test_file(n, "qv_file_f.bin");
  const double threshold = GetParam();
  Runtime::run(4, [&](Comm& comm) {
    Rng rng(std::uint64_t(comm.rank()) * 13 + 7);
    File f(comm, path);
    IndexedBlockView view;
    view.elem_bytes = 4;
    view.block_elems = 5;
    for (int i = 0; i < 40; ++i) {
      view.block_offsets.push_back(rng.next_below(n - 5));
    }
    f.set_view(view);
    std::vector<float> out(view.block_offsets.size() * 5);
    f.read_all({reinterpret_cast<std::uint8_t*>(out.data()), out.size() * 4},
               threshold);
    for (std::size_t b = 0; b < view.block_offsets.size(); ++b) {
      for (std::size_t i = 0; i < 5; ++i) {
        ASSERT_FLOAT_EQ(out[b * 5 + i],
                        float(view.block_offsets[b] + i) * 0.5f);
      }
    }
  });
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SieveTest,
                         ::testing::Values(0.0, 0.35, 0.9, 1.0));

TEST(File, StatsDistinguishSievingFromSparseReads) {
  const std::size_t n = 100000;
  auto path = make_test_file(n, "qv_file_g.bin");
  Runtime::run(1, [&](Comm& comm) {
    // Sparse pattern: two tiny blocks very far apart.
    IndexedBlockView view{4, 4, {0, n - 4}};
    {
      File f(comm, path);
      f.set_view(view);
      std::vector<std::uint8_t> out(view.total_bytes());
      f.read_all(out, /*sieve_threshold=*/0.9);  // too sparse: 2 small reads
      EXPECT_EQ(f.stats().disk_reads, 2u);
      EXPECT_EQ(f.stats().disk_bytes, 32u);
    }
    {
      File f(comm, path);
      f.set_view(view);
      std::vector<std::uint8_t> out(view.total_bytes());
      f.read_all(out, /*sieve_threshold=*/0.0);  // forced single sieve read
      EXPECT_EQ(f.stats().disk_reads, 1u);
      EXPECT_EQ(f.stats().disk_bytes, std::uint64_t(n) * 4);
    }
  });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qv::vmpi
