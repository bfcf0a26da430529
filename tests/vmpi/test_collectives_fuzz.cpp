// Property-based fuzz of the vmpi collectives and indexed-block file views.
// Each round draws a random rank count, payload shapes, and values from a
// seeded generator, runs the collective, and checks the result against a
// scalar reference computed outside the communicator. All sums use
// integer-valued doubles so the expected result is exact regardless of
// reduction order. Failing rounds print their seed for replay; QV_FUZZ_SEED
// shifts the whole family (CI runs two seeds).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <vector>

#include "util/rng.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/file.hpp"

namespace qv::vmpi {
namespace {

std::uint64_t base_seed() {
  if (const char* s = std::getenv("QV_FUZZ_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 1;
}

// The per-rank payload is a pure function of (seed, rank), so the scalar
// reference can reconstruct any rank's contribution without communicating.
std::vector<std::uint8_t> blob_for(std::uint64_t seed, int rank) {
  Rng rng(seed ^ (0xb10b0000u + std::uint64_t(rank)));
  std::vector<std::uint8_t> out(1 + rng.next_below(97));
  for (auto& b : out) b = std::uint8_t(rng.next_below(256));
  return out;
}

std::vector<double> doubles_for(std::uint64_t seed, int rank, std::size_t n) {
  Rng rng(seed ^ (0xd0b1e000u + std::uint64_t(rank)));
  std::vector<double> out(n);
  for (auto& v : out) v = double(rng.next_below(1000));
  return out;
}

TEST(CollectivesFuzz, BcastGatherAllgatherMatchScalarReference) {
  const std::uint64_t base = base_seed();
  for (int round = 0; round < 8; ++round) {
    std::uint64_t state = base * 6364136223846793005ULL + std::uint64_t(round);
    std::uint64_t seed = splitmix64(state);
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << " seed " << seed
                 << " (QV_FUZZ_SEED=" << base << ")");
    Rng meta(seed);
    const int nranks = 1 + int(meta.next_below(8));
    const int root = int(meta.next_below(std::uint64_t(nranks)));

    Runtime::run(nranks, [&](Comm& comm) {
      // bcast: everyone converges on the root's blob.
      std::vector<std::uint8_t> buf;
      if (comm.rank() == root) buf = blob_for(seed, root);
      comm.bcast(buf, root);
      EXPECT_EQ(buf, blob_for(seed, root));

      // gather: root sees every rank's blob, in rank order.
      auto mine = blob_for(seed, comm.rank());
      auto gathered = comm.gather(mine, root);
      if (comm.rank() == root) {
        ASSERT_EQ(int(gathered.size()), nranks);
        for (int r = 0; r < nranks; ++r)
          EXPECT_EQ(gathered[std::size_t(r)], blob_for(seed, r)) << "rank " << r;
      }

      // allgather: same contract, everywhere.
      auto all = comm.allgather(mine);
      ASSERT_EQ(int(all.size()), nranks);
      for (int r = 0; r < nranks; ++r)
        EXPECT_EQ(all[std::size_t(r)], blob_for(seed, r)) << "rank " << r;
    });
  }
}

TEST(CollectivesFuzz, AllreduceMatchesScalarReference) {
  const std::uint64_t base = base_seed();
  for (int round = 0; round < 8; ++round) {
    std::uint64_t state = base * 2862933555777941757ULL + std::uint64_t(round);
    std::uint64_t seed = splitmix64(state);
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << " seed " << seed
                 << " (QV_FUZZ_SEED=" << base << ")");
    Rng meta(seed);
    const int nranks = 1 + int(meta.next_below(8));
    const std::size_t len = 1 + meta.next_below(50);

    // Scalar reference: element-wise sum and global max over all ranks.
    std::vector<double> want_sum(len, 0.0);
    double want_max = -1.0;
    for (int r = 0; r < nranks; ++r) {
      auto vals = doubles_for(seed, r, len);
      for (std::size_t i = 0; i < len; ++i) want_sum[i] += vals[i];
      want_max = std::max(want_max, vals[0]);
    }

    Runtime::run(nranks, [&](Comm& comm) {
      auto vals = doubles_for(seed, comm.rank(), len);
      std::vector<double> sum = vals;
      comm.allreduce_sum(sum);
      // Integer-valued summands: the result is exact in any order.
      for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(sum[i], want_sum[i]) << "elem " << i;

      std::vector<float> fsum(len);
      for (std::size_t i = 0; i < len; ++i) fsum[i] = float(vals[i]);
      comm.allreduce_sum_f(fsum);
      for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(fsum[i], float(want_sum[i])) << "elem " << i;

      EXPECT_EQ(comm.allreduce_max(vals[0]), want_max);

      // allgather_value round-trips a trivially-copyable struct.
      struct P { int r; double v; };
      auto ps = comm.allgather_value(P{comm.rank(), vals[0]});
      ASSERT_EQ(int(ps.size()), nranks);
      for (int r = 0; r < nranks; ++r) {
        EXPECT_EQ(ps[std::size_t(r)].r, r);
        EXPECT_EQ(ps[std::size_t(r)].v, doubles_for(seed, r, len)[0]);
      }
    });
  }
}

// A rank's block starts for one round: sorted unique, spaced so blocks never
// cross EOF; then, by a per-rank draw, kept so, shuffled, or shuffled with
// duplicated and unaligned (partly overlapping) starts added. A view plan
// sorts what needs it; read_all relies on its order.
std::vector<std::uint64_t> block_starts(Rng& rng, std::size_t n_elems,
                                        std::size_t block_elems) {
  std::set<std::uint64_t> starts;
  std::size_t nblocks = 1 + rng.next_below(40);
  std::uint64_t limit = (n_elems / block_elems);
  for (std::size_t i = 0; i < nblocks; ++i)
    starts.insert(rng.next_below(limit) * block_elems);
  std::vector<std::uint64_t> offs(starts.begin(), starts.end());
  const std::uint64_t layout = rng.next_below(3);
  if (layout == 2) {
    for (std::size_t i = 0, n = offs.size(); i < n; ++i) {
      if (rng.next_below(3) == 0) offs.push_back(offs[i]);
      if (rng.next_below(3) == 0)
        offs.push_back(rng.next_below(n_elems - block_elems + 1));
    }
  }
  if (layout != 0) {
    for (std::size_t i = offs.size(); i > 1; --i)
      std::swap(offs[i - 1], offs[rng.next_below(i)]);
  }
  return offs;
}

// Indexed-block collective reads: random block offsets per rank (sorted,
// unsorted, duplicated, overlapping), random block widths and sieve
// thresholds, checked against the closed-form file contents (element i
// holds i as a little-endian uint32).
TEST(CollectivesFuzz, IndexedBlockReadAllMatchesDirectRead) {
  const std::uint64_t base = base_seed();
  const std::size_t n_elems = 4096;

  std::string path =
      (std::filesystem::temp_directory_path() /
       ("qv_fuzz_idx.bin." + std::to_string(::getpid())))
          .string();
  {
    std::ofstream os(path, std::ios::binary);
    for (std::uint32_t i = 0; i < n_elems; ++i)
      os.write(reinterpret_cast<const char*>(&i), sizeof(i));
  }

  for (int round = 0; round < 6; ++round) {
    std::uint64_t state = base * 0x9e3779b97f4a7c15ULL + std::uint64_t(round);
    std::uint64_t seed = splitmix64(state);
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << " seed " << seed
                 << " (QV_FUZZ_SEED=" << base << ")");
    Rng meta(seed);
    const int nranks = 1 + int(meta.next_below(6));
    const std::size_t block_elems = 1 + meta.next_below(7);
    const double sieve = meta.next_double();  // exercise both strategies

    Runtime::run(nranks, [&](Comm& comm) {
      Rng rng(seed ^ (0xf11e0000u + std::uint64_t(comm.rank())));
      IndexedBlockView view;
      view.elem_bytes = sizeof(std::uint32_t);
      view.block_elems = block_elems;
      view.block_offsets = block_starts(rng, n_elems, block_elems);

      File f(comm, path);
      f.set_view(view);
      std::vector<std::uint32_t> out(view.block_offsets.size() * block_elems);
      f.read_all({reinterpret_cast<std::uint8_t*>(out.data()),
                  out.size() * sizeof(std::uint32_t)},
                 sieve);

      std::size_t k = 0;
      for (auto start : view.block_offsets)
        for (std::size_t e = 0; e < block_elems; ++e, ++k)
          ASSERT_EQ(out[k], std::uint32_t(start + e))
              << "rank " << comm.rank() << " block@" << start << " elem " << e;
      EXPECT_EQ(f.stats().useful_bytes,
                out.size() * sizeof(std::uint32_t));
    });
  }
  std::remove(path.c_str());
}

// One plan, made once per rank, shared by the Files of several step files
// and read twice from each: every read must give the bytes a direct
// read_at of each block gives.
TEST(CollectivesFuzz, SharedViewPlanReadsEveryFileAlike) {
  const std::uint64_t base = base_seed();
  const std::size_t n_elems = 4096;
  const int kFiles = 3;
  std::vector<std::string> paths;
  for (int f = 0; f < kFiles; ++f) {
    paths.push_back((std::filesystem::temp_directory_path() /
                     ("qv_fuzz_plan" + std::to_string(f) + ".bin." +
                      std::to_string(::getpid())))
                        .string());
    std::ofstream os(paths.back(), std::ios::binary);
    for (std::uint32_t i = 0; i < n_elems; ++i) {
      const std::uint32_t v = i * 2654435761u + std::uint32_t(f);
      os.write(reinterpret_cast<const char*>(&v), sizeof(v));
    }
  }

  for (int round = 0; round < 6; ++round) {
    std::uint64_t state = base * 0xd1342543de82ef95ULL + std::uint64_t(round);
    std::uint64_t seed = splitmix64(state);
    SCOPED_TRACE(::testing::Message()
                 << "round " << round << " seed " << seed
                 << " (QV_FUZZ_SEED=" << base << ")");
    Rng meta(seed);
    const int nranks = 1 + int(meta.next_below(6));
    const std::size_t block_elems = 1 + meta.next_below(7);
    const double sieve = meta.next_double();

    Runtime::run(nranks, [&](Comm& comm) {
      Rng rng(seed ^ (0x91a40000u + std::uint64_t(comm.rank())));
      IndexedBlockView view;
      view.elem_bytes = sizeof(std::uint32_t);
      view.block_elems = block_elems;
      view.block_offsets = block_starts(rng, n_elems, block_elems);
      const auto plan = std::make_shared<const ViewPlan>(view);
      ASSERT_EQ(plan->total_bytes(), view.total_bytes());
      ASSERT_LE(plan->range_count(), view.block_offsets.size());

      for (int f = 0; f < kFiles; ++f) {
        File file(comm, paths[std::size_t(f)]);
        file.set_view(plan);
        std::vector<std::uint8_t> want(view.total_bytes());
        for (std::size_t b = 0; b < view.block_offsets.size(); ++b)
          file.read_at(view.block_offsets[b] * view.elem_bytes,
                       {want.data() + b * view.block_bytes(),
                        view.block_bytes()});
        for (int read = 0; read < 2; ++read) {
          std::vector<std::uint8_t> got(view.total_bytes());
          file.read_all(got, sieve);
          ASSERT_EQ(got, want) << "rank " << comm.rank() << " file " << f
                               << " read " << read;
        }
      }
    });
  }
  for (const auto& p : paths) std::remove(p.c_str());
}

}  // namespace
}  // namespace qv::vmpi
