// vmpi file I/O: the MPI-IO subset the paper's pipeline uses (§5.3).
//
//  * IndexedBlockView  — MPI_Type_create_indexed_block: fixed-size element
//    blocks at arbitrary element offsets, describing one reading pattern.
//  * ViewPlan          — such a view planned once: its blocks as byte ranges,
//    sorted by file offset and coalesced. Files of several steps share it.
//  * File::set_view    — MPI_File_set_view with such a type.
//  * File::read_all    — MPI_File_read_all: a collective two-phase read.
//    Phase 1 partitions the requested byte span into per-rank chunks; each
//    rank performs *data sieving* (one large contiguous read covering its
//    chunk's requested ranges, holes included, when dense enough). Phase 2
//    redistributes the pieces to the ranks whose views requested them.
//  * File::read_at     — independent contiguous read (strategy §5.3.2).
//
// Statistics counters expose bytes-from-disk vs. bytes-exchanged so the
// benches can compare the two reading strategies quantitatively.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "io/retry.hpp"
#include "vmpi/comm.hpp"

namespace qv::vmpi {

// Analog of MPI_Type_create_indexed_block over a file of fixed-size elements.
struct IndexedBlockView {
  std::size_t elem_bytes = 1;               // bytes per element
  std::size_t block_elems = 1;              // elements per block
  std::vector<std::uint64_t> block_offsets; // block starts, in elements

  std::size_t block_bytes() const { return elem_bytes * block_elems; }
  std::size_t total_bytes() const { return block_bytes() * block_offsets.size(); }
};

// The read plan of one view, built once: its blocks as byte ranges, sorted
// by file offset (unsorted or overlapping offsets are legal; they are sorted
// here, and only when they are not already) and coalesced where adjacent in
// both the file and the caller's buffer. A collective read reads the plan,
// so it does no work per view block, and Files opened on the successive
// step files of one layout share one plan.
class ViewPlan {
 public:
  explicit ViewPlan(const IndexedBlockView& view);

  std::size_t total_bytes() const { return total_bytes_; }
  // Coalesced ranges: 1 for a view whose blocks tile one span.
  std::size_t range_count() const { return ranges_.size(); }

 private:
  friend class File;
  struct Extent {
    std::uint64_t begin = 0;  // absolute file offset
    std::uint64_t end = 0;
  };
  std::vector<Extent> ranges_;           // sorted by begin
  std::vector<std::uint64_t> out_;       // each range's place in the buffer
  std::size_t total_bytes_ = 0;
};

class File {
 public:
  struct IoStats {
    std::uint64_t disk_bytes = 0;      // bytes actually read from disk
    std::uint64_t useful_bytes = 0;    // bytes the caller asked for
    std::uint64_t exchanged_bytes = 0; // bytes moved between ranks (phase 2)
    std::uint64_t disk_reads = 0;      // number of pread calls
    std::uint64_t retries = 0;         // transient-failure retries performed
    std::uint64_t short_reads = 0;     // partial preads continued by the loop
  };

  // Open for reading. Every rank of `comm` that will participate in
  // read_all must open the file with the same communicator.
  // Throws std::runtime_error when the file cannot be opened.
  File(Comm& comm, const std::string& path);
  ~File();
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  std::uint64_t size_bytes() const { return size_; }

  // Plan `view` for this file, or share a plan made once for several.
  void set_view(const IndexedBlockView& view);
  void set_view(std::shared_ptr<const ViewPlan> plan);

  // Retry policy applied per pread attempt. Retrying at the pread level (not
  // around whole reads) keeps transient failures *inside* collective
  // read_all calls, so a group never desynchronizes while one member
  // retries.
  void set_retry_policy(io::RetryPolicy policy) { retry_ = policy; }
  const io::RetryPolicy& retry_policy() const { return retry_; }

  // Independent contiguous read at an absolute byte offset.
  void read_at(std::uint64_t offset, std::span<std::uint8_t> out);

  // Collective noncontiguous read: all ranks of the communicator must call.
  // Fills `out` with this rank's view blocks concatenated in view order.
  // `out.size()` must equal the view's total_bytes().
  // `sieve_threshold`: fraction of useful bytes within a covering extent
  // above which one large sieving read replaces many small reads.
  void read_all(std::span<std::uint8_t> out, double sieve_threshold = 0.35);

  const IoStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  // One logical read: retried per retry_ on TransientIoError; throws IoError
  // once attempts are exhausted. Fault-plan injections happen here.
  void pread_exact(std::uint64_t offset, std::span<std::uint8_t> out);
  void pread_attempt(std::uint64_t offset, std::span<std::uint8_t> out,
                     std::uint64_t op, int attempt);

  Comm* comm_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::string path_;
  std::shared_ptr<const ViewPlan> plan_;
  IoStats stats_;
  io::RetryPolicy retry_;
};

}  // namespace qv::vmpi
