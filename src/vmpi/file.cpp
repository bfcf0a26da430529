#include "vmpi/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace qv::vmpi {

namespace {
constexpr int kTagFileData = -200;

// Global file-I/O counters; they mirror the per-file IoStats increments so
// run reports see whole-process I/O without plumbing stats structs around.
metrics::Counter& io_disk_bytes() { static auto& c = metrics::counter("io.disk_bytes"); return c; }
metrics::Counter& io_disk_reads() { static auto& c = metrics::counter("io.disk_reads"); return c; }
metrics::Counter& io_useful_bytes() { static auto& c = metrics::counter("io.useful_bytes"); return c; }
metrics::Counter& io_exchanged_bytes() { static auto& c = metrics::counter("io.exchanged_bytes"); return c; }
metrics::Counter& io_retries() { static auto& c = metrics::counter("io.retries"); return c; }
metrics::Counter& io_short_reads() { static auto& c = metrics::counter("io.short_reads"); return c; }
}  // namespace

ViewPlan::ViewPlan(const IndexedBlockView& view)
    : total_bytes_(view.total_bytes()) {
  const std::uint64_t bb = view.block_bytes();
  const auto& offs = view.block_offsets;
  // Visit the blocks by file offset: in view order when that is sorted
  // already (the block node lists are), else through a sorted copy.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted;  // (begin, out)
  const bool in_order = std::is_sorted(offs.begin(), offs.end());
  if (!in_order) {
    sorted.reserve(offs.size());
    for (std::size_t i = 0; i < offs.size(); ++i)
      sorted.emplace_back(offs[i] * view.elem_bytes, i * bb);
    std::sort(sorted.begin(), sorted.end());
  }
  // Coalesce blocks adjacent in both the file and the output buffer.
  for (std::size_t i = 0; i < offs.size(); ++i) {
    const std::uint64_t b = in_order ? offs[i] * view.elem_bytes : sorted[i].first;
    const std::uint64_t out = in_order ? i * bb : sorted[i].second;
    if (!ranges_.empty() && ranges_.back().end == b &&
        out_.back() + (ranges_.back().end - ranges_.back().begin) == out) {
      ranges_.back().end = b + bb;
    } else {
      ranges_.push_back({b, b + bb});
      out_.push_back(out);
    }
  }
}

File::File(Comm& comm, const std::string& path) : comm_(&comm), path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) throw std::runtime_error("vmpi::File: cannot open " + path);
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    throw std::runtime_error("vmpi::File: cannot stat " + path);
  }
  size_ = std::uint64_t(st.st_size);
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

void File::set_view(const IndexedBlockView& view) {
  plan_ = std::make_shared<const ViewPlan>(view);
}

void File::set_view(std::shared_ptr<const ViewPlan> plan) {
  plan_ = std::move(plan);
}

// One pread attempt, with fault-plan injections: a transient error throws
// before any bytes move; a short read delivers a strict prefix (the caller's
// loop continues it, which is exactly the path being exercised).
void File::pread_attempt(std::uint64_t offset, std::span<std::uint8_t> out,
                         std::uint64_t op, int attempt) {
  detail::FaultRankState* fs = comm_->fault_state();
  const FaultPlan* plan = fs ? comm_->world_->fault_plan.get() : nullptr;
  std::size_t want = out.size();
  if (plan && plan->wants_io_faults()) {
    if (plan->read_delay_ms > 0.0) {
      // Slow-disk model: latency first, then the attempt may still fail.
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(plan->read_delay_ms));
    }
    if (plan->path_fails(path_)) {
      throw TransientIoError("vmpi::File: injected failure (failing path) " +
                             path_);
    }
    double u_err = fs->io_rng.next_double();
    double u_short = fs->io_rng.next_double();
    bool explicit_hit =
        attempt == 0 &&
        FaultPlan::matches(plan->read_errors, comm_->world_rank(), op);
    if (explicit_hit ||
        (plan->read_error_rate > 0.0 && u_err < plan->read_error_rate)) {
      ++fs->injected_read_errors;
      throw TransientIoError("vmpi::File: injected transient read error at " +
                             path_ + " offset " + std::to_string(offset));
    }
    if (plan->short_read_rate > 0.0 && u_short < plan->short_read_rate &&
        want > 1) {
      want = (want + 1) / 2;  // deliver a strict prefix this syscall
      ++fs->injected_short_reads;
      ++stats_.short_reads;
      io_short_reads().add();
    }
  }
  std::size_t done = 0;
  while (done < out.size()) {
    ssize_t n = ::pread(fd_, out.data() + done, want - done, off_t(offset + done));
    if (n <= 0)
      throw TransientIoError("vmpi::File: pread failed/short at " + path_);
    done += std::size_t(n);
    if (done < out.size() && want < out.size()) {
      // The injected prefix is delivered; the rest of this attempt reads
      // normally (a real short read looks the same to the caller).
      want = out.size();
      stats_.disk_reads += 1;
      io_disk_reads().add();
    }
  }
  stats_.disk_bytes += out.size();
  stats_.disk_reads += 1;
  io_disk_bytes().add(out.size());
  io_disk_reads().add();
}

void File::pread_exact(std::uint64_t offset, std::span<std::uint8_t> out) {
  trace::Span tsp("vmpi", "pread", std::int64_t(out.size()));
  detail::FaultRankState* fs = comm_->fault_state();
  std::uint64_t op = fs ? fs->preads++ : 0;
  for (int attempt = 0;; ++attempt) {
    try {
      pread_attempt(offset, out, op, attempt);
      return;
    } catch (const TransientIoError&) {
      if (attempt + 1 >= retry_.max_attempts) {
        throw IoError("vmpi::File: read of " + path_ + " failed after " +
                      std::to_string(retry_.max_attempts) + " attempts");
      }
      ++stats_.retries;
      io_retries().add();
      std::this_thread::sleep_for(retry_.delay_for(attempt));
    }
  }
}

void File::read_at(std::uint64_t offset, std::span<std::uint8_t> out) {
  pread_exact(offset, out);
  stats_.useful_bytes += out.size();
  io_useful_bytes().add(out.size());
}

void File::read_all(std::span<std::uint8_t> out, double sieve_threshold) {
  trace::Span tsp("vmpi", "read_all", std::int64_t(out.size()));
  static const ViewPlan kNoView(IndexedBlockView{});
  const ViewPlan& plan = plan_ ? *plan_ : kNoView;
  if (out.size() != plan.total_bytes())
    throw std::runtime_error("vmpi::File::read_all: buffer size != view size");
  using WireRange = ViewPlan::Extent;
  const int P = comm_->size();
  const int me = comm_->rank();

  stats_.useful_bytes += out.size();
  io_useful_bytes().add(out.size());

  // Exchange (begin, end) lists so every rank knows every request.
  auto all_blobs = comm_->allgather(
      {reinterpret_cast<const std::uint8_t*>(plan.ranges_.data()),
       plan.ranges_.size() * sizeof(WireRange)});
  std::vector<std::vector<WireRange>> all_ranges(static_cast<std::size_t>(P));
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (int r = 0; r < P; ++r) {
    const auto& b = all_blobs[std::size_t(r)];
    auto& v = all_ranges[std::size_t(r)];
    v.resize(b.size() / sizeof(WireRange));
    if (!b.empty()) std::memcpy(v.data(), b.data(), b.size());  // a rank may ask nothing
    for (const auto& w : v) {
      lo = std::min(lo, w.begin);
      hi = std::max(hi, w.end);
    }
  }
  if (hi <= lo) {
    // Nothing requested anywhere; still complete the collective.
    for (int r = 0; r < P; ++r) comm_->send(r, kTagFileData, {});
    for (int r = 0; r < P; ++r) {
      std::vector<std::uint8_t> ignore;
      comm_->recv(r, kTagFileData, ignore);
    }
    return;
  }

  // Phase-one chunk ownership: contiguous, equal byte spans.
  const std::uint64_t span = hi - lo;
  const std::uint64_t chunk = (span + std::uint64_t(P) - 1) / std::uint64_t(P);
  const std::uint64_t my_lo = lo + chunk * std::uint64_t(me);
  const std::uint64_t my_hi = std::min(hi, my_lo + chunk);

  // Union of requested ranges within my chunk, merged.
  std::vector<WireRange> needed;
  for (const auto& v : all_ranges) {
    for (const auto& w : v) {
      std::uint64_t b = std::max(w.begin, my_lo);
      std::uint64_t e = std::min(w.end, my_hi);
      if (b < e) needed.push_back({b, e});
    }
  }
  std::sort(needed.begin(), needed.end(),
            [](const WireRange& a, const WireRange& b) { return a.begin < b.begin; });
  std::vector<WireRange> covered;
  for (const auto& w : needed) {
    if (!covered.empty() && w.begin <= covered.back().end) {
      covered.back().end = std::max(covered.back().end, w.end);
    } else {
      covered.push_back(w);
    }
  }

  // Read my chunk's data: one sieving read when dense enough. A permanent
  // read failure here must not desynchronize the collective: every rank
  // agrees on success/failure below before any phase-two traffic moves.
  std::vector<std::uint8_t> chunk_buf;
  std::uint64_t chunk_base = 0;
  bool have_extent = false;
  std::vector<std::uint64_t> compact_at;  // sparse: covered[k]'s buffer offset
  std::uint8_t read_ok = 1;
  try {
    if (!covered.empty()) {
      std::uint64_t useful = 0;
      for (const auto& w : covered) useful += w.end - w.begin;
      std::uint64_t ext_lo = covered.front().begin;
      std::uint64_t ext_hi = covered.back().end;
      double density = double(useful) / double(ext_hi - ext_lo);
      if (density >= sieve_threshold) {
        chunk_buf.resize(ext_hi - ext_lo);
        pread_exact(ext_lo, chunk_buf);
        chunk_base = ext_lo;
        have_extent = true;
      } else {
        // Sparse: read ranges individually into a compacted buffer, noting
        // where each lands so extraction below can still find them.
        chunk_buf.resize(useful);
        std::uint64_t off = 0;
        for (const auto& w : covered) {
          pread_exact(w.begin, {chunk_buf.data() + off, w.end - w.begin});
          compact_at.push_back(off);
          off += w.end - w.begin;
        }
      }
    }
  } catch (const IoError&) {
    read_ok = 0;
  }

  // Collective abort: if any chunk owner failed its reads (after retries),
  // every rank throws together and nobody is left waiting for pieces.
  auto ok_blobs = comm_->allgather({&read_ok, 1});
  for (const auto& b : ok_blobs) {
    if (!b.empty() && b[0] == 0) {
      throw IoError("vmpi::File::read_all: collective read of " + path_ +
                    " aborted (a rank's chunk read failed permanently)");
    }
  }

  // Byte accessor into what we read. A rank's pieces come in file order (a
  // plan's ranges are sorted), so in the compacted layout each rank's
  // lookups walk `covered` forward from the extent of its previous piece:
  // `k`, reset per rank.
  std::size_t k = 0;
  auto fetch = [&](std::uint64_t abs_b, std::uint64_t abs_e,
                   std::vector<std::uint8_t>& dst) {
    std::uint64_t rel = abs_b - chunk_base;
    if (!have_extent) {
      while (k < covered.size() && covered[k].end < abs_e) ++k;
      if (k == covered.size() || abs_b < covered[k].begin)
        throw std::runtime_error("vmpi::File: internal sieve lookup failure");
      rel = compact_at[k] + (abs_b - covered[k].begin);
    }
    dst.insert(dst.end(), chunk_buf.begin() + std::ptrdiff_t(rel),
               chunk_buf.begin() + std::ptrdiff_t(rel + (abs_e - abs_b)));
  };

  // Phase two: ship each rank the pieces of its ranges inside my chunk.
  // Message format: repeated [range_idx:u64][abs_begin:u64][len:u64][bytes].
  // The explicit range index keeps the scatter correct even when a rank's
  // view ranges overlap in the file (legal with indexed-block views).
  for (int r = 0; r < P; ++r) {
    std::vector<std::uint8_t> msg;
    const auto& ranges = all_ranges[std::size_t(r)];
    k = 0;
    for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
      const auto& w = ranges[ri];
      std::uint64_t b = std::max(w.begin, my_lo);
      std::uint64_t e = std::min(w.end, my_hi);
      if (b >= e) continue;
      std::uint64_t hdr[3] = {ri, b, e - b};
      const auto* hp = reinterpret_cast<const std::uint8_t*>(hdr);
      msg.insert(msg.end(), hp, hp + sizeof(hdr));
      fetch(b, e, msg);
    }
    if (r != me) {
      stats_.exchanged_bytes += msg.size();
      io_exchanged_bytes().add(msg.size());
    }
    comm_->send(r, kTagFileData, msg);
  }

  // Collect pieces from every chunk owner and scatter into `out`.
  for (int r = 0; r < P; ++r) {
    std::vector<std::uint8_t> msg;
    comm_->recv(r, kTagFileData, msg);
    std::size_t pos = 0;
    while (pos < msg.size()) {
      std::uint64_t hdr[3];
      std::memcpy(hdr, msg.data() + pos, sizeof(hdr));
      pos += sizeof(hdr);
      std::uint64_t range_idx = hdr[0], abs_b = hdr[1], len = hdr[2];
      if (range_idx >= plan.ranges_.size())
        throw std::runtime_error("vmpi::File: piece range index out of bounds");
      const WireRange& rr = plan.ranges_[std::size_t(range_idx)];
      if (abs_b < rr.begin || abs_b + len > rr.end)
        throw std::runtime_error("vmpi::File: piece does not fit its range");
      std::uint64_t dst = plan.out_[std::size_t(range_idx)] + (abs_b - rr.begin);
      std::memcpy(out.data() + dst, msg.data() + pos, len);
      pos += len;
    }
  }
}

}  // namespace qv::vmpi
