// The repository benchmark's measuring program: shared declarations.
//
// perfbench.cpp parses the command line and prints results, workloads.cpp
// generates the seeded inputs and measures the three workloads, checks.cpp
// holds the output checkers (and the self-test that proves they can fail).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "img/image.hpp"
#include "stream/steer.hpp"

namespace perfbench {

namespace img = qv::img;
namespace stream = qv::stream;

// One named metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

// Everything one `perfbench run` prints: the result object on its last line
// plus the digest that lets two runs prove they produced the same frames.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::string output_digest;          // SHA-256 over every checked frame
  std::vector<std::string> problems;  // one line per failed check
};

struct RunOptions {
  std::string workload;
  std::string inputs;  // directory written by `perfbench gen`
  double seconds = 10.0;
  bool traced = false;
  bool tiny = false;  // self-test sizes
};

// Seeded input generation: datasets for the movies, the steering trace for
// steer_fleet. Same (workload, seed, tiny) -> same bytes.
void generate_inputs(const std::string& workload, std::uint64_t seed,
                     bool tiny, const std::string& out_dir);

Result run_workload(const RunOptions& opt);

bool is_workload(const std::string& name);

// One run of a movie workload with serial references of every step, for
// the checker self-test.
struct MovieCheckCase {
  std::vector<img::Image> frames;
  std::vector<img::Image> references;
};
MovieCheckCase movie_check_case(const std::string& workload,
                                const std::string& inputs, bool tiny);

// The scripted (virtual-time) steer_fleet pass the checks run: same scene,
// trace and fleet as the timed loop, clients decoding, invariants checked.
stream::SteerLoopReport scripted_steer_pass(const std::string& inputs,
                                            bool tiny);

// --- output checks (checks.cpp) ---------------------------------------------

// SHA-256 of an image's float pixels, hex.
std::string frame_digest(const img::Image& frame);

// Pipeline frames against serial `core::render_step` references (quantize
// on) of the same steps; returns one problem line per frame whose RMSE is at
// or above `tol`, or whose size differs.
std::vector<std::string> check_frames(const std::vector<img::Image>& got,
                                      const std::vector<img::Image>& want,
                                      double tol);

// The RMSE tolerance tests/core/test_pipeline.cpp holds the pipeline to.
inline constexpr double kFrameRmseTol = 1e-5;

// Every delivery's epoch echo must name the epoch its step was rendered
// under, and no delivered step may be one that was never submitted. One
// problem line per bad delivery.
std::vector<std::string> check_epoch_echo(const stream::SteerLoopReport& rep);

// Feed the checkers one corrupted frame and one wrong epoch echo and
// confirm both are caught; prints what it did, returns false when a checker
// let a bad input through (a vacuous checker) or rejected good input.
bool checker_selftest(const std::string& scratch_dir);

}  // namespace perfbench
