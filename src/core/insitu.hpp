// Simulation-time visualization — the paper's stated ultimate goal (§7):
// "perform simulation-time visualization allowing scientists to monitor
// the simulation ... the parallel simulation and renderer will run
// simultaneously". Here the FEM wave solver runs on a simulation
// processor group whose root streams velocity snapshots directly to the
// rendering processors over the message-passing runtime — no disk in the
// loop — as the pipeline's CRC-framed block messages (core/block_msg.hpp).
// In situ is the pipeline (core/pipeline.hpp) with the solver group as its
// data source in the input ranks' place: the same rank body, render role
// (receive loop with NACK and degrade, SLIC compositing without
// compression), output role and report, so frames appear as the earthquake
// unfolds. Only the solver role is its own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "img/image.hpp"
#include "quake/material.hpp"
#include "quake/solver.hpp"

namespace qv::core {

struct InsituConfig {
  // --- the simulation ------------------------------------------------------
  Box3 domain{{0, 0, 0}, {2000, 2000, 2000}};
  quake::LayeredBasin basin;
  float mesh_max_freq_hz = 0.5f;       // mesh refinement target
  float mesh_points_per_wavelength = 4.0f;
  int mesh_min_level = 2;
  int mesh_max_level = 4;
  quake::RickerSource source;
  quake::WaveSolver::Options solver;

  int steps_per_snapshot = 8;   // solver steps between rendered frames
  int snapshots = 8;
  int sim_procs = 1;            // ranks running the parallel wave solver

  // --- the visualization -----------------------------------------------------
  int render_procs = 2;
  // Worker threads per rendering rank ((block x tile) tasks; bit-exact for
  // any value, see PipelineConfig::render_threads).
  int render_threads = 1;
  int width = 256;
  int height = 192;
  render::RenderOptions render;
  float orbit_deg_per_step = 0.0f;
  std::string output_dir;  // when set, frames are written as PPM

  // Remote frame delivery to simulated viewers (see PipelineConfig::serve)
  // — the "monitor the simulation from afar" half of the paper's §7 goal.
  stream::ServeFleetConfig serve;

  // Interactive steering over the monitored run (same semantics as
  // PipelineConfig::steer; snapshots take the role of steps).
  SteeringConfig steer;

  // Deterministic fault injection (tests only; see
  // PipelineConfig::fault_plan). A NACKed snapshot is not resent but
  // degraded; a kill fault is rejected, since the sim group's force
  // reduction cannot survive a death.
  std::shared_ptr<const vmpi::FaultPlan> fault_plan;
};

struct InsituReport {
  // Completion time of each frame, seconds since the start barrier.
  std::vector<double> frame_seconds;
  double avg_interframe = 0.0;        // steady-state (second half) mean
  double sim_seconds = 0.0;           // time the solver spent stepping
  double sim_time_reached = 0.0;      // simulated seconds at the last frame
  int snapshots = 0;

  // Fault handling, as in PipelineReport: CRC mismatches seen by the
  // renderers, NACKs the sim root answered (each with a skip marker), and
  // the frames that showed stale data.
  std::uint64_t corrupt_blocks_detected = 0;
  std::uint64_t resend_requests = 0;
  int degraded_frames = 0;
  std::vector<int> degraded_steps;  // ascending

  // Remote frame delivery (empty unless config.serve.enabled).
  stream::ServerReport server;
};

// Runs solver + renderers + output concurrently in-process, through the
// pipeline's rank body. When `frames_out` is non-null the output processor
// stores every frame there.
InsituReport run_insitu(const InsituConfig& config,
                        std::vector<img::Image>* frames_out = nullptr);

// The deterministic mesh every rank (and any offline check) reconstructs
// from the configuration.
mesh::HexMesh build_insitu_mesh(const InsituConfig& config);

}  // namespace qv::core
