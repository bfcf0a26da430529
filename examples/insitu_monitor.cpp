// Simulation-time visualization (§7's "ultimate goal"): the FEM earthquake
// solver and the parallel renderer run simultaneously — frames appear as
// the simulated ground motion evolves, with no dataset on disk at all.
//
//   ./insitu_monitor [output_dir] [snapshots]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/insitu.hpp"

int main(int argc, char** argv) {
  using namespace qv;
  std::string out = argc > 1 ? argv[1] : "insitu_out";
  int snapshots = argc > 2 ? std::atoi(argv[2]) : 8;
  std::filesystem::create_directories(out);

  core::InsituConfig cfg;
  cfg.domain = {{0, 0, 0}, {2000, 2000, 2000}};
  cfg.basin.basin_center = {1000, 1000, 2000};
  cfg.basin.basin_radius = 800;
  cfg.basin.basin_depth = 500;
  cfg.basin.surface_z = 2000;
  cfg.mesh_max_freq_hz = 0.5f;
  cfg.mesh_min_level = 2;
  cfg.mesh_max_level = 4;
  cfg.source.position = {1000, 1000, 1400};
  cfg.source.peak_freq_hz = 0.5f;
  cfg.source.delay_s = 2.4f;
  cfg.source.amplitude = 5e12f;
  cfg.steps_per_snapshot = 10;
  cfg.snapshots = snapshots;
  cfg.render_procs = 3;
  cfg.width = 384;
  cfg.height = 288;
  cfg.render.value_hi = 0.05f;
  cfg.orbit_deg_per_step = 6.0f;  // slowly orbit while monitoring
  cfg.output_dir = out;

  std::printf("monitoring a live basin simulation (%d snapshots)...\n",
              snapshots);
  auto report = core::run_insitu(cfg);
  std::printf("simulated %.1f s of shaking in %.2f s of solver time; "
              "%d frames -> %s/frame_****.ppm\n",
              report.sim_time_reached, report.sim_seconds, report.snapshots,
              out.c_str());
  if (report.frame_seconds.size() >= 2) {
    double span = report.frame_seconds.back() - report.frame_seconds.front();
    std::printf("mean interframe while simulating: %.3f s\n",
                span / double(report.frame_seconds.size() - 1));
  }
  return 0;
}
