// quakeviz — command-line driver for the library, the tool a downstream
// user actually runs:
//
//   quakeviz generate --out=DIR [--mode=solver|synthetic] [--steps=N]
//            [--max-level=L] [--freq=HZ]
//       Build a basin mesh, simulate (or synthesize) ground motion, and
//       write a multiresolution dataset.
//
//   quakeviz info --dataset=DIR
//       Print the dataset's metadata and per-level sizes.
//
//   quakeviz render --dataset=DIR --out=FILE.ppm [--step=K] [--level=L]
//            [--width=W] [--height=H] [--lighting] [--enhance]
//            [--variable=magnitude|vx|vy|vz|horizontal] [--vmax=X]
//            [--orbit=DEG] [--tf=FILE]
//       Serial render of one step (--tf: "value r g b opacity" lines).
//
//   quakeviz pipeline --dataset=DIR --out=DIR [--strategy=1dip|2dip-col|
//            2dip-ind] [--inputs=M] [--groups=N] [--renderers=R]
//            [--render-threads=T] [--width=W] [--height=H] [--steps=K]
//            [--level=L] [--lic]
//            [--enhance] [--orbit=DEG] [--rebalance=E] [--compositor=
//            slic|direct|swap|radix] [--composite-k=K] [--compress]
//            [--compress-blocks] [--tf=FILE]
//            [--vmax=X] [--recv-timeout-ms=T] [--trace=FILE.json]
//            [--metrics-json=FILE.json] [--metrics-prom=FILE.txt]
//            [--fault-seed=S]
//            [--fault-read-rate=P] [--fault-short-read-rate=P]
//            [--fault-corrupt-rate=P] [--fault-lose=SUBSTR]
//            [--fault-read-delay-ms=D]
//            [--fault-kill-rank=R --fault-kill-step=K]
//       Run the full parallel pipeline and write frames + a timing report.
//       Any --fault-* option installs a seeded fault-injection plan; the
//       report then includes retry/corruption/degraded-frame counters.
//       --trace records per-rank events and writes a Chrome trace-event
//       JSON (loadable in perfetto / chrome://tracing) plus an
//       occupancy/overlap summary on stdout.  --metrics-json /
//       --metrics-prom enable the metrics registry and write a
//       machine-readable run report (schema qv-run-report v1) /
//       Prometheus-style text dump after the run.
//
//   quakeviz insitu --out=DIR [--snapshots=N] [--renderers=R]
//            [--render-threads=T] [--trace=FILE.json] [--metrics-json=FILE.json]
//            [--metrics-prom=FILE.txt]
//       Simulation-time visualization: solver + renderer concurrently.
//
//   Both pipeline and insitu write frames as DIR/frame_%04d.ppm and also
//   accept the remote frame-delivery flags:
//            [--serve-clients=N] [--serve-bandwidth-hi=BYTES_PER_S]
//            [--serve-bandwidth-lo=BYTES_PER_S] [--serve-latency-ms=MS]
//            [--serve-outage-seed=S] [--serve-budget=BYTES]
//            [--serve-evict-timeout=S] [--serve-record=FILE]
//       Any --serve-* flag attaches a DeliveryServer to the output
//       processor: every finished frame is delta-encoded once per needed
//       tier and fanned out over simulated WAN links to N clients (default
//       4) with log-spread bandwidths (and, with an outage seed, flapping
//       links), each degrading gracefully under backpressure (quantization
//       tiers, then keyframe-only, then frame drops) within its own byte
//       budget, with eviction of dead connections. A point-to-point stream
//       is --serve-clients=1 --serve-bandwidth-hi=B. --serve-record writes
//       client 0's delivered wire frames for 'quakeviz view'.
//
//   Both also accept the interactive-steering flags:
//            [--steer] [--steer-seed=S] [--steer-edits=N]
//            [--steer-trace=FILE]
//       Any --steer* flag folds a scripted edit trace (camera moves and
//       transfer-function window edits; see --steer-trace format in
//       src/stream/control.hpp) into the run at step boundaries. Every
//       applied edit bumps the view epoch stamped into frame headers (the
//       epoch echoes the newest applied request id) and resets every
//       client's delta chain, so the first post-edit frame each viewer
//       sees is a keyframe. Exclusive with --rebalance.
//
//   pipeline, insitu, and serve also accept the observability flags:
//            [--lineage=FILE.json] [--slo-p95=S] [--slo-drop=R]
//       --lineage arms the frame-lineage flight recorder: every frame id
//       (step, view epoch) is tracked render -> composite -> encode ->
//       queue -> wire -> decode in bounded per-rank/per-client rings,
//       dumped to FILE.json at end of run — and automatically on a
//       fault-plan rank kill, a world abort, or a client eviction. With
//       --trace the lineage is also merged into the Chrome trace as
//       per-frame async waterfalls. --slo-p95/--slo-drop state a service
//       level objective (max p95 end-to-end frame latency in seconds / max
//       drop rate); the run report gains a pass/fail "slo" block that
//       `bench_report slo` and the ci slo-gate enforce. Requires
//       --metrics-json.
//
//   quakeviz serve [--clients=N] [--steps=N] [--seed=S] [--chaos]
//            [--slow=N] [--flappers=N] [--churners=N] [--budget=BYTES]
//            [--evict-timeout=S] [--width=W] [--height=H]
//            [--metrics-json=FILE.json]
//       Run the delivery server against a synthetic frame sequence and a
//       simulated client fleet in pure virtual time. --chaos adds slow,
//       flapping, and churning (leave/rejoin) populations and checks the
//       server's invariants: every delivered frame decodes, every
//       (re)join re-anchors on a keyframe, no client exceeds its byte
//       budget. Prints the per-seed SHA-256 run digest; exits non-zero
//       on any invariant violation.
//
//       With any --steer* flag, serve instead runs the steered render loop
//       (src/stream/steer.hpp): a deterministic synthetic scene rendered
//       frame-by-frame while a scripted edit trace ([--steer-trace=FILE]
//       or seeded via [--steer-seed=S] [--steer-edits=N], scrubs allowed)
//       posts camera/TF/scrub edits through the QVCT wire boundary into
//       the server's inbox. [--steer-live] posts mid-render from a monitor
//       thread and cancels the in-flight stale render ([--steer-no-cancel]
//       lets stale renders complete, for comparison);
//       [--steer-late-join=K] makes every third client join at frame K.
//       Checks the stale/fresh invariants (epoch echo + pixel SHA, no
//       delta across an epoch boundary, keyframe after every edit) and
//       exits non-zero on any violation. Prints edit-to-first-fresh-frame
//       latency p50/p95 and the wasted-render ratio.
//
//   quakeviz view --in=FILE [--out=DIR] [--metrics-json=FILE.json]
//       Decode a --serve-record file like the remote viewer would:
//       verify every frame (magic/CRC/delta chain), optionally write the
//       frames as PPMs, print each frame's step@epoch/kind/tier and
//       SHA-256. --metrics-json writes a run report with decode counters
//       and the stream.e2e.decode latency histogram.
//       A truncated or corrupt capture (e.g. cut mid-frame) fails with a
//       message saying where the file went bad.
//
// Unknown --options are rejected with the command's known-flag list, so a
// typo can't silently fall back to a default. Image sizes and counts
// (--width, --height, --renderers, --render-threads, --inputs, --groups,
// --snapshots) below 1 exit 2 naming the flag.
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/insitu.hpp"
#include "core/pipeline.hpp"
#include "core/serial.hpp"
#include "stream/chaos.hpp"
#include "io/dataset.hpp"
#include "metrics/metrics.hpp"
#include "metrics/report.hpp"
#include "obs/lineage.hpp"
#include "obs/stage.hpp"
#include "quake/solver.hpp"
#include "quake/synthetic.hpp"
#include "stream/control.hpp"
#include "stream/frame_codec.hpp"
#include "stream/steer.hpp"
#include "trace/analysis.hpp"
#include "trace/trace.hpp"
#include "util/parse.hpp"
#include "util/sha256.hpp"

namespace {

using namespace qv;

// --key=value / --flag argument map.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", a.c_str());
        std::exit(2);
      }
      auto eq = a.find('=');
      if (eq == std::string::npos) {
        kv_[a.substr(2)] = "1";
      } else {
        kv_[a.substr(2, eq - 2)] = a.substr(eq + 1);
      }
    }
  }
  std::string str(const std::string& key, const std::string& fallback) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
  }
  int num(const std::string& key, int fallback) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    auto v = util::parse_int(it->second);
    if (!v || *v < INT_MIN || *v > INT_MAX) {
      std::fprintf(stderr, "invalid value for --%s: '%s' (expected an integer)\n",
                   key.c_str(), it->second.c_str());
      std::exit(2);
    }
    return int(*v);
  }
  double real(const std::string& key, double fallback) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    auto v = util::parse_real(it->second);
    if (!v) {
      std::fprintf(stderr, "invalid value for --%s: '%s' (expected a number)\n",
                   key.c_str(), it->second.c_str());
      std::exit(2);
    }
    return *v;
  }
  bool flag(const std::string& key) const { return kv_.count(key) > 0; }
  // A typo like --metrics-jsn must not silently no-op: every command
  // declares its flags and anything else is a hard error.
  void allow_only(const char* cmd,
                  std::initializer_list<const char*> known) const {
    for (const auto& [key, value] : kv_) {
      bool ok = false;
      for (const char* k : known) {
        if (key == k) { ok = true; break; }
      }
      if (ok) continue;
      std::fprintf(stderr, "unknown option --%s for 'quakeviz %s'\n",
                   key.c_str(), cmd);
      std::fprintf(stderr, "known options:");
      for (const char* k : known) std::fprintf(stderr, " --%s", k);
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }
  std::string require(const std::string& key) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) {
      std::fprintf(stderr, "missing required --%s=...\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }

 private:
  std::map<std::string, std::string> kv_;
};

io::Variable parse_variable(const std::string& name) {
  if (name == "magnitude") return io::Variable::kMagnitude;
  if (name == "vx") return io::Variable::kComponentX;
  if (name == "vy") return io::Variable::kComponentY;
  if (name == "vz") return io::Variable::kComponentZ;
  if (name == "horizontal") return io::Variable::kHorizontal;
  std::fprintf(stderr, "unknown variable: %s\n", name.c_str());
  std::exit(2);
}

// Range-checked reals: a bad value exits 2 with a message naming the flag.
// Link bandwidths must be positive: WanLink rejects <= 0 (the old "0 means
// infinite" convention produced zero-virtual-time transfers), so catch the
// bad flag here instead of as an uncaught throw later.
double positive_real(const Args& args, const std::string& flag,
                     double fallback) {
  const double v = args.real(flag, fallback);
  if (!(v > 0.0)) {
    std::fprintf(stderr, "invalid value for --%s: %g (must be > 0)\n",
                 flag.c_str(), v);
    std::exit(2);
  }
  return v;
}

// Range-checked counts and image sizes: below `min` they would run silently
// wrong (an empty image, one thread for zero, no frames, no edits) or fail
// without naming the flag.
int int_at_least(const Args& args, const std::string& flag, int fallback,
                 int min) {
  const int v = args.num(flag, fallback);
  if (v < min) {
    std::fprintf(stderr, "invalid value for --%s: %d (must be >= %d)\n",
                 flag.c_str(), v, min);
    std::exit(2);
  }
  return v;
}

int positive_int(const Args& args, const std::string& flag, int fallback) {
  return int_at_least(args, flag, fallback, 1);
}

double non_negative_real(const Args& args, const std::string& flag,
                         double fallback) {
  const double v = args.real(flag, fallback);
  if (!(v >= 0.0)) {
    std::fprintf(stderr, "invalid value for --%s: %g (must be >= 0)\n",
                 flag.c_str(), v);
    std::exit(2);
  }
  return v;
}

// The fleet values every delivery command reads, under two names: pipeline
// and insitu take --serve-clients/--serve-budget/--serve-evict-timeout, serve
// takes --clients/--budget/--evict-timeout. Sets the server's byte budget and
// evict timeout (their current values are the defaults) and returns the
// client count. Out of range, each would run silently wrong: no clients
// served, every client evicted before its first frame, or an undefined
// double -> size_t cast for the budget.
int parse_fleet_flags(const Args& args, const std::string& prefix,
                      stream::ServerConfig& server) {
  const std::string budget = prefix + "budget";
  const double bytes = args.real(budget, double(server.queue_budget_bytes));
  const double max_bytes = double(std::numeric_limits<std::size_t>::max());
  if (!(bytes >= 1.0 && bytes < max_bytes)) {
    std::fprintf(stderr,
                 "invalid value for --%s: %g (must be >= 1 and < %g)\n",
                 budget.c_str(), bytes, max_bytes);
    std::exit(2);
  }
  server.queue_budget_bytes = std::size_t(bytes);
  server.evict_timeout_s =
      positive_real(args, prefix + "evict-timeout", server.evict_timeout_s);
  return positive_int(args, prefix + "clients", 4);
}

// The frame-delivery flags shared by `pipeline` and `insitu`. Any of them
// enables the delivery server.
constexpr const char* kServeFlags[] = {
    "serve-clients",       "serve-bandwidth-hi", "serve-bandwidth-lo",
    "serve-latency-ms",    "serve-outage-seed",  "serve-budget",
    "serve-evict-timeout", "serve-record"};

void parse_serve_flags(const Args& args, stream::ServeFleetConfig& cfg) {
  for (const char* f : kServeFlags)
    if (args.flag(f)) cfg.enabled = true;
  if (!cfg.enabled) return;
  cfg.count = parse_fleet_flags(args, "serve-", cfg.server);
  cfg.bandwidth_hi = positive_real(args, "serve-bandwidth-hi", 8e6);
  // 0 disables the log spread (every client at hi).
  cfg.bandwidth_lo = non_negative_real(args, "serve-bandwidth-lo", 0.0);
  cfg.latency_s = non_negative_real(args, "serve-latency-ms", 20.0) / 1000.0;
  cfg.outage_seed = std::uint64_t(args.num("serve-outage-seed", 0));
  cfg.server.record_path = args.str("serve-record", "");
}

// Interactive steering flags shared by `pipeline` and `insitu` (and, with a
// different loop, `serve`). Any of them enables the steering path.
constexpr const char* kSteerFlags[] = {"steer", "steer-seed", "steer-edits",
                                       "steer-trace"};

void parse_steer_flags(const Args& args, core::SteeringConfig& cfg) {
  for (const char* f : kSteerFlags)
    if (args.flag(f)) cfg.enabled = true;
  if (!cfg.enabled) return;
  cfg.seed = std::uint64_t(args.num("steer-seed", 1));
  cfg.edits = int_at_least(args, "steer-edits", 4, 0);
  cfg.trace_path = args.str("steer-trace", "");
}

void print_server_report(const stream::ServerReport& sr) {
  std::printf(
      "serve: %d clients | %llu frames out (%llu dropped) | %.2f MB egress | "
      "%llu encodes + %llu reused | %llu evictions, %llu reconnects\n",
      int(sr.clients.size()), static_cast<unsigned long long>(sr.frames_sent),
      static_cast<unsigned long long>(sr.frames_dropped),
      double(sr.bytes_out) / 1e6, static_cast<unsigned long long>(sr.encodes),
      static_cast<unsigned long long>(sr.encode_reuses),
      static_cast<unsigned long long>(sr.evictions),
      static_cast<unsigned long long>(sr.reconnects));
  if (sr.decode_failures > 0)
    std::printf("serve: %llu DECODE FAILURES\n",
                static_cast<unsigned long long>(sr.decode_failures));
}

void track_server_report(metrics::RunReport& rr,
                         const stream::ServerReport& sr) {
  rr.track("server_clients", double(sr.clients.size()), "clients");
  rr.track("server_frames_sent", double(sr.frames_sent), "frames");
  rr.track("server_frames_dropped", double(sr.frames_dropped), "frames");
  rr.track("server_bytes_out", double(sr.bytes_out), "bytes");
  rr.track("server_encodes", double(sr.encodes), "encodes");
  rr.track("server_encode_reuses", double(sr.encode_reuses), "encodes");
  rr.track("server_evictions", double(sr.evictions), "evictions");
  rr.track("server_peak_client_queue_bytes",
           double(sr.peak_client_queue_bytes), "bytes");
}

// The observability outputs of one run: --trace, --metrics-json,
// --metrics-prom and --lineage (see the header; serve takes only
// --metrics-json and --lineage).
struct RunOutputs {
  explicit RunOutputs(const Args& args)
      : trace_path(args.str("trace", "")),
        metrics_json(args.str("metrics-json", "")),
        metrics_prom(args.str("metrics-prom", "")),
        lineage_path(args.str("lineage", "")) {}

  // Before the run: arm every requested recorder.
  void arm() const {
    if (!trace_path.empty()) trace::enable();
    if (!metrics_json.empty() || !metrics_prom.empty()) metrics::enable();
    if (lineage_path.empty()) return;
    obs::lineage::set_dump_path(lineage_path);
    obs::lineage::enable();
    obs::lineage::install_fault_observer();
  }

  // After the run: write the trace (its collected ranks then go to
  // `on_trace`), the run report of `kind` with the values `fill` tracks,
  // the Prometheus text, and the lineage dump. Returns the exit code.
  int finish(
      const char* kind,
      const std::function<void(metrics::RunReport&)>& fill,
      const std::function<void(const std::vector<trace::ThreadTrace>&)>&
          on_trace = {}) const {
    if (!trace_path.empty()) {
      trace::disable();
      auto traces = trace::collect();
      // Lineage rides along as async waterfall events: every frame id
      // becomes a "b"/"n"/"e" group next to the spans that produced it.
      if (!trace::write_chrome_json(trace_path, traces,
                                    obs::lineage::chrome_fragment())) {
        std::fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
        return 1;
      }
      std::printf("trace: %zu ranks -> %s\n", traces.size(),
                  trace_path.c_str());
      if (on_trace) on_trace(traces);
    }
    if (!metrics_json.empty() || !metrics_prom.empty()) {
      metrics::RunReport rr;
      rr.kind = kind;
      fill(rr);
      rr.snapshot = metrics::collect();
      metrics::disable();
      if (!metrics_json.empty() && !metrics::write_json_file(metrics_json, rr))
        return 1;
      if (!metrics_prom.empty() &&
          !metrics::write_prometheus_file(metrics_prom, rr.snapshot))
        return 1;
      if (!metrics_json.empty())
        std::printf("metrics: run report -> %s\n", metrics_json.c_str());
      if (!metrics_prom.empty())
        std::printf("metrics: prometheus dump -> %s\n", metrics_prom.c_str());
    }
    if (lineage_path.empty()) return 0;
    // End-of-run dump to the same file a mid-run fault would have written;
    // a fault dump that already happened is superseded by this complete one.
    if (!obs::lineage::dump_now("end_of_run")) {
      std::fprintf(stderr, "cannot write lineage dump %s\n",
                   lineage_path.c_str());
      return 1;
    }
    std::printf("lineage: flight recorder -> %s\n", lineage_path.c_str());
    return 0;
  }

  std::string trace_path, metrics_json, metrics_prom, lineage_path;
};

// --- SLO flags --------------------------------------------------------------
// Shared by pipeline, insitu, and serve:
//   --slo-p95=S          SLO: max acceptable p95 end-to-end frame latency.
//   --slo-drop=R         SLO: max acceptable drop rate dropped/(sent+dropped).
// Either --slo-* flag adds the pass/fail "slo" block to the run report
// (requires --metrics-json; the unspecified bound defaults to 1 s / 0.1).

// Exact order statistic, same convention as ClientReport::p95_latency_s.
double pooled_percentile(std::vector<double> v, std::size_t p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = (v.size() * p + 99) / 100;
  return v[idx - 1];
}

struct SloRequest {
  bool requested = false;
  double target_p95_s = 1.0;
  double max_drop_rate = 0.1;
};

SloRequest parse_slo_flags(const Args& args, const std::string& metrics_json) {
  SloRequest s;
  s.requested = args.flag("slo-p95") || args.flag("slo-drop");
  if (s.requested && metrics_json.empty()) {
    std::fprintf(stderr,
                 "--slo-p95/--slo-drop require --metrics-json=FILE (the slo "
                 "verdict lives in the run report)\n");
    std::exit(2);
  }
  s.target_p95_s = args.real("slo-p95", 1.0);
  s.max_drop_rate = args.real("slo-drop", 0.1);
  return s;
}

void fill_e2e_from_server(metrics::RunReport& rr,
                          const stream::ServerReport& sr) {
  metrics::E2eBlock block;
  for (const auto& c : sr.clients) {
    metrics::E2eClientStats s;
    s.id = c.id;
    s.frames = c.frames_delivered;
    s.drops = c.frames_dropped;
    s.p50_s = c.p50_latency_s();
    s.p95_s = c.p95_latency_s();
    block.clients.push_back(s);
  }
  rr.e2e = std::move(block);
}

// Pool every client's deliveries for the fleet-wide SLO percentile.
std::vector<double> server_latencies(const stream::ServerReport& sr) {
  std::vector<double> lat;
  for (const auto& c : sr.clients)
    for (const auto& d : c.deliveries) lat.push_back(d.latency_s);
  return lat;
}

double server_drop_rate(const stream::ServerReport& sr) {
  const double total = double(sr.frames_sent + sr.frames_dropped);
  return total > 0.0 ? double(sr.frames_dropped) / total : 0.0;
}

// The SLO verdict on a delivery server's report (pipeline and insitu: an
// empty report when no fleet is attached), printed and put in the report.
void apply_run_slo(metrics::RunReport& rr, const SloRequest& slo,
                   const stream::ServerReport& server) {
  if (!slo.requested) return;
  metrics::SloBlock b;
  b.target_p95_s = slo.target_p95_s;
  b.max_drop_rate = slo.max_drop_rate;
  b.observed_p95_s = pooled_percentile(server_latencies(server), 95);
  b.observed_drop_rate = server_drop_rate(server);
  b.pass = b.observed_p95_s <= b.target_p95_s &&
           b.observed_drop_rate <= b.max_drop_rate;
  std::printf(
      "slo: p95 %.4f s (target %.4f s) | drop rate %.4f (max %.4f) -> %s\n",
      b.observed_p95_s, b.target_p95_s, b.observed_drop_rate, b.max_drop_rate,
      b.pass ? "PASS" : "FAIL");
  rr.slo = b;
}

quake::LayeredBasin default_basin(const Box3& domain) {
  quake::LayeredBasin basin;
  basin.basin_center = {domain.center().x, domain.center().y, domain.hi.z};
  basin.basin_radius = 0.4f * domain.extent().x;
  basin.basin_depth = 0.25f * domain.extent().z;
  basin.surface_z = domain.hi.z;
  return basin;
}

int cmd_generate(const Args& args) {
  args.allow_only("generate",
                  {"out", "mode", "steps", "max-level", "freq", "interval"});
  std::string out = args.require("out");
  // The dataset stores levels kCoarsest..max-level, so max-level below it
  // would write an empty level range.
  constexpr int kCoarsest = 2;
  const float freq = float(positive_real(args, "freq", 0.5));
  const int max_level = int_at_least(args, "max-level", 4, kCoarsest);
  const int steps = positive_int(args, "steps", 8);
  const double interval = positive_real(args, "interval", 0.5);
  std::filesystem::create_directories(out);
  const Box3 domain{{0, 0, 0}, {2000, 2000, 2000}};
  auto basin = default_basin(domain);

  auto tree = mesh::LinearOctree::build(domain, basin.size_field(freq, 4.0f),
                                        kCoarsest, max_level);
  mesh::HexMesh mesh(std::move(tree));
  std::printf("mesh: %zu cells, %zu nodes (levels %d..%d)\n",
              mesh.cell_count(), mesh.node_count(),
              mesh.octree().min_leaf_level(), mesh.octree().max_leaf_level());

  io::DatasetWriter writer(out, mesh, kCoarsest, 3, 0.5f);
  if (args.str("mode", "solver") == "synthetic") {
    quake::SyntheticQuake q;
    q.hypocenter = {0.5f, 0.5f, 0.35f};
    for (int s = 0; s < steps; ++s) {
      // Synthetic quake works in unit coordinates: sample a scaled copy.
      mesh::HexMesh unit_mesh(
          mesh::LinearOctree::from_leaves(
              {{0, 0, 0}, {1, 1, 1}},
              {mesh.octree().leaves().begin(), mesh.octree().leaves().end()}));
      writer.write_step(q.sample_nodes(unit_mesh, 0.5f + 0.4f * float(s)));
      std::printf("  synthesized step %d\n", s);
    }
  } else {
    quake::WaveSolver solver(mesh, basin.field());
    quake::RickerSource source;
    source.position = {domain.center().x, domain.center().y,
                       0.7f * domain.hi.z};
    source.peak_freq_hz = freq;
    source.delay_s = 1.2f / freq;
    source.amplitude = 5e12f;
    solver.add_source(source);
    double next = interval;
    int written = 0;
    while (written < steps) {
      solver.step();
      if (solver.time() >= next) {
        writer.write_step(solver.velocity_interleaved());
        std::printf("  t=%6.2f s  step %d/%d  KE %.3e\n", solver.time(),
                    ++written, steps, solver.kinetic_energy());
        next += interval;
      }
    }
  }
  writer.finish();
  std::printf("dataset written to %s\n", out.c_str());
  return 0;
}

int cmd_info(const Args& args) {
  args.allow_only("info", {"dataset"});
  io::DatasetReader reader(args.require("dataset"));
  const auto& m = reader.meta();
  std::printf("domain     (%g %g %g) .. (%g %g %g)\n", m.domain.lo.x,
              m.domain.lo.y, m.domain.lo.z, m.domain.hi.x, m.domain.hi.y,
              m.domain.hi.z);
  std::printf("steps      %d (dt %.3f s)\n", m.num_steps, m.step_dt);
  std::printf("components %d\n", m.components);
  std::printf("levels     %d..%d\n", m.coarsest_level, m.finest_level);
  for (int level = m.coarsest_level; level <= m.finest_level; ++level) {
    std::printf("  level %2d: %10llu nodes, %8.2f MB/step at offset %llu\n",
                level,
                static_cast<unsigned long long>(
                    m.level_node_count[std::size_t(level - m.coarsest_level)]),
                double(reader.level_bytes(level)) / 1e6,
                static_cast<unsigned long long>(
                    reader.level_offset_bytes(level)));
  }
  return 0;
}

int cmd_render(const Args& args) {
  args.allow_only("render",
                  {"dataset", "out", "step", "level", "width", "height",
                   "lighting", "enhance", "variable", "vmax", "orbit", "tf"});
  io::DatasetReader reader(args.require("dataset"));
  std::string out = args.require("out");
  core::SerialRenderConfig cfg;
  cfg.level = args.num("level", -1);
  cfg.render.lighting = args.flag("lighting");
  cfg.enhancement = args.flag("enhance");
  cfg.variable = parse_variable(args.str("variable", "magnitude"));
  cfg.render.value_hi = float(args.real("vmax", 1.0));
  int w = positive_int(args, "width", 512);
  int h = positive_int(args, "height", 512);
  int step = args.num("step", 0);
  auto cam = render::Camera::orbit(reader.meta().domain, w, h,
                                   float(args.real("orbit", 0.0)));
  std::string tf_file = args.str("tf", "");
  auto tf = tf_file.empty() ? render::TransferFunction::seismic()
                            : render::TransferFunction::from_file(tf_file);
  render::RenderStats stats;
  img::Image im = core::render_step(reader, step, cam, tf, cfg, &stats);
  if (!img::write_ppm(out, img::to_8bit(im, {0.02f, 0.02f, 0.05f}))) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("rendered step %d (%llu samples) -> %s\n", step,
              static_cast<unsigned long long>(stats.samples), out.c_str());
  return 0;
}

int cmd_pipeline(const Args& args) {
  args.allow_only(
      "pipeline",
      {"dataset", "out", "strategy", "inputs", "groups", "renderers",
       "render-threads", "width",
       "height", "steps", "level", "lic", "enhance", "lighting", "variable",
       "vmax", "orbit", "rebalance", "compress", "compress-blocks", "tf",
       "compositor", "composite-k", "recv-timeout-ms", "trace", "metrics-json",
       "metrics-prom", "fault-seed", "fault-read-rate",
       "fault-short-read-rate", "fault-corrupt-rate", "fault-lose",
       "fault-read-delay-ms", "fault-kill-rank", "fault-kill-step",
       "serve-clients", "serve-bandwidth-hi", "serve-bandwidth-lo",
       "serve-latency-ms", "serve-outage-seed", "serve-budget",
       "serve-evict-timeout", "serve-record", "steer", "steer-seed",
       "steer-edits", "steer-trace", "lineage", "slo-p95",
       "slo-drop"});
  core::PipelineConfig cfg;
  cfg.output_dir = args.str("out", "");
  if (!cfg.output_dir.empty())
    std::filesystem::create_directories(cfg.output_dir);
  std::string strategy = args.str("strategy", "1dip");
  if (strategy == "1dip") {
    cfg.strategy = core::IoStrategy::kOneDip;
  } else if (strategy == "2dip-col") {
    cfg.strategy = core::IoStrategy::kTwoDipCollective;
  } else if (strategy == "2dip-ind") {
    cfg.strategy = core::IoStrategy::kTwoDipIndependent;
  } else {
    std::fprintf(stderr, "unknown strategy: %s\n", strategy.c_str());
    return 2;
  }
  cfg.input_procs = positive_int(args, "inputs", 2);
  cfg.groups = positive_int(args, "groups", 1);
  cfg.render_procs = positive_int(args, "renderers", 4);
  cfg.render_threads = positive_int(args, "render-threads", 1);
  cfg.width = positive_int(args, "width", 512);
  cfg.height = positive_int(args, "height", 384);
  cfg.num_steps = args.flag("steps") ? positive_int(args, "steps", 1) : -1;
  cfg.adaptive_level = args.num("level", -1);
  cfg.lic_overlay = args.flag("lic");
  cfg.enhancement = args.flag("enhance");
  cfg.render.lighting = args.flag("lighting");
  cfg.variable = parse_variable(args.str("variable", "magnitude"));
  cfg.render.value_hi = float(args.real("vmax", 1.0));
  cfg.orbit_deg_per_step = float(args.real("orbit", 0.0));
  cfg.rebalance_every = args.num("rebalance", 0);
  cfg.compress_compositing = args.flag("compress");
  cfg.compress_blocks = args.flag("compress-blocks");
  cfg.tf_file = args.str("tf", "");
  std::string compositor = args.str("compositor", "slic");
  if (compositor == "direct") {
    cfg.compositor = core::Compositor::kDirectSend;
  } else if (compositor == "swap" || compositor == "radix") {
    cfg.compositor = core::Compositor::kRadixK;
  } else if (compositor != "slic") {
    std::fprintf(stderr, "unknown compositor: %s\n", compositor.c_str());
    return 2;
  }
  cfg.composite_k = args.num("composite-k", 4);
  if (cfg.composite_k < 2) {
    std::fprintf(stderr, "--composite-k must be >= 2 (got %d)\n",
                 cfg.composite_k);
    return 2;
  }
  if (compositor == "swap") cfg.composite_k = 2;  // binary-swap: k = 2

  parse_serve_flags(args, cfg.serve);
  parse_steer_flags(args, cfg.steer);

  // Fault injection: any --fault-* option installs a seeded plan.
  cfg.recv_timeout_ms = args.num("recv-timeout-ms", 0);
  std::shared_ptr<vmpi::FaultPlan> plan;
  auto fault = [&]() -> vmpi::FaultPlan& {
    if (!plan) {
      plan = std::make_shared<vmpi::FaultPlan>();
      cfg.fault_plan = plan;
    }
    return *plan;
  };
  if (args.flag("fault-seed")) fault().seed = std::uint64_t(args.num("fault-seed", 0));
  if (args.flag("fault-read-rate"))
    fault().read_error_rate = args.real("fault-read-rate", 0.0);
  if (args.flag("fault-short-read-rate"))
    fault().short_read_rate = args.real("fault-short-read-rate", 0.0);
  if (args.flag("fault-corrupt-rate"))
    fault().corrupt_rate = args.real("fault-corrupt-rate", 0.0);
  if (args.flag("fault-lose"))
    fault().fail_path_substrings.push_back(args.str("fault-lose", ""));
  if (args.flag("fault-read-delay-ms"))
    fault().read_delay_ms = args.real("fault-read-delay-ms", 0.0);
  if (args.flag("fault-kill-rank")) {
    fault().kill_rank = args.num("fault-kill-rank", -1);
    fault().kill_at_step = args.num("fault-kill-step", 0);
  }

  const RunOutputs outputs(args);
  const SloRequest slo = parse_slo_flags(args, outputs.metrics_json);
  // Required flags are checked last so a malformed value (e.g.
  // --render-threads=abc) is diagnosed even when --dataset is absent.
  cfg.dataset_dir = args.require("dataset");
  outputs.arm();

  auto report = core::run_pipeline(cfg);

  const int rc = outputs.finish(
      "pipeline",
      [&](metrics::RunReport& rr) {
        rr.track("interframe_s", report.avg_interframe, "s");
        rr.track("fetch_s", report.avg_fetch, "s");
        rr.track("preprocess_s", report.avg_preprocess, "s");
        rr.track("send_s", report.avg_send, "s");
        rr.track("render_s", report.avg_render, "s");
        rr.track("composite_s", report.avg_composite, "s");
        rr.track("composite_bytes", double(report.composite_bytes), "bytes");
        rr.track("block_bytes_sent", double(report.block_bytes_sent),
                 "bytes");
        if (cfg.serve.enabled) {
          track_server_report(rr, report.server);
          fill_e2e_from_server(rr, report.server);
        }
        apply_run_slo(rr, slo, report.server);
      },
      [](const std::vector<trace::ThreadTrace>& traces) {
        std::printf("%s\n", trace::format_overlap(
                                trace::analyze_overlap(traces)).c_str());
        auto whole = trace::rank_activity(traces);
        auto steady = trace::rank_activity(traces, {.steady_only = true});
        for (std::size_t i = 0; i < whole.size(); ++i) {
          std::printf("  %-10s occupancy %5.1f%% (steady %5.1f%%)\n",
                      whole[i].name.c_str(), 100.0 * whole[i].occupancy,
                      i < steady.size() ? 100.0 * steady[i].occupancy : 0.0);
        }
      });
  if (rc != 0) return rc;
  std::printf("frames: %d  interframe %.4f s\n", report.steps,
              report.avg_interframe);
  if (cfg.serve.enabled) print_server_report(report.server);
  std::printf("per step: fetch %.4f s | preprocess %.4f s | send %.4f s | "
              "render %.4f s | composite %.4f s (%s, %.2f MB exchanged)\n",
              report.avg_fetch, report.avg_preprocess, report.avg_send,
              report.avg_render, report.avg_composite,
              report.compositor.c_str(),
              double(report.composite_bytes) / 1e6);
  for (std::size_t e = 0; e < report.epoch_imbalance.size(); ++e) {
    std::printf("epoch %zu imbalance %.3f -> replanned %.3f\n", e,
                report.epoch_imbalance[e],
                report.epoch_imbalance_replanned[e]);
  }
  if (cfg.fault_plan) {
    std::printf("faults: %llu retries | %llu corrupt blocks | %llu resends | "
                "%d dropped steps | %d degraded frames\n",
                static_cast<unsigned long long>(report.retries),
                static_cast<unsigned long long>(report.corrupt_blocks_detected),
                static_cast<unsigned long long>(report.resend_requests),
                report.dropped_steps, report.degraded_frames);
    for (int s : report.degraded_steps)
      std::printf("degraded step %d (frame repeated)\n", s);
  }
  return 0;
}

int cmd_insitu(const Args& args) {
  args.allow_only("insitu",
                  {"out", "snapshots", "renderers", "render-threads", "width",
                   "height", "vmax",
                   "orbit", "trace", "metrics-json", "metrics-prom",
                   "serve-clients", "serve-bandwidth-hi", "serve-bandwidth-lo",
                   "serve-latency-ms", "serve-outage-seed", "serve-budget",
                   "serve-evict-timeout", "serve-record", "steer", "steer-seed",
                   "steer-edits", "steer-trace", "lineage", "slo-p95",
                   "slo-drop"});
  core::InsituConfig cfg;
  cfg.basin = default_basin(cfg.domain);
  cfg.source.position = {1000, 1000, 1400};
  cfg.source.peak_freq_hz = 0.5f;
  cfg.source.delay_s = 2.4f;
  cfg.source.amplitude = 5e12f;
  cfg.snapshots = positive_int(args, "snapshots", 8);
  cfg.render_procs = positive_int(args, "renderers", 2);
  cfg.render_threads = positive_int(args, "render-threads", 1);
  cfg.width = positive_int(args, "width", 384);
  cfg.height = positive_int(args, "height", 288);
  cfg.render.value_hi = float(args.real("vmax", 0.05));
  cfg.orbit_deg_per_step = float(args.real("orbit", 0.0));
  cfg.output_dir = args.str("out", "");
  if (!cfg.output_dir.empty())
    std::filesystem::create_directories(cfg.output_dir);
  parse_serve_flags(args, cfg.serve);
  parse_steer_flags(args, cfg.steer);
  const RunOutputs outputs(args);
  const SloRequest slo = parse_slo_flags(args, outputs.metrics_json);
  outputs.arm();
  auto report = core::run_insitu(cfg);
  const int rc = outputs.finish("insitu", [&](metrics::RunReport& rr) {
    rr.track("interframe_s", report.avg_interframe, "s");
    rr.track("sim_s", report.sim_seconds, "s");
    if (cfg.serve.enabled) {
      track_server_report(rr, report.server);
      fill_e2e_from_server(rr, report.server);
    }
    apply_run_slo(rr, slo, report.server);
  });
  if (rc != 0) return rc;
  std::printf("simulated %.1f s in %.2f s; %d frames  interframe %.4f s\n",
              report.sim_time_reached, report.sim_seconds, report.snapshots,
              report.avg_interframe);
  if (cfg.serve.enabled) print_server_report(report.server);
  return 0;
}

// The steered serve loop (src/stream/steer.hpp): render→deliver with the
// viewer→renderer control channel closed end to end. Scripted or live
// (mid-render posting + in-flight cancellation); checks the stale/fresh
// invariants and exits non-zero if any is violated.
int cmd_serve_steered(const Args& args) {
  stream::SteerLoopConfig cfg;
  cfg.width = positive_int(args, "width", cfg.width);
  cfg.height = positive_int(args, "height", cfg.height);
  cfg.frames = positive_int(args, "steps", cfg.frames);
  cfg.render_threads = positive_int(args, "render-threads", cfg.render_threads);
  cfg.seed = std::uint64_t(args.num("seed", 1));
  cfg.live = args.flag("steer-live");
  cfg.cancellation = !args.flag("steer-no-cancel");
  cfg.late_join_frame = args.num("steer-late-join", -1);
  cfg.fleet.count = parse_fleet_flags(args, "", cfg.fleet.server);
  const int edits = int_at_least(args, "steer-edits", 4, 0);

  const std::string trace_file = args.str("steer-trace", "");
  if (!trace_file.empty()) {
    std::string err;
    auto trace = stream::load_steer_trace(trace_file, &err);
    if (!trace) {
      std::fprintf(stderr, "cannot load steering trace: %s\n", err.c_str());
      return 2;
    }
    cfg.trace = std::move(*trace);
  } else {
    cfg.trace = stream::make_steer_trace(
        std::uint64_t(args.num("steer-seed", 1)), cfg.frames, edits,
        /*allow_scrub=*/true);
  }

  const RunOutputs outputs(args);
  outputs.arm();

  auto rep = stream::run_steer_loop(cfg);

  const double wasted =
      rep.renders > 0 ? double(rep.cancelled_renders) / double(rep.renders)
                      : 0.0;
  auto fresh = rep.edit_to_fresh_s;
  const double p50 = pooled_percentile(fresh, 50);
  const double p95 = pooled_percentile(fresh, 95);
  const int rc = outputs.finish("serve-steer", [&](metrics::RunReport& rr) {
    track_server_report(rr, rep.server);
    rr.track("steer_edits_applied", double(rep.edits_applied), "edits");
    rr.track("steer_renders", double(rep.renders), "frames");
    rr.track("steer_cancelled_renders", double(rep.cancelled_renders),
             "frames");
    rr.track("steer_wasted_render_ratio", wasted, "ratio");
    rr.track("steer_edit_to_fresh_p50_s", p50, "s");
    rr.track("steer_edit_to_fresh_p95_s", p95, "s");
  });
  if (rc != 0) return rc;
  print_server_report(rep.server);
  std::printf(
      "steer: %llu edits applied | %llu renders (%llu cancelled, %.0f%% "
      "wasted) | final epoch %u\n",
      static_cast<unsigned long long>(rep.edits_applied),
      static_cast<unsigned long long>(rep.renders),
      static_cast<unsigned long long>(rep.cancelled_renders), 100.0 * wasted,
      rep.final_epoch);
  std::printf("steer: edit-to-fresh p50 %.4f s p95 %.4f s (%s, cancellation "
              "%s)\n",
              p50, p95, cfg.live ? "live" : "scripted",
              cfg.cancellation ? "on" : "off");
  if (!rep.violations.empty()) {
    for (const auto& v : rep.violations)
      std::fprintf(stderr, "steer: INVARIANT VIOLATION: %s\n", v.c_str());
    return 1;
  }
  std::printf("steer: all invariants held\n");
  return 0;
}

// Standalone delivery-server run against a synthetic frame sequence, in
// pure virtual time — the chaos harness behind a command. With --chaos the
// fleet gains slow, flapping, and churning populations and the run fails
// (non-zero exit) if any server invariant is violated. With any --steer*
// flag the run is the steered loop above instead.
int cmd_serve(const Args& args) {
  args.allow_only("serve",
                  {"clients", "steps", "seed", "chaos", "slow", "flappers",
                   "churners", "budget", "evict-timeout", "width", "height",
                   "render-threads", "steer", "steer-seed", "steer-edits",
                   "steer-trace", "steer-live", "steer-no-cancel",
                   "steer-late-join",
                   "metrics-json", "lineage", "slo-p95", "slo-drop"});
  for (const char* f : kSteerFlags)
    if (args.flag(f)) return cmd_serve_steered(args);
  if (args.flag("steer-live") || args.flag("steer-no-cancel") ||
      args.flag("steer-late-join"))
    return cmd_serve_steered(args);
  stream::ChaosConfig cfg;
  cfg.seed = std::uint64_t(args.num("seed", 1));
  cfg.steps = positive_int(args, "steps", 60);
  cfg.width = positive_int(args, "width", 128);
  cfg.height = positive_int(args, "height", 96);
  if (args.flag("chaos")) cfg.server.evict_timeout_s = 0.5;
  cfg.population.fast = parse_fleet_flags(args, "", cfg.server);
  if (args.flag("chaos")) {
    cfg.population.slow = args.num("slow", cfg.population.fast);
    cfg.population.flappers = args.num("flappers", cfg.population.fast / 2 + 1);
    cfg.population.churners = args.num("churners", cfg.population.fast / 2 + 1);
  } else {
    cfg.population.slow = args.num("slow", 0);
    cfg.population.flappers = args.num("flappers", 0);
    cfg.population.churners = args.num("churners", 0);
  }
  const RunOutputs outputs(args);
  const SloRequest slo = parse_slo_flags(args, outputs.metrics_json);
  outputs.arm();

  auto result = stream::run_chaos(cfg);

  const int rc = outputs.finish("serve", [&](metrics::RunReport& rr) {
    track_server_report(rr, result.report);
    rr.track("serve_fast_p95_s", result.fast_p95_s, "s");
    fill_e2e_from_server(rr, result.report);
    apply_run_slo(rr, slo, result.report);
  });
  if (rc != 0) return rc;
  print_server_report(result.report);
  std::printf("serve: fast-client p95 latency %.4f s\n", result.fast_p95_s);
  std::printf("serve: run digest %s\n", result.digest.c_str());
  if (!result.ok()) {
    for (const auto& f : result.failures)
      std::fprintf(stderr, "serve: INVARIANT VIOLATION: %s\n", f.c_str());
    return 1;
  }
  std::printf("serve: all invariants held\n");
  return 0;
}

// The remote viewer, offline: replay a --serve-record file through the
// same FrameDecoder the in-process viewer uses. Frames are written under
// their step number (frame_%04d.ppm) so a delivered frame lands on the
// same name the output processor used locally — `cmp` does the rest.
int cmd_view(const Args& args) {
  args.allow_only("view", {"in", "out", "metrics-json"});
  const std::string in = args.require("in");
  const std::string out = args.str("out", "");
  const std::string metrics_json = args.str("metrics-json", "");
  if (!out.empty()) std::filesystem::create_directories(out);
  if (!metrics_json.empty()) metrics::enable();
  std::string err;
  auto frames = stream::read_record_file(in, &err);
  if (!frames) {
    // A capture that ends mid-frame (or lost its trailer) must fail loudly:
    // silently viewing a prefix would hide that the recording is damaged.
    std::fprintf(stderr, "quakeviz view: %s: %s\n", in.c_str(), err.c_str());
    return 1;
  }
  stream::FrameDecoder dec;
  int failures = 0;
  std::vector<double> decode_s;
  decode_s.reserve(frames->size());
  for (const auto& wire : *frames) {
    obs::Stage decode({.histogram = &metrics::histogram("stream.e2e.decode"),
                       .timed = true});
    auto f = dec.decode(wire);
    decode_s.push_back(decode.stop());
    if (metrics::enabled()) metrics::counter("view.frames").add();
    if (!f) {
      std::fprintf(stderr, "decode failure (%zu wire bytes)\n", wire.size());
      ++failures;
      if (metrics::enabled()) metrics::counter("view.decode_failures").add();
      continue;
    }
    std::string sha = util::Sha256::hex(f->image.data(), f->image.byte_count());
    std::printf("step %4d@%-2u  %s tier %d  %4dx%-4d  sha256 %s\n", f->step,
                f->epoch, f->kind == stream::FrameKind::kKey ? "key  " : "delta",
                f->tier, f->image.width(), f->image.height(), sha.c_str());
    if (!out.empty()) {
      char name[64];
      std::snprintf(name, sizeof(name), "/frame_%04d.ppm", f->step);
      if (!img::write_ppm(out + name, f->image)) {
        std::fprintf(stderr, "cannot write %s%s\n", out.c_str(), name);
        return 1;
      }
    }
  }
  if (!metrics_json.empty()) {
    metrics::RunReport rr;
    rr.kind = "view";
    rr.track("view_frames", double(frames->size()), "frames");
    rr.track("view_decode_failures", double(failures), "frames");
    rr.track("view_decode_p95_s", pooled_percentile(decode_s, 95), "s");
    rr.snapshot = metrics::collect();
    metrics::disable();
    if (!metrics::write_json_file(metrics_json, rr)) return 1;
    std::printf("metrics: run report -> %s\n", metrics_json.c_str());
  }
  std::printf("viewed %zu frames, %d decode failures\n", frames->size(),
              failures);
  return failures == 0 ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: quakeviz <generate|info|render|pipeline|insitu|serve|"
               "view> [--key=value ...]\n"
               "see the header of tools/quakeviz.cpp for every option\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  Args args(argc, argv, 2);
  std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "render") return cmd_render(args);
    if (cmd == "pipeline") return cmd_pipeline(args);
    if (cmd == "insitu") return cmd_insitu(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "view") return cmd_view(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
