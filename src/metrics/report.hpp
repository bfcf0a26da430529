// Machine-readable run reports over the metrics registry, and the benchmark
// regression gate built on them.
//
// Schema "qv-run-report" version 2 (JSON):
//   {
//     "schema": "qv-run-report", "version": 2, "kind": "pipeline",
//     "tracked":  [ {"name": "interframe_s", "value": 0.041, "unit": "s"} ],
//     "counters": { "vmpi.send.bytes": 123456, ... },
//     "gauges":   { ... },
//     "histograms": {
//       "span.pipeline.render": {
//         "spec": {"kind": "log2", "min_exp": -30, "max_exp": 12, "sub": 32},
//         "count": 12, "sum": 0.5, "min": 0.03, "max": 0.06,
//         "p50": 0.041, "p95": 0.058, "p99": 0.06,
//         "buckets": [[312, 3], [313, 9]]        // [index, count], nonzero only
//       }
//     },
//     // v2 additions, both optional (streaming runs only):
//     "e2e": { "clients": [ {"id": 0, "frames": 40, "drops": 2,
//                            "p50_s": 0.11, "p95_s": 0.32} ] },
//     "slo": { "target_p95_s": 0.5, "max_drop_rate": 0.1,
//              "observed_p95_s": 0.32, "observed_drop_rate": 0.02,
//              "pass": true }
//   }
// "tracked" is the contract with the gate: the headline metrics a producer
// commits to keeping stable, all lower-is-better. Everything else is context.
// "e2e" carries per-client end-to-end frame latency (per-stage breakdowns
// live in the stream.e2e.* histograms); "slo" is the pass/fail verdict the
// slo-gate checks. Version 2 readers reject version 1 documents: a v1
// baseline silently lacking the new blocks would make the gate vacuous.
//
// The JSON parser (metrics/json.hpp) is deliberately minimal — enough to
// round-trip this schema and run the gate without adding a dependency.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"

namespace qv::metrics {

inline constexpr int kReportVersion = 2;

struct TrackedMetric {
  std::string name;
  double value = 0.0;
  std::string unit;  // "s", "bytes", "count", ...
};

// Per-client end-to-end frame delivery stats (send -> delivered, virtual
// time on the WAN side). Stage-level latency lives in stream.e2e.* histograms.
struct E2eClientStats {
  int id = 0;
  std::uint64_t frames = 0;  // frames delivered to this client
  std::uint64_t drops = 0;   // frames dropped before its queue
  double p50_s = 0.0;
  double p95_s = 0.0;
};

struct E2eBlock {
  std::vector<E2eClientStats> clients;
};

// Service-level objective verdict: target vs observed, judged by the
// producer at report time and re-checked by `bench_report slo`.
struct SloBlock {
  double target_p95_s = 0.0;       // max acceptable p95 e2e frame latency
  double max_drop_rate = 0.0;      // max acceptable dropped/(sent+dropped)
  double observed_p95_s = 0.0;
  double observed_drop_rate = 0.0;
  bool pass = false;
};

struct RunReport {
  std::string kind;  // "pipeline", "insitu", "bench_io_readers", ...
  int version = kReportVersion;
  std::vector<TrackedMetric> tracked;
  Snapshot snapshot;
  std::optional<E2eBlock> e2e;  // streaming runs only
  std::optional<SloBlock> slo;  // only when an SLO was requested

  void track(std::string name, double value, std::string unit) {
    tracked.push_back({std::move(name), value, std::move(unit)});
  }
};

// --- emit -------------------------------------------------------------------
void write_json(std::ostream& os, const RunReport& r);
std::string to_json(const RunReport& r);
// Returns false (and prints to stderr) if the file cannot be written.
bool write_json_file(const std::string& path, const RunReport& r);

// Prometheus-style text exposition of a snapshot ('.' -> '_', cumulative
// "_bucket{le=...}" series, "_sum"/"_count", min/max as gauges).
void write_prometheus(std::ostream& os, const Snapshot& snap);
bool write_prometheus_file(const std::string& path, const Snapshot& snap);

// --- parse ------------------------------------------------------------------
// Parse a qv-run-report JSON document. On failure returns nullopt and, if
// err is non-null, stores a one-line reason.
std::optional<RunReport> parse_report(const std::string& json, std::string* err = nullptr);
std::optional<RunReport> read_report_file(const std::string& path, std::string* err = nullptr);

// --- regression gate --------------------------------------------------------
struct MetricDelta {
  std::string name;
  std::string unit;
  double base = 0.0;
  double current = 0.0;
  double rel_change = 0.0;  // (current - base) / base; 0 when base == 0
  bool regressed = false;   // current worse than base beyond the gate's bound
  bool missing = false;     // tracked in baseline, absent from current
};

struct GateResult {
  std::vector<MetricDelta> rows;
  double threshold = 0.15;
  bool ok = true;
};

// Compare every baseline-tracked metric against the current report. All
// tracked metrics are lower-is-better. A row in bytes, count or MB is
// deterministic and regresses on any increase; any other row regresses at
// current > base * (1 + threshold), and a row in seconds only past an
// absolute floor too, so a 2 ms stage doesn't flap on scheduler noise. A
// tracked metric missing from the current report fails the gate (renames
// must update the baseline deliberately).
GateResult compare_reports(const RunReport& baseline, const RunReport& current,
                           double threshold = 0.15);
std::string format_gate_table(const GateResult& g);

// --- bench harness ----------------------------------------------------------
// Shared envelope for bench_* binaries: parses --json=PATH / --prom=PATH
// from argv, enables the registry, and on finish() writes the report.
// With no flags the bench still runs and prints its usual text.
class BenchReporter {
 public:
  BenchReporter(std::string kind, int argc, char** argv);
  bool json_requested() const { return !json_path_.empty(); }
  void track(std::string name, double value, std::string unit);
  // Collects the registry and writes the requested files; returns the
  // process exit code (1 on write failure).
  int finish();

 private:
  std::string kind_;
  std::string json_path_;
  std::string prom_path_;
  std::vector<TrackedMetric> tracked_;
};

}  // namespace qv::metrics
