// bench_report — inspect qv-run-report files and run the regression gate.
//
//   bench_report compare --baseline=BENCH_x.json --current=run.json
//                [--threshold=0.15]
//       Compare every baseline-tracked metric against the current report,
//       print the per-metric delta table, exit 1 on any regression.
//
//   bench_report print REPORT.json
//       Human-readable dump of a report's tracked metrics and histograms.
//
//   bench_report slo REPORT.json
//       Re-check the report's "slo" block (the quakeviz --slo-* verdict).
//       Exit 0 when the SLO passed, 2 when it failed, 1 when the report is
//       unreadable or carries no slo block — an SLO that silently vanished
//       must not read as green.
//
//   bench_report validate-lineage DUMP.json
//       Structurally validate a flight-recorder dump ("qv-flight-recorder"
//       v1): channels are rank/client with event arrays, every event names
//       its stage and a wall/virtual domain. Exit 0 iff valid.
//
//   bench_report selftest
//       Deterministic demonstration that the gate trips: builds a synthetic
//       baseline, a passing current (+5%), and a failing current (+30%),
//       and verifies PASS/FAIL come out as expected; round-trips the v2
//       e2e/slo blocks and confirms v1 input is rejected. Exit 0 iff correct.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "metrics/json.hpp"
#include "metrics/report.hpp"
#include "util/parse.hpp"

namespace {

using namespace qv::metrics;

std::string opt_value(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
  }
  return "";
}

int cmd_compare(int argc, char** argv) {
  const std::string base_path = opt_value(argc, argv, "baseline");
  const std::string cur_path = opt_value(argc, argv, "current");
  if (base_path.empty() || cur_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_report compare --baseline=F --current=F "
                 "[--threshold=0.15]\n");
    return 2;
  }
  double threshold = 0.15;
  const std::string t = opt_value(argc, argv, "threshold");
  if (!t.empty()) {
    auto v = qv::util::parse_real(t);
    if (!v) {
      std::fprintf(stderr,
                   "invalid value for --threshold: '%s' (expected a number)\n",
                   t.c_str());
      return 2;
    }
    threshold = *v;
  }

  std::string err;
  auto base = read_report_file(base_path, &err);
  if (!base) {
    std::fprintf(stderr, "baseline %s: %s\n", base_path.c_str(), err.c_str());
    return 2;
  }
  auto cur = read_report_file(cur_path, &err);
  if (!cur) {
    std::fprintf(stderr, "current %s: %s\n", cur_path.c_str(), err.c_str());
    return 2;
  }
  GateResult g = compare_reports(*base, *cur, threshold);
  std::printf("%s vs %s (kind %s)\n", base_path.c_str(), cur_path.c_str(),
              base->kind.c_str());
  std::printf("%s", format_gate_table(g).c_str());
  return g.ok ? 0 : 1;
}

int cmd_print(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: bench_report print REPORT.json\n");
    return 2;
  }
  std::string err;
  auto r = read_report_file(argv[2], &err);
  if (!r) {
    std::fprintf(stderr, "%s: %s\n", argv[2], err.c_str());
    return 2;
  }
  std::printf("kind: %s (schema v%d)\n", r->kind.c_str(), r->version);
  std::printf("tracked:\n");
  for (const auto& m : r->tracked) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!r->snapshot.counters.empty()) {
    std::printf("counters:\n");
    for (const auto& [name, v] : r->snapshot.counters) {
      std::printf("  %-36s %14llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    }
  }
  if (!r->snapshot.histograms.empty()) {
    std::printf("histograms:\n");
    for (const auto& [name, h] : r->snapshot.histograms) {
      std::printf("  %-36s n=%-8llu p50=%.6g p95=%.6g p99=%.6g max=%.6g\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  h.percentile(50), h.percentile(95), h.percentile(99),
                  h.count ? h.max : 0.0);
    }
  }
  if (r->e2e) {
    std::printf("e2e clients:\n");
    for (const auto& c : r->e2e->clients) {
      std::printf("  client %-4d frames=%-8llu drops=%-6llu p50=%.6g "
                  "p95=%.6g\n",
                  c.id, static_cast<unsigned long long>(c.frames),
                  static_cast<unsigned long long>(c.drops), c.p50_s, c.p95_s);
    }
  }
  if (r->slo) {
    std::printf("slo: p95 %.6g/%.6g s, drop %.6g/%.6g -> %s\n",
                r->slo->observed_p95_s, r->slo->target_p95_s,
                r->slo->observed_drop_rate, r->slo->max_drop_rate,
                r->slo->pass ? "PASS" : "FAIL");
  }
  return 0;
}

int cmd_slo(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: bench_report slo REPORT.json\n");
    return 2;
  }
  std::string err;
  auto r = read_report_file(argv[2], &err);
  if (!r) {
    std::fprintf(stderr, "%s: %s\n", argv[2], err.c_str());
    return 1;
  }
  if (!r->slo) {
    std::fprintf(stderr, "%s: no slo block (run quakeviz with --slo-p95/"
                 "--slo-drop)\n", argv[2]);
    return 1;
  }
  const SloBlock& s = *r->slo;
  std::printf("slo: p95 %.6g s (target %.6g s) | drop rate %.6g (max %.6g) "
              "-> %s\n",
              s.observed_p95_s, s.target_p95_s, s.observed_drop_rate,
              s.max_drop_rate, s.pass ? "PASS" : "FAIL");
  // Re-derive the verdict: a producer bug that wrote pass=true next to an
  // out-of-target observation must not sneak through the gate.
  const bool rederived = s.observed_p95_s <= s.target_p95_s &&
                         s.observed_drop_rate <= s.max_drop_rate;
  if (rederived != s.pass) {
    std::fprintf(stderr, "slo: stored pass=%s contradicts the numbers\n",
                 s.pass ? "true" : "false");
    return 2;
  }
  return s.pass ? 0 : 2;
}

int cmd_validate_lineage(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: bench_report validate-lineage DUMP.json\n");
    return 2;
  }
  std::ifstream in(argv[2], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", argv[2]);
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  auto doc = parse_json(ss.str(), &err);
  const auto fail = [&](const char* what) {
    std::fprintf(stderr, "%s: invalid flight-recorder dump: %s\n", argv[2],
                 what);
    return 1;
  };
  if (!doc) {
    std::fprintf(stderr, "%s: %s\n", argv[2], err.c_str());
    return 1;
  }
  const Json* schema = doc->find("schema");
  if (!schema || !schema->is_string() || schema->str() != "qv-flight-recorder")
    return fail("schema is not qv-flight-recorder");
  const Json* version = doc->find("version");
  if (!version || !version->is_number() || version->num() != 1)
    return fail("unsupported version");
  const Json* reason = doc->find("reason");
  if (!reason || !reason->is_string()) return fail("missing reason");
  const Json* channels = doc->find("channels");
  if (!channels || !channels->is_array()) return fail("missing channels");
  std::size_t events = 0;
  for (const Json& ch : channels->arr()) {
    const Json* kind = ch.find("kind");
    if (!kind || !kind->is_string() ||
        (kind->str() != "rank" && kind->str() != "client"))
      return fail("channel kind is not rank/client");
    const Json* id = ch.find("id");
    if (!id || !id->is_number()) return fail("channel missing id");
    const Json* evs = ch.find("events");
    if (!evs || !evs->is_array()) return fail("channel missing events");
    for (const Json& e : evs->arr()) {
      for (const char* key : {"step", "epoch", "t_s", "dur_s"}) {
        const Json* f = e.find(key);
        if (!f || !f->is_number()) return fail("event missing numeric field");
      }
      const Json* stage = e.find("stage");
      if (!stage || !stage->is_string() || stage->str().empty())
        return fail("event missing stage");
      const Json* domain = e.find("domain");
      if (!domain || !domain->is_string() ||
          (domain->str() != "wall" && domain->str() != "virtual"))
        return fail("event domain is not wall/virtual");
      ++events;
    }
  }
  std::printf("%s: valid qv-flight-recorder v1 (reason \"%s\", %zu channels, "
              "%zu events)\n",
              argv[2], reason->str().c_str(), channels->arr().size(), events);
  return 0;
}

// A timing row scaled by `scale` and a byte row `extra_bytes` over 1 MB.
RunReport synthetic_report(double scale, double extra_bytes = 0.0) {
  RunReport r;
  r.kind = "selftest";
  r.track("interframe_s", 0.100 * scale, "s");
  r.track("io_bytes", 1.0e6 + extra_bytes, "bytes");
  return r;
}

int cmd_selftest() {
  const RunReport base = synthetic_report(1.0);
  // A +5% timing stays under the 15% threshold; +30% must trip it, and so
  // must one byte more on the exact byte row.
  GateResult pass = compare_reports(base, synthetic_report(1.05), 0.15);
  GateResult fail = compare_reports(base, synthetic_report(1.30), 0.15);
  GateResult byte = compare_reports(base, synthetic_report(1.0, 1.0), 0.15);
  // Round-trip through JSON, as the real gate does with files on disk.
  std::string err;
  auto parsed = parse_report(to_json(base), &err);
  bool roundtrip = parsed && parsed->tracked.size() == base.tracked.size() &&
                   parsed->tracked[0].value == base.tracked[0].value;
  if (!roundtrip) {
    std::fprintf(stderr, "selftest: JSON round-trip failed (%s)\n",
                 err.c_str());
    return 1;
  }
  std::printf("selftest: +5%% -> %s, +30%% -> %s, +1 byte -> %s\n",
              pass.ok ? "PASS" : "FAIL", fail.ok ? "PASS" : "FAIL",
              byte.ok ? "PASS" : "FAIL");
  std::printf("%s", format_gate_table(fail).c_str());
  if (!pass.ok || fail.ok || byte.ok) {
    std::fprintf(stderr, "selftest: gate verdicts are wrong\n");
    return 1;
  }
  // v2 blocks: e2e + slo must survive a JSON round-trip intact.
  RunReport v2 = synthetic_report(1.0);
  v2.e2e = E2eBlock{{{/*id=*/3, /*frames=*/40, /*drops=*/2, 0.11, 0.32}}};
  v2.slo = SloBlock{0.5, 0.1, 0.32, 0.02, true};
  auto v2p = parse_report(to_json(v2), &err);
  const bool v2ok =
      v2p && v2p->e2e && v2p->e2e->clients.size() == 1 &&
      v2p->e2e->clients[0].id == 3 && v2p->e2e->clients[0].frames == 40 &&
      v2p->e2e->clients[0].drops == 2 &&
      v2p->e2e->clients[0].p95_s == 0.32 && v2p->slo &&
      v2p->slo->target_p95_s == 0.5 && v2p->slo->observed_p95_s == 0.32 &&
      v2p->slo->pass;
  if (!v2ok) {
    std::fprintf(stderr, "selftest: e2e/slo round-trip failed (%s)\n",
                 err.c_str());
    return 1;
  }
  // A v1 document must be rejected: a stale baseline silently missing the
  // new blocks would make the slo gate vacuous.
  std::string v1 = to_json(base);
  const std::string needle = "\"version\": 2";
  const auto at = v1.find(needle);
  if (at == std::string::npos) {
    std::fprintf(stderr, "selftest: emitted JSON does not declare v2\n");
    return 1;
  }
  v1.replace(at, needle.size(), "\"version\": 1");
  err.clear();
  if (parse_report(v1, &err)) {
    std::fprintf(stderr, "selftest: v1 input was not rejected\n");
    return 1;
  }
  std::printf("selftest: v1 input rejected (%s)\n", err.c_str());
  std::printf("selftest: ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    if (std::strcmp(argv[1], "compare") == 0) return cmd_compare(argc, argv);
    if (std::strcmp(argv[1], "print") == 0) return cmd_print(argc, argv);
    if (std::strcmp(argv[1], "slo") == 0) return cmd_slo(argc, argv);
    if (std::strcmp(argv[1], "validate-lineage") == 0)
      return cmd_validate_lineage(argc, argv);
    if (std::strcmp(argv[1], "selftest") == 0) return cmd_selftest();
  }
  std::fprintf(stderr,
               "usage: bench_report <compare|print|slo|validate-lineage|"
               "selftest> [options]\n"
               "  compare --baseline=F --current=F [--threshold=0.15]\n"
               "  print REPORT.json\n"
               "  slo REPORT.json\n"
               "  validate-lineage DUMP.json\n"
               "  selftest\n");
  return 2;
}
