#include "metrics/report.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "metrics/json.hpp"

namespace qv::metrics {
namespace {

// %.17g round-trips doubles exactly; trim to a clean integer form when
// possible so counters don't render as 1.2300000000000000e+05.
std::string fmt_double(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_histogram_json(std::ostream& os, const HistogramSnapshot& h) {
  os << "{\"spec\": ";
  if (h.spec.kind == HistogramSpec::Kind::kFixed) {
    os << "{\"kind\": \"fixed\", \"bounds\": [";
    for (size_t i = 0; i < h.spec.bounds.size(); ++i) {
      if (i) os << ", ";
      os << fmt_double(h.spec.bounds[i]);
    }
    os << "]}";
  } else {
    os << "{\"kind\": \"log2\", \"min_exp\": " << h.spec.min_exp
       << ", \"max_exp\": " << h.spec.max_exp << ", \"sub\": " << h.spec.sub_buckets
       << "}";
  }
  os << ", \"count\": " << h.count << ", \"sum\": " << fmt_double(h.sum)
     << ", \"min\": " << fmt_double(h.min) << ", \"max\": " << fmt_double(h.max)
     << ", \"p50\": " << fmt_double(h.percentile(50))
     << ", \"p95\": " << fmt_double(h.percentile(95))
     << ", \"p99\": " << fmt_double(h.percentile(99)) << ", \"buckets\": [";
  bool first = true;
  for (size_t i = 0; i < h.counts.size(); ++i) {
    if (h.counts[i] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "[" << i << ", " << h.counts[i] << "]";
  }
  os << "]}";
}

}  // namespace

void write_json(std::ostream& os, const RunReport& r) {
  os << "{\n  \"schema\": \"qv-run-report\",\n  \"version\": " << r.version
     << ",\n  \"kind\": \"" << json_escape(r.kind) << "\",\n  \"tracked\": [";
  for (size_t i = 0; i < r.tracked.size(); ++i) {
    const auto& t = r.tracked[i];
    os << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << json_escape(t.name)
       << "\", \"value\": " << fmt_double(t.value) << ", \"unit\": \""
       << json_escape(t.unit) << "\"}";
  }
  os << (r.tracked.empty() ? "" : "\n  ") << "],\n  \"counters\": {";
  {
    bool first = true;
    for (const auto& [name, v] : r.snapshot.counters) {
      os << (first ? "\n    " : ",\n    ") << "\"" << json_escape(name) << "\": " << v;
      first = false;
    }
    if (!first) os << "\n  ";
  }
  os << "},\n  \"gauges\": {";
  {
    bool first = true;
    for (const auto& [name, v] : r.snapshot.gauges) {
      os << (first ? "\n    " : ",\n    ") << "\"" << json_escape(name)
         << "\": " << fmt_double(v);
      first = false;
    }
    if (!first) os << "\n  ";
  }
  os << "},\n  \"histograms\": {";
  {
    bool first = true;
    for (const auto& [name, h] : r.snapshot.histograms) {
      os << (first ? "\n    " : ",\n    ") << "\"" << json_escape(name) << "\": ";
      write_histogram_json(os, h);
      first = false;
    }
    if (!first) os << "\n  ";
  }
  os << "}";
  if (r.e2e) {
    os << ",\n  \"e2e\": {\n    \"clients\": [";
    const auto& clients = r.e2e->clients;
    for (size_t i = 0; i < clients.size(); ++i) {
      const auto& c = clients[i];
      os << (i ? ",\n      " : "\n      ") << "{\"id\": " << c.id
         << ", \"frames\": " << c.frames << ", \"drops\": " << c.drops
         << ", \"p50_s\": " << fmt_double(c.p50_s)
         << ", \"p95_s\": " << fmt_double(c.p95_s) << "}";
    }
    os << (clients.empty() ? "" : "\n    ") << "]\n  }";
  }
  if (r.slo) {
    os << ",\n  \"slo\": {\"target_p95_s\": " << fmt_double(r.slo->target_p95_s)
       << ", \"max_drop_rate\": " << fmt_double(r.slo->max_drop_rate)
       << ", \"observed_p95_s\": " << fmt_double(r.slo->observed_p95_s)
       << ", \"observed_drop_rate\": " << fmt_double(r.slo->observed_drop_rate)
       << ", \"pass\": " << (r.slo->pass ? "true" : "false") << "}";
  }
  os << "\n}\n";
}

std::string to_json(const RunReport& r) {
  std::ostringstream os;
  write_json(os, r);
  return os.str();
}

bool write_json_file(const std::string& path, const RunReport& r) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "metrics: cannot open %s for writing\n", path.c_str());
    return false;
  }
  write_json(f, r);
  f.flush();
  return bool(f);
}

// --- Prometheus -------------------------------------------------------------

namespace {
std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') c = '_';
  }
  return out;
}
}  // namespace

void write_prometheus(std::ostream& os, const Snapshot& snap) {
  for (const auto& [name, v] : snap.counters) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " counter\n" << n << " " << v << "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " gauge\n" << n << " " << fmt_double(v) << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string n = prom_name(name);
    os << "# TYPE " << n << " histogram\n";
    std::uint64_t cum = 0;
    for (size_t i = 0; i < h.counts.size(); ++i) {
      if (h.counts[i] == 0) continue;  // keep the dump scannable
      cum += h.counts[i];
      const double hi = h.spec.bucket_hi(int(i));
      if (std::isinf(hi)) continue;  // overflow folds into the +Inf series
      os << n << "_bucket{le=\"" << fmt_double(hi) << "\"} " << cum << "\n";
    }
    os << n << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << n << "_sum " << fmt_double(h.sum) << "\n";
    os << n << "_count " << h.count << "\n";
    if (h.count) {
      os << n << "_min " << fmt_double(h.min) << "\n";
      os << n << "_max " << fmt_double(h.max) << "\n";
      os << n << "_p50 " << fmt_double(h.percentile(50)) << "\n";
      os << n << "_p95 " << fmt_double(h.percentile(95)) << "\n";
      os << n << "_p99 " << fmt_double(h.percentile(99)) << "\n";
    }
  }
}

bool write_prometheus_file(const std::string& path, const Snapshot& snap) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "metrics: cannot open %s for writing\n", path.c_str());
    return false;
  }
  write_prometheus(f, snap);
  f.flush();
  return bool(f);
}

// --- parse (shared minimal JSON parser lives in metrics/json.hpp) ----------

namespace {

bool parse_histogram(const Json& j, HistogramSnapshot* out, std::string* err) {
  const Json* spec = j.find("spec");
  if (!spec || !spec->is_object()) {
    if (err) *err = "histogram missing spec";
    return false;
  }
  const Json* kind = spec->find("kind");
  if (!kind || !kind->is_string()) {
    if (err) *err = "histogram spec missing kind";
    return false;
  }
  try {
    if (kind->str() == "fixed") {
      const Json* bounds = spec->find("bounds");
      if (!bounds || !bounds->is_array()) {
        if (err) *err = "fixed histogram missing bounds";
        return false;
      }
      std::vector<double> edges;
      for (const auto& b : bounds->arr()) edges.push_back(b.num());
      out->spec = HistogramSpec::fixed(std::move(edges));
    } else if (kind->str() == "log2") {
      const Json* mn = spec->find("min_exp");
      const Json* mx = spec->find("max_exp");
      const Json* sb = spec->find("sub");
      if (!mn || !mx || !sb) {
        if (err) *err = "log2 histogram spec incomplete";
        return false;
      }
      out->spec = HistogramSpec::log2(int(mn->num()), int(mx->num()), int(sb->num()));
    } else {
      if (err) *err = "unknown histogram kind " + kind->str();
      return false;
    }
  } catch (const std::exception& e) {
    if (err) *err = e.what();
    return false;
  }
  out->counts.assign(size_t(out->spec.bucket_count()), 0);
  const Json* buckets = j.find("buckets");
  if (buckets && buckets->is_array()) {
    for (const auto& b : buckets->arr()) {
      if (!b.is_array() || b.arr().size() != 2) {
        if (err) *err = "bad bucket entry";
        return false;
      }
      const size_t idx = size_t(b.arr()[0].num());
      if (idx >= out->counts.size()) {
        if (err) *err = "bucket index out of range";
        return false;
      }
      out->counts[idx] = std::uint64_t(b.arr()[1].num());
    }
  }
  auto num_or = [&](const char* key, double fb) {
    const Json* v = j.find(key);
    return v && v->is_number() ? v->num() : fb;
  };
  out->count = std::uint64_t(num_or("count", 0));
  out->sum = num_or("sum", 0.0);
  out->min = num_or("min", 0.0);
  out->max = num_or("max", 0.0);
  return true;
}

}  // namespace

std::optional<RunReport> parse_report(const std::string& json, std::string* err) {
  std::string perr;
  auto root = parse_json(json, &perr);
  if (!root) {
    if (err) *err = perr.empty() ? "parse error" : perr;
    return std::nullopt;
  }
  const Json* schema = root->find("schema");
  if (!schema || !schema->is_string() || schema->str() != "qv-run-report") {
    if (err) *err = "not a qv-run-report document";
    return std::nullopt;
  }
  RunReport r;
  const Json* version = root->find("version");
  r.version = version && version->is_number() ? int(version->num()) : 0;
  if (r.version != kReportVersion) {
    if (err) *err = "unsupported report version " + std::to_string(r.version);
    return std::nullopt;
  }
  if (const Json* kind = root->find("kind"); kind && kind->is_string()) {
    r.kind = kind->str();
  }
  if (const Json* tracked = root->find("tracked"); tracked && tracked->is_array()) {
    for (const auto& t : tracked->arr()) {
      const Json* name = t.find("name");
      const Json* value = t.find("value");
      if (!name || !name->is_string() || !value || !value->is_number()) {
        if (err) *err = "bad tracked entry";
        return std::nullopt;
      }
      const Json* unit = t.find("unit");
      r.tracked.push_back(
          {name->str(), value->num(), unit && unit->is_string() ? unit->str() : ""});
    }
  }
  if (const Json* counters = root->find("counters"); counters && counters->is_object()) {
    for (const auto& [name, v] : counters->obj()) {
      if (v.is_number()) r.snapshot.counters[name] = std::uint64_t(v.num());
    }
  }
  if (const Json* gauges = root->find("gauges"); gauges && gauges->is_object()) {
    for (const auto& [name, v] : gauges->obj()) {
      if (v.is_number()) r.snapshot.gauges[name] = v.num();
    }
  }
  if (const Json* hists = root->find("histograms"); hists && hists->is_object()) {
    for (const auto& [name, v] : hists->obj()) {
      HistogramSnapshot h;
      std::string herr;
      if (!parse_histogram(v, &h, &herr)) {
        if (err) *err = "histogram " + name + ": " + herr;
        return std::nullopt;
      }
      r.snapshot.histograms[name] = std::move(h);
    }
  }
  auto num_of = [](const Json& j, const char* key) {
    const Json* v = j.find(key);
    return v && v->is_number() ? v->num() : 0.0;
  };
  if (const Json* e2e = root->find("e2e"); e2e && e2e->is_object()) {
    E2eBlock block;
    if (const Json* clients = e2e->find("clients"); clients && clients->is_array()) {
      for (const auto& c : clients->arr()) {
        if (!c.is_object()) {
          if (err) *err = "bad e2e client entry";
          return std::nullopt;
        }
        E2eClientStats s;
        s.id = int(num_of(c, "id"));
        s.frames = std::uint64_t(num_of(c, "frames"));
        s.drops = std::uint64_t(num_of(c, "drops"));
        s.p50_s = num_of(c, "p50_s");
        s.p95_s = num_of(c, "p95_s");
        block.clients.push_back(s);
      }
    }
    r.e2e = std::move(block);
  }
  if (const Json* slo = root->find("slo"); slo && slo->is_object()) {
    SloBlock b;
    b.target_p95_s = num_of(*slo, "target_p95_s");
    b.max_drop_rate = num_of(*slo, "max_drop_rate");
    b.observed_p95_s = num_of(*slo, "observed_p95_s");
    b.observed_drop_rate = num_of(*slo, "observed_drop_rate");
    const Json* pass = slo->find("pass");
    b.pass = pass && pass->is_bool() && pass->boolean();
    r.slo = b;
  }
  return r;
}

std::optional<RunReport> read_report_file(const std::string& path, std::string* err) {
  std::ifstream f(path);
  if (!f) {
    if (err) *err = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse_report(ss.str(), err);
}

// --- gate -------------------------------------------------------------------

GateResult compare_reports(const RunReport& baseline, const RunReport& current,
                           double threshold) {
  GateResult g;
  g.threshold = threshold;
  for (const auto& base : baseline.tracked) {
    MetricDelta d;
    d.name = base.name;
    d.unit = base.unit;
    d.base = base.value;
    const TrackedMetric* cur = nullptr;
    for (const auto& c : current.tracked) {
      if (c.name == base.name) {
        cur = &c;
        break;
      }
    }
    if (!cur) {
      d.missing = true;
      d.regressed = true;
    } else {
      d.current = cur->value;
      d.rel_change = d.base != 0.0 ? (d.current - d.base) / d.base : 0.0;
      // Byte and count rows are deterministic: any increase regresses. The
      // rest get the threshold, and seconds an absolute floor too, so tiny
      // timings regress only on real movement, not scheduler jitter.
      const bool exact =
          base.unit == "bytes" || base.unit == "count" || base.unit == "MB";
      const double abs_floor = base.unit == "s" ? 2e-3 : 0.0;
      d.regressed = exact ? d.current > d.base
                          : d.current > d.base * (1.0 + threshold) &&
                                d.current - d.base > abs_floor;
    }
    if (d.regressed) g.ok = false;
    g.rows.push_back(std::move(d));
  }
  return g;
}

std::string format_gate_table(const GateResult& g) {
  std::ostringstream os;
  char line[256];
  // Display-only rounding; the JSON keeps full precision via fmt_double.
  auto disp = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  std::snprintf(line, sizeof line, "%-36s %14s %14s %9s  %s\n", "tracked metric",
                "baseline", "current", "delta", "status");
  os << line;
  for (const auto& d : g.rows) {
    if (d.missing) {
      std::snprintf(line, sizeof line, "%-36s %14s %14s %9s  %s\n", d.name.c_str(),
                    disp(d.base).c_str(), "-", "-", "MISSING");
    } else {
      std::snprintf(line, sizeof line, "%-36s %14s %14s %+8.1f%%  %s\n", d.name.c_str(),
                    disp(d.base).c_str(), disp(d.current).c_str(),
                    d.rel_change * 100.0, d.regressed ? "REGRESSED" : "ok");
    }
    os << line;
  }
  std::snprintf(line, sizeof line, "gate: %s (threshold %+.0f%%)\n",
                g.ok ? "PASS" : "FAIL", g.threshold * 100.0);
  os << line;
  return os.str();
}

// --- BenchReporter ----------------------------------------------------------

BenchReporter::BenchReporter(std::string kind, int argc, char** argv)
    : kind_(std::move(kind)) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) json_path_ = a.substr(7);
    else if (a.rfind("--prom=", 0) == 0) prom_path_ = a.substr(7);
  }
  // Collect histograms too when a report was asked for; benches measure the
  // same code either way, baseline and current runs both pay the (small)
  // instrumented cost, so the comparison stays apples-to-apples.
  if (!json_path_.empty() || !prom_path_.empty()) enable();
}

void BenchReporter::track(std::string name, double value, std::string unit) {
  tracked_.push_back({std::move(name), value, std::move(unit)});
}

int BenchReporter::finish() {
  if (json_path_.empty() && prom_path_.empty()) return 0;
  RunReport r;
  r.kind = kind_;
  r.tracked = tracked_;
  r.snapshot = collect();
  disable();
  bool ok = true;
  if (!json_path_.empty()) ok = write_json_file(json_path_, r) && ok;
  if (!prom_path_.empty()) ok = write_prometheus_file(prom_path_, r.snapshot) && ok;
  if (ok && !json_path_.empty()) {
    std::printf("\nrun report (%s): %s\n", kind_.c_str(), json_path_.c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace qv::metrics
