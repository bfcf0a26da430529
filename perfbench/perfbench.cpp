// perfbench: the measuring program behind perfbench/run.py.
//
//   perfbench gen --workload W --seed N --out DIR [--tiny]
//       write the seeded inputs of workload W (dataset, or steering trace)
//       into DIR.
//   perfbench run --workload W --inputs DIR --seconds S --trace 0|1 [--tiny]
//       measure W on the inputs in DIR for about S seconds. Prints
//       `output_digest: <sha256>` and, as the last line, one JSON object
//       {"correct", "attempted", "failed", "metrics"}: the end-to-end
//       metrics with --trace 0, the per-layer metrics with --trace 1.
//       Exit 1 when an output check failed.
//   perfbench selftest --scratch DIR
//       feed the output checkers a corrupted frame and a wrong epoch echo
//       and require both to be caught.
//   perfbench version
//       compiler and build type, as JSON.
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "perfbench.hpp"
#include "util/parse.hpp"

namespace {

using perfbench::Result;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed N --out DIR [--tiny]\n"
               "       perfbench run --workload W --inputs DIR --seconds S "
               "--trace 0|1 [--tiny]\n"
               "       perfbench selftest --scratch DIR\n"
               "       perfbench version\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void print_result(const Result& r) {
  std::printf("output_digest: %s\n", r.output_digest.c_str());
  for (const auto& p : r.problems)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  std::string m;
  for (const auto& [name, metric] : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    if (!m.empty()) m.append(", ");
    m.append("\"").append(json_escape(name)).append("\": {\"value\": ");
    m.append(value).append(", \"unit\": \"").append(json_escape(metric.unit));
    m.append("\"}");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), m.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> flags;
  bool tiny = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      tiny = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[a.substr(2)] = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: unexpected argument '%s'\n", a.c_str());
      return usage();
    }
  }
  auto need = [&](const char* name) -> const std::string& {
    auto it = flags.find(name);
    if (it == flags.end())
      throw std::invalid_argument(std::string("missing --") + name);
    return it->second;
  };

  try {
    if (cmd == "version") {
      std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                  json_escape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE);
      return 0;
    }
    if (cmd == "selftest") {
      return perfbench::checker_selftest(need("scratch")) ? 0 : 1;
    }
    const std::string& workload = need("workload");
    if (!perfbench::is_workload(workload))
      throw std::invalid_argument("unknown workload '" + workload + "'");
    if (cmd == "gen") {
      const auto seed = qv::util::parse_int(need("seed"));
      if (!seed || *seed < 0) throw std::invalid_argument("bad --seed");
      perfbench::generate_inputs(workload, std::uint64_t(*seed), tiny,
                                 need("out"));
      return 0;
    }
    if (cmd == "run") {
      perfbench::RunOptions opt;
      opt.workload = workload;
      opt.inputs = need("inputs");
      const auto seconds = qv::util::parse_real(need("seconds"));
      if (!seconds || !(*seconds > 0.0))
        throw std::invalid_argument("bad --seconds");
      opt.seconds = *seconds;
      const std::string& trace = need("trace");
      if (trace != "0" && trace != "1")
        throw std::invalid_argument("--trace must be 0 or 1");
      opt.traced = trace == "1";
      opt.tiny = tiny;
      const Result r = perfbench::run_workload(opt);
      print_result(r);
      return r.correct ? 0 : 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  return usage();
}
