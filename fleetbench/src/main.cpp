// fleetbench — the fleet benchmark's program (fleetbench/README.md).
//
//   fleetbench prepare --seed N --out DIR
//       writes the seed's base artifact, fleet shard and user lists
//   fleetbench run --workload NAME --seed N --seconds S --trace 0|1
//                  --inputs DIR [--trace-out FILE]
//       measures one workload; the last stdout line is the result object
//   fleetbench metrics
//       prints the workload and metric table as JSON
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "fleet.h"
#include "workloads.h"

namespace {

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("expected --flag value, got " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::uint64_t parse_seed(const std::string& s) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(s, &used);
  if (used != s.size()) throw std::invalid_argument("bad seed " + s);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "metrics") {
      fleetbench::print_metric_table();
      return 0;
    }
    const auto flags = parse_flags(argc, argv);
    if (cmd == "prepare") {
      fleetbench::prepare_inputs(parse_seed(need(flags, "seed")),
                                 need(flags, "out"));
      return 0;
    }
    if (cmd == "run") {
      fleetbench::RunArgs a;
      a.workload = need(flags, "workload");
      a.seed = parse_seed(need(flags, "seed"));
      a.seconds = std::stod(need(flags, "seconds"));
      const std::string trace = need(flags, "trace");
      if (trace != "0" && trace != "1")
        throw std::invalid_argument("--trace must be 0 or 1");
      a.trace = trace == "1";
      a.inputs = need(flags, "inputs");
      if (flags.count("trace-out")) a.trace_out = flags.at("trace-out");
      return fleetbench::run_workload(a);
    }
    std::fprintf(stderr, "usage: fleetbench prepare|run|metrics (see "
                         "fleetbench/README.md)\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 1;
  }
}
