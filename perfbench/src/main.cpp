// perfbench: runs one benchmark workload and writes its raw result (timing
// samples, probe readings, counters, spans, check tally) as JSON.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <path>
//
// perfbench/run.py builds this binary, runs it, and reports the metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common/logging.h"
#include "harness.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <enterprise1-exact|"
               "multiperiod-t4|federal-heuristic|daemon-mixed> --seed <n> "
               "--seconds <s> --trace <0|1> --out <path>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else {
      return usage();
    }
  }
  const bool known = perfbench::is_solver_workload(args.workload) ||
                     args.workload == "daemon-mixed";
  if (argc % 2 != 1 || !known || out_path.empty() || !(args.seconds > 0.0)) {
    return usage();
  }
  // The daemon logs every job at info level; keep stderr for problems.
  etransform::set_log_level(etransform::LogLevel::kWarning);
  try {
    const etransform::json::Value result =
        perfbench::is_solver_workload(args.workload)
            ? perfbench::run_solver_workload(args)
            : perfbench::run_daemon_workload(args);
    std::ofstream out(out_path);
    out << result.dump() << '\n';
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
