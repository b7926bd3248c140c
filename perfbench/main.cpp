//===- perfbench/main.cpp - Benchmark entry point -------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--workdir <dir>] [--commit <id>]
///
/// Runs one workload for about --seconds, checks its outputs, and prints
/// every metric by name and unit, then a meta line (seed, commit, nproc,
/// compiler, build type, thread counts) and, last, one JSON object with
/// the keys correct, attempted, failed and metrics. --trace 0 reports
/// the end-to-end metrics; --trace 1 reports the per-layer metrics and
/// writes the recorded spans under --workdir.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fig9-aggregates|fleet-socket-interleaved"
               "|session-ops --seed N --seconds S --trace 0|1 "
               "[--workdir DIR] [--commit ID]\n",
               Argv0);
  return 2;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out + "\"";
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  std::string Commit = "unknown";
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    auto Next = [&](const char *Flag) -> const char * {
      if (std::strcmp(argv[I], Flag) != 0 || I + 1 >= argc)
        return nullptr;
      return argv[++I];
    };
    if (const char *V = Next("--workload"))
      O.Workload = V;
    else if (const char *V = Next("--seed"))
      O.Seed = std::strtoull(V, nullptr, 10), HaveSeed = true;
    else if (const char *V = Next("--seconds"))
      O.Seconds = std::atof(V), HaveSeconds = true;
    else if (const char *V = Next("--trace"))
      O.Trace = std::strcmp(V, "1") == 0, HaveTrace = true;
    else if (const char *V = Next("--workdir"))
      O.WorkDir = V;
    else if (const char *V = Next("--commit"))
      Commit = V;
    else
      return usage(argv[0]);
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || O.Seconds <= 0)
    return usage(argv[0]);

  Report R;
  if (O.Workload == "fig9-aggregates")
    runFig9(O, R);
  else if (O.Workload == "fleet-socket-interleaved")
    runFleetSocket(O, R);
  else if (O.Workload == "session-ops")
    runSessionOps(O, R);
  else
    return usage(argv[0]);

  std::printf("%s (%s run, seed %llu)\n", O.Workload.c_str(),
              O.Trace ? "traced" : "untraced",
              static_cast<unsigned long long>(O.Seed));
  for (const Report::Metric &M : R.Metrics)
    std::printf("  %-34s %16.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  double FailedRatio =
      R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 0;
  std::printf("  %-34s %16.6g (failed / attempted operations)\n",
              "failed_ratio", FailedRatio);
  if (O.Trace) {
    bool Repeat = false;
    for (const Report::Metric &M : R.Metrics)
      if (M.Name == "trace.counts_repeat")
        Repeat = M.Value == 1;
    if (!Repeat)
      std::printf("  NON-DETERMINISTIC: two counting passes disagree on "
                  "alloc.* or value.identity_changes_per_event\n");
  }
  for (size_t I = 0; I != std::min<size_t>(R.Problems.size(), 20); ++I)
    std::printf("  %s\n", R.Problems[I].c_str());
  if (R.Problems.size() > 20)
    std::printf("  ... %zu more problems\n", R.Problems.size() - 20);

  std::string Meta = "{\"meta\": {\"workload\": " + jsonString(O.Workload) +
                     ", \"seed\": " + std::to_string(O.Seed) +
                     ", \"commit\": " + jsonString(Commit) +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
                     ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
                     ", \"failed_ratio\": " + std::to_string(FailedRatio);
  for (const auto &[K, V] : R.Meta)
    Meta += ", " + jsonString(K) + ": " + jsonString(V);
  std::printf("%s}}\n", Meta.c_str());

  std::string Line = std::string("{\"correct\": ") +
                     (R.Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    char Num[64];
    std::snprintf(Num, sizeof Num, "%.17g", R.Metrics[I].Value);
    Line += (I ? ", " : "") + jsonString(R.Metrics[I].Name) +
            ": {\"value\": " + Num +
            ", \"unit\": " + jsonString(R.Metrics[I].Unit) + "}";
  }
  std::printf("%s}}\n", Line.c_str());
  return 0;
}
