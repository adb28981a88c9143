//===- perfbench/src/main.cpp - ALF benchmark entry point -------------------===//
//
// Runs one workload of the ALF benchmark and prints its result as the
// last line of standard output:
//
//   alf_perfbench --workload compile|kernels|serve|runtime --seed N
//                 --seconds S --trace 0|1 [--repo-root DIR] [--work-dir DIR]
//
// --work-dir is created if needed and becomes the current directory; every
// file the run writes (JIT kernel caches, the serve socket) lives in a
// private subdirectory of it that is removed before exit. perfbench/run.py
// builds this binary and wraps it; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

using namespace perfbench;

namespace {

int usage(const std::string &Why) {
  std::cerr << "alf_perfbench: " << Why << "\n"
            << "usage: alf_perfbench --workload compile|kernels|serve|runtime "
               "--seed N --seconds S --trace 0|1 [--repo-root DIR] "
               "[--work-dir DIR]\n";
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  std::string WorkDir;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      return usage("missing value for " + Flag);
    std::string Val = argv[++I];
    char *End = nullptr;
    if (Flag == "--workload")
      Opts.Workload = Val;
    else if (Flag == "--seed")
      Opts.Seed = std::strtoull(Val.c_str(), &End, 10);
    else if (Flag == "--seconds")
      Opts.Seconds = std::strtod(Val.c_str(), &End);
    else if (Flag == "--trace")
      Opts.Trace = Val == "1";
    else if (Flag == "--repo-root")
      Opts.RepoRoot = std::filesystem::absolute(Val).string();
    else if (Flag == "--work-dir")
      WorkDir = Val;
    else
      return usage("unknown flag " + Flag);
    if (End && *End)
      return usage("bad number for " + Flag + ": " + Val);
  }
  if (!(Opts.Seconds > 0))
    return usage("--seconds must be positive");
  if (!WorkDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(WorkDir, EC);
    std::filesystem::current_path(WorkDir, EC);
    if (EC)
      return usage("cannot enter work dir " + WorkDir);
  }

  Report R(Opts.Trace);
  if (Opts.Workload == "compile")
    runCompileWorkload(Opts, R);
  else if (Opts.Workload == "kernels")
    runKernelsWorkload(Opts, R);
  else if (Opts.Workload == "serve")
    runServeWorkload(Opts, R);
  else if (Opts.Workload == "runtime")
    runRuntimeWorkload(Opts, R);
  else
    return usage("unknown workload '" + Opts.Workload + "'");
  R.e2e("ok_frac", R.okFrac(), "frac");
  std::cout << R.toJsonLine() << std::endl;
  return 0;
}
