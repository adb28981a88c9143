//===- perfbench/src/Common.cpp - Shared benchmark plumbing -----------------===//

#include "Common.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#ifdef __GLIBC__
#include <malloc.h>
#endif

using namespace perfbench;

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

void Report::e2e(const std::string &Name, double Value,
                 const std::string &Unit) {
  EndToEnd.push_back({Name, Value, Unit});
}

void Report::layer(const std::string &Name, double Value,
                   const std::string &Unit) {
  PerLayer.push_back({Name, Value, Unit});
}

void Report::mustRepeat(const std::string &Name, double Value) {
  Counts.emplace_back(Name, Value);
}

void Report::fail(const std::string &Why) {
  ++Failed;
  if (Diagnostics.size() < 20)
    Diagnostics.push_back(Why);
}

void Report::problem(const std::string &Why) {
  Correct = false;
  if (Diagnostics.size() < 20)
    Diagnostics.push_back(Why);
}

namespace {

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string quoted(const std::string &S) {
  return "\"" + alf::json::escapeString(S) + "\"";
}

} // namespace

std::string Report::toJsonLine() const {
  bool OK = Correct && Failed == 0 && Attempted > 0;
  std::ostringstream OS;
  OS << "{\"correct\": " << (OK ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : Trace ? PerLayer : EndToEnd) {
    if (!std::isfinite(M.Value))
      continue; // never print a non-number; the missing metric shows
    OS << (First ? "" : ", ") << quoted(M.Name) << ": {\"value\": "
       << number(M.Value) << ", \"unit\": " << quoted(M.Unit) << "}";
    First = false;
  }
  OS << "}, \"counts\": {";
  First = true;
  for (const auto &[Name, Value] : Counts) {
    OS << (First ? "" : ", ") << quoted(Name) << ": " << number(Value);
    First = false;
  }
  OS << "}, \"diagnostics\": [";
  First = true;
  for (const std::string &D : Diagnostics) {
    OS << (First ? "" : ", ") << quoted(D);
    First = false;
  }
  OS << "]}";
  return OS.str();
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return NAN;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return NAN;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(V.size())));
  return V[std::min(V.size() - 1, Rank == 0 ? 0 : Rank - 1)];
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return NAN;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double perfbench::peakRssMb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
  // the launching process's footprint when that was larger.
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // in kB
  return NAN;
}

void perfbench::reportEndToEnd(Report &R, double SetupSec, double PeakRss,
                               const std::vector<std::vector<double>> &ClassSec,
                               double BusySec, double TailP) {
  std::vector<double> OpSec, ClassMedSec;
  for (const std::vector<double> &C : ClassSec) {
    OpSec.insert(OpSec.end(), C.begin(), C.end());
    ClassMedSec.push_back(median(C));
  }
  R.e2e("setup_s", SetupSec, "s");
  R.e2e("peak_rss_mb", PeakRss, "MiB");
  R.e2e("op_tail_ms", percentile(OpSec, TailP) * 1e3, "ms");
  R.e2e("op_geomean_ms", geomean(ClassMedSec) * 1e3, "ms");
  R.e2e("ops_per_s", static_cast<double>(OpSec.size()) / BusySec, "1/s");
}

double perfbench::sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

void perfbench::releaseFreeMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

std::string perfbench::readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

PrivateDir::PrivateDir(const std::string &Name) {
  namespace fs = std::filesystem;
  Path = (fs::current_path() / Name).string();
  std::error_code EC;
  fs::remove_all(Path, EC);
  fs::create_directories(Path);
}

PrivateDir::~PrivateDir() {
  std::error_code EC;
  std::filesystem::remove_all(Path, EC);
}
