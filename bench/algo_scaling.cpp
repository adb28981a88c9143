//===- bench/algo_scaling.cpp - Algorithm complexity benchmarks --------------===//
//
// google-benchmark scaling sweeps for the paper's section 4 complexity
// claims: FUSION-FOR-CONTRACTION runs in O(r e) and FIND-LOOP-STRUCTURE
// in O(n^2 e) (effectively linear in the dependence count for the small
// ranks of real programs).
//
//===----------------------------------------------------------------------===//

#include "analysis/ASDG.h"
#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "xform/Fusion.h"
#include "xform/LoopStructure.h"

#include <benchmark/benchmark.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

namespace {

std::unique_ptr<Program> makeProgram(unsigned NumStmts) {
  GeneratorConfig Cfg;
  Cfg.Seed = 7;
  Cfg.NumStmts = NumStmts;
  Cfg.NumPersistent = 4;
  Cfg.NumTemps = NumStmts / 3 + 1;
  Cfg.Extent = 4;
  auto P = generateRandomProgram(Cfg);
  normalizeProgram(*P);
  return P;
}

void BM_BuildASDG(benchmark::State &State) {
  auto P = makeProgram(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    ASDG G = ASDG::build(*P);
    benchmark::DoNotOptimize(G.numEdges());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_BuildASDG)->RangeMultiplier(2)->Range(8, 512)->Complexity();

void BM_FusionForContraction(benchmark::State &State) {
  auto P = makeProgram(static_cast<unsigned>(State.range(0)));
  ASDG G = ASDG::build(*P);
  for (auto _ : State) {
    FusionPartition FP = FusionPartition::trivial(G);
    unsigned Merges = fuseForContraction(FP, anyArray());
    benchmark::DoNotOptimize(Merges);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_FusionForContraction)
    ->RangeMultiplier(2)
    ->Range(8, 512)
    ->Complexity();

void BM_FindLoopStructure(benchmark::State &State) {
  // e dependence vectors of rank 2, solvable (all nonnegative dim 1).
  std::vector<Offset> UDVs;
  for (int64_t I = 0; I < State.range(0); ++I)
    UDVs.push_back(Offset({static_cast<int32_t>(I % 3),
                           static_cast<int32_t>(1 - (I % 4))}));
  for (auto _ : State) {
    auto P = findLoopStructure(UDVs, 2);
    benchmark::DoNotOptimize(P.has_value());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_FindLoopStructure)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity(benchmark::oN);

void BM_GreedyPairwise(benchmark::State &State) {
  auto P = makeProgram(static_cast<unsigned>(State.range(0)));
  ASDG G = ASDG::build(*P);
  for (auto _ : State) {
    FusionPartition FP = FusionPartition::trivial(G);
    unsigned Merges = fuseAllPairwise(FP);
    benchmark::DoNotOptimize(Merges);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_GreedyPairwise)->RangeMultiplier(2)->Range(8, 512)->Complexity();

} // namespace

BENCHMARK_MAIN();
