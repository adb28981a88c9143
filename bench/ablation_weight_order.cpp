//===- bench/ablation_weight_order.cpp - Ablation: consideration order -------===//
//
// DESIGN.md ablation A1 plus the greedy-vs-optimal gap study, emitted as
// machine-readable JSON (schema alf-ablation-weight-order/2) so the
// results can be diffed, plotted, and archived like the alf_bench
// output.
//
// Section "weight_order_ablation": FUSION-FOR-CONTRACTION considers
// arrays in decreasing reference-weight order "so arrays that have
// potentially the largest single impact on the total contraction
// benefit are considered first" (Figure 3). The ablation replays the
// greedy loop with three consideration orders on programs full of
// fragment-8-style trade-offs and compares the total contraction
// benefit achieved.
//
// Section "gap_study": how far the paper's greedy heuristic sits from
// the true optimum. For each stress-sweep generator seed the
// branch-and-bound partitioner (xform/IlpStrategy) solves the fusion
// partitioning problem exactly and the per-seed record reports both
// objectives (contracted bytes), the gap, and the solver effort. The
// "handbuilt_tradeoff" entry is the documented construction on which
// greedy is provably suboptimal (the ±1 anti-dependence fan-in
// trade-off from tests/IlpStrategyTest.cpp).
//
// Usage: ablation_weight_order [--seeds=N] [--out=FILE]
//
//===----------------------------------------------------------------------===//

#include "analysis/ASDG.h"
#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "ir/Program.h"
#include "support/Json.h"
#include "support/StringUtil.h"
#include "xform/Fusion.h"
#include "xform/IlpStrategy.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

namespace {

/// A program of \p Blocks fragment-8-style trade-off blocks: in each, the
/// two user temporaries can be contracted only by sacrificing the
/// compiler temporary of the block's self-update.
std::unique_ptr<Program> makeTradeoffProgram(unsigned Blocks) {
  auto P = std::make_unique<Program>("tradeoffs");
  const Region *R = P->regionFromExtents({32, 32});
  for (unsigned B = 0; B < Blocks; ++B) {
    ArraySymbol *A = P->makeArray(formatString("A%u", B), 2);
    ArraySymbol *In = P->makeArray(formatString("B%u", B), 2);
    ArraySymbol *T1 = P->makeUserTemp(formatString("t1_%u", B), 2);
    ArraySymbol *T2 = P->makeUserTemp(formatString("t2_%u", B), 2);
    P->assign(R, T1, add(aref(A, {-1, 0}), aref(In)));
    P->assign(R, T2, add(aref(A, {-1, 0}), aref(T1)));
    P->assign(R, A, add(add(aref(A, {1, 0}), aref(T1)), aref(T2)));
  }
  normalizeProgram(*P);
  return P;
}

/// The fan-in trade-off on which weight-ordered greedy is provably
/// suboptimal: X carries the most references (4) but the cluster that
/// contracts X can never absorb the writers of V1/V2 (their +1 and -1
/// offsets admit no common loop direction), so contracting X forfeits
/// contracting both M1 and M2 (3+3 references). Mirrors the
/// BeatsGreedyOnFanInTradeoff construction in tests/IlpStrategyTest.cpp.
std::unique_ptr<Program> makeFanInTradeoff() {
  auto P = std::make_unique<Program>("fanin-tradeoff");
  const Region *R = P->regionFromExtents({16});
  ArraySymbol *V1 = P->makeArray("V1", 1);
  ArraySymbol *V2 = P->makeArray("V2", 1);
  ArraySymbol *A = P->makeArray("A", 1);
  ArraySymbol *B = P->makeArray("B", 1);
  ArraySymbol *W = P->makeArray("W", 1);
  ArraySymbol *X = P->makeUserTemp("X", 1);
  ArraySymbol *M1 = P->makeUserTemp("M1", 1);
  ArraySymbol *M2 = P->makeUserTemp("M2", 1);
  P->assign(R, X, add(add(aref(V1, {-1}), aref(V2, {-1})), aref(A)));
  P->assign(R, M1, aref(A));
  P->assign(R, M2, aref(B));
  P->assign(R, W, add(add(add(aref(X), aref(X)), aref(X)),
                      add(add(aref(M1), aref(M2)),
                          add(aref(V1, {1}), aref(V2, {1})))));
  P->assign(R, V1, add(aref(M1), aref(A)));
  P->assign(R, V2, add(aref(M2), aref(B)));
  normalizeProgram(*P);
  return P;
}

/// The Figure 3 greedy loop with an explicit consideration order.
double greedyWithOrder(const ASDG &G,
                       std::vector<const ArraySymbol *> Order) {
  FusionPartition FP = FusionPartition::trivial(G);
  for (const ArraySymbol *Var : Order) {
    std::set<unsigned> C = FP.fusionCandidates(Var);
    if (C.empty())
      continue;
    if (!isContractible(FP, C, Var) || !isLegalFusion(FP, C))
      continue;
    FP.merge(C);
  }
  return contractionBenefit(FP, contractibleArrays(FP, anyArray()));
}

json::Value weightOrderAblation() {
  json::Value Rows = json::Value::array();
  for (unsigned Blocks : {1u, 2u, 4u, 8u, 16u}) {
    auto P = makeTradeoffProgram(Blocks);
    ASDG G = ASDG::build(*P);

    std::vector<const ArraySymbol *> ByWeight = G.arraysByDecreasingWeight();
    std::vector<const ArraySymbol *> ById = ByWeight;
    std::sort(ById.begin(), ById.end(),
              [](const ArraySymbol *L, const ArraySymbol *R) {
                return L->getId() < R->getId();
              });
    // Adversarial order: compiler temporaries first (the Cray-style
    // separate weighing).
    std::vector<const ArraySymbol *> CompilerFirst = ById;
    std::stable_sort(CompilerFirst.begin(), CompilerFirst.end(),
                     [](const ArraySymbol *L, const ArraySymbol *R) {
                       return L->isCompilerTemp() > R->isCompilerTemp();
                     });

    double W = greedyWithOrder(G, ByWeight);
    double I = greedyWithOrder(G, ById);
    double C = greedyWithOrder(G, CompilerFirst);
    double Worst = std::min({W, I, C});

    json::Value Row = json::Value::object();
    Row.set("blocks", json::Value::number(Blocks));
    Row.set("benefit_by_weight", json::Value::number(W));
    Row.set("benefit_by_symbol_id", json::Value::number(I));
    Row.set("benefit_compiler_temps_first", json::Value::number(C));
    Row.set("weight_over_worst",
            json::Value::number(Worst > 0 ? W / Worst : 0.0));
    Rows.push(std::move(Row));
  }
  return Rows;
}

/// Solves one program with both greedy FUSION-FOR-CONTRACTION and the
/// exact branch-and-bound and records the objectives and solver effort.
json::Value gapRecord(Program &P) {
  ASDG G = ASDG::build(P);
  IlpStats St;
  auto T0 = std::chrono::steady_clock::now();
  (void)solveOptimalPartition(G, IlpOptions(), &St);
  auto T1 = std::chrono::steady_clock::now();
  double Ms = std::chrono::duration<double, std::milli>(T1 - T0).count();

  json::Value Rec = json::Value::object();
  Rec.set("greedy_bytes", json::Value::number(St.GreedyObjectiveBytes));
  Rec.set("ilp_bytes", json::Value::number(St.ObjectiveBytes));
  Rec.set("gap_bytes",
          json::Value::number(St.ObjectiveBytes - St.GreedyObjectiveBytes));
  Rec.set("nodes_explored", json::Value::number(St.NodesExplored));
  Rec.set("branches_pruned", json::Value::number(St.BranchesPruned));
  Rec.set("budget_exhausted", json::Value::boolean(St.BudgetExhausted));
  Rec.set("solve_ms", json::Value::number(Ms));
  return Rec;
}

/// Mirrors tests/StressSweepTest.cpp sweepConfig so the gap study runs
/// over exactly the population the differential sweep certifies.
GeneratorConfig sweepConfig(uint64_t Seed) {
  GeneratorConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumStmts = 4 + static_cast<unsigned>(Seed % 9);
  Cfg.NumPersistent = 2 + static_cast<unsigned>(Seed % 3);
  Cfg.NumTemps = 2 + static_cast<unsigned>((Seed / 3) % 4);
  Cfg.Rank = 1 + static_cast<unsigned>(Seed % 3);
  Cfg.Extent = Cfg.Rank == 3 ? 4 : 6 + static_cast<int64_t>(Seed % 4);
  Cfg.MaxOffset = 1 + static_cast<unsigned>(Seed % 2);
  Cfg.AllowTargetOffsets = Seed % 4 == 1;
  Cfg.UseTwoRegions = Seed % 5 == 0;
  Cfg.AddOpaque = Seed % 7 == 0;
  return Cfg;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Seeds = 50;
  std::string OutFile;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--seeds=", 0) == 0) {
      Seeds = static_cast<unsigned>(std::atoi(Arg.c_str() + 8));
    } else if (Arg.rfind("--out=", 0) == 0) {
      OutFile = Arg.substr(6);
    } else {
      std::cerr << "usage: ablation_weight_order [--seeds=N] [--out=FILE]\n";
      return 1;
    }
  }

  json::Value Root = json::Value::object();
  Root.set("schema", json::Value::str("alf-ablation-weight-order/2"));
  Root.set("weight_order_ablation", weightOrderAblation());

  // The gap study: greedy vs the exact optimum, per seed.
  json::Value PerSeed = json::Value::array();
  unsigned StrictlyBetter = 0, Equal = 0, Exhausted = 0;
  double MaxGap = 0.0, TotalMs = 0.0;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    auto P = generateRandomProgram(sweepConfig(Seed));
    json::Value Rec = gapRecord(*P);
    double Gap = *Rec.getNumber("gap_bytes");
    if (Gap > 0)
      ++StrictlyBetter;
    else
      ++Equal;
    if (*Rec.getBool("budget_exhausted"))
      ++Exhausted;
    MaxGap = std::max(MaxGap, Gap);
    TotalMs += *Rec.getNumber("solve_ms");
    Rec.set("seed", json::Value::number(Seed));
    PerSeed.push(std::move(Rec));
  }

  json::Value Summary = json::Value::object();
  Summary.set("seeds", json::Value::number(Seeds));
  Summary.set("seeds_ilp_strictly_better", json::Value::number(StrictlyBetter));
  Summary.set("seeds_equal", json::Value::number(Equal));
  Summary.set("seeds_budget_exhausted", json::Value::number(Exhausted));
  Summary.set("max_gap_bytes", json::Value::number(MaxGap));
  Summary.set("total_solve_ms", json::Value::number(TotalMs));

  json::Value Gap = json::Value::object();
  Gap.set("summary", std::move(Summary));
  {
    // The documented strict-improvement construction: greedy contracts X
    // (4 references, 512 bytes) where the optimum contracts M1+M2
    // (6 references, 768 bytes).
    auto P = makeFanInTradeoff();
    Gap.set("handbuilt_tradeoff", gapRecord(*P));
  }
  Gap.set("per_seed", std::move(PerSeed));
  Root.set("gap_study", std::move(Gap));

  if (!OutFile.empty()) {
    std::ofstream OS(OutFile);
    if (!OS) {
      std::cerr << "ablation_weight_order: cannot write " << OutFile << '\n';
      return 1;
    }
    Root.write(OS);
    OS << '\n';
    std::cout << "wrote " << OutFile << '\n';
  } else {
    Root.write(std::cout);
    std::cout << '\n';
  }
  return 0;
}
