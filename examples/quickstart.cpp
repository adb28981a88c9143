//===- examples/quickstart.cpp - ALF in five minutes --------------------------===//
//
// Builds a tiny array program through the C++ API, shows the dependence
// graph, applies the paper's c2 strategy (fusion for contraction of
// compiler and user arrays), and prints the scalarized loop nests before
// and after — the user temporary B becomes the scalar s_B, exactly like
// the paper's Figure 1 example.
//
// Run:  ./quickstart
//
//===----------------------------------------------------------------------===//

#include "analysis/ASDG.h"
#include "exec/Interpreter.h"
#include "ir/Program.h"
#include "ir/Verifier.h"
#include "scalarize/Scalarize.h"
#include "xform/Strategy.h"

#include <iostream>

using namespace alf;
using namespace alf::ir;

int main() {
  // 1. Build the program: B is a user temporary (dead afterwards).
  //      [1..8,1..8] B := A + A;
  //      [1..8,1..8] C := B * 0.5;
  Program P("quickstart");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeUserTemp("B", 2);
  ArraySymbol *C = P.makeArray("C", 2);
  P.assign(R, B, add(aref(A), aref(A)));
  P.assign(R, C, mul(aref(B), cst(0.5)));

  std::cout << "=== Array program ===\n";
  P.print(std::cout);
  if (!isWellFormed(P)) {
    std::cerr << "program failed verification\n";
    return 1;
  }

  // 2. Build the array statement dependence graph (paper Definition 3).
  analysis::ASDG G = analysis::ASDG::build(P);
  std::cout << "\n=== ASDG ===\n";
  G.print(std::cout);

  // 3. Baseline scalarization: one loop nest per statement, B allocated.
  auto Baseline = scalarize::scalarize(
      G, xform::applyStrategy(G, xform::Strategy::Baseline));
  std::cout << "\n=== Scalarized, baseline ===\n" << Baseline.str();

  // 4. The paper's c2 strategy: FUSION-FOR-CONTRACTION over compiler and
  //    user arrays, then contraction. B disappears.
  xform::StrategyResult SR = xform::applyStrategy(G, xform::Strategy::C2);
  std::cout << "\n=== Fusion partition (c2) ===\n";
  SR.Partition.print(std::cout);
  std::cout << "contracted:";
  for (const ArraySymbol *Arr : SR.Contracted)
    std::cout << ' ' << Arr->getName();
  std::cout << '\n';

  auto Optimized = scalarize::scalarize(G, SR);
  std::cout << "\n=== Scalarized, c2 ===\n" << Optimized.str();

  // 5. Prove the optimization preserved semantics on random inputs.
  exec::RunResult Before = exec::run(Baseline, /*Seed=*/42);
  exec::RunResult After = exec::run(Optimized, /*Seed=*/42);
  std::string Why;
  if (!exec::resultsMatch(Before, After, 0.0, &Why)) {
    std::cerr << "MISMATCH: " << Why << '\n';
    return 1;
  }
  std::cout << "\nresults match: the contracted program computes the same "
               "values.\n";
  return 0;
}
