//===- xform/IlpStrategy.h - Optimal fusion partitioning -------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An *exact* fusion-partitioning strategy: instead of the paper's greedy
/// FUSION-FOR-CONTRACTION heuristic (Figure 3), enumerate all legal
/// fusion partitions with a branch-and-bound search and return the one
/// that maximizes the contracted bytes saved (the paper's contraction
/// benefit, in bytes), tie-broken by a coarse `src/machine` cache-model
/// cost. The search is a 0/1 integer program in disguise — cluster
/// assignment variables, Definition 5/6 legality and quotient-acyclicity
/// constraints, a linear objective — solved by an in-tree solver rather
/// than an external ILP package (see DESIGN.md section 13 for the
/// encoding and the exactness argument).
///
/// The solver is never trusted: the pipeline re-proves every partition
/// it emits with the independent `src/verify` legality passes at
/// VerifyLevel::Full, and a differential test suite checks its output
/// programs are bit-identical to greedy's and its objective never worse.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_XFORM_ILPSTRATEGY_H
#define ALF_XFORM_ILPSTRATEGY_H

#include "machine/Machine.h"
#include "xform/Strategy.h"

#include <cstdint>

namespace alf {
namespace xform {

/// Knobs of the branch-and-bound solver. Every array is eligible for
/// contraction, and the Cray T3E's cache parameters (the paper's primary
/// evaluation machine) break objective ties.
struct IlpOptions {
  /// Search nodes (assignment attempts) before the solver gives up and
  /// returns the best incumbent found so far. The incumbent is seeded
  /// with the greedy result, so exhaustion degrades to FUSION-FOR-
  /// CONTRACTION, never worse.
  uint64_t NodeBudget = 200000;
};

/// What the solver did, for tests, the gap study and the stress tool.
struct IlpStats {
  uint64_t NodesExplored = 0;   ///< assignment attempts considered
  uint64_t BranchesPruned = 0;  ///< subtrees cut by the objective bound
  uint64_t LegalityRejects = 0; ///< joins rejected by Definition 5
  bool BudgetExhausted = false; ///< search stopped at NodeBudget
  bool ImprovedOverGreedy = false;
  double ObjectiveBytes = 0;       ///< contracted bytes of the result
  double GreedyObjectiveBytes = 0; ///< contracted bytes of the greedy seed
  double CacheCost = 0;            ///< tie-break cost of the result
};

/// The objective: bytes of array traffic eliminated by contracting
/// \p Vars under \p P — the sum of the contracted arrays' reference
/// weights (paper section 3) times the element size.
double contractedBytes(const FusionPartition &P,
                       const std::vector<const ir::ArraySymbol *> &Vars);

/// The tie-break: a coarse per-cluster cache-model cost of executing the
/// partition on \p M. Each cluster's non-contracted references are priced
/// at \p M's L1/L2/memory per-reference cost according to whether the
/// cluster's working set fits the corresponding level. Deterministic;
/// lower is better.
double cacheModelCost(const FusionPartition &P, const StrategyResult &SR,
                      const machine::MachineDesc &M);

/// Solves for the legal fusion partition maximizing contractedBytes,
/// tie-broken by cacheModelCost. Exact up to the node budget; at least
/// as good as FUSION-FOR-CONTRACTION always. Fills \p OutStats when
/// non-null.
StrategyResult solveOptimalPartition(const analysis::ASDG &G,
                                     const IlpOptions &Opts = IlpOptions(),
                                     IlpStats *OutStats = nullptr);

/// Testing hook for the verification layer: when enabled, the solver
/// deliberately corrupts its result (an illegal cluster merge when one
/// exists, else a bogus contraction) before returning it. Injected-bug
/// tests use this to prove VerifyLevel::Full rejects a miscompiling
/// solver instead of trusting it. Never enabled by the pipeline.
void setIlpCorruptionForTest(bool Enabled);

} // namespace xform
} // namespace alf

#endif // ALF_XFORM_ILPSTRATEGY_H
