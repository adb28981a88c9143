//===- xform/Fusion.h - Statement fusion algorithms ------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's statement fusion algorithms (section 4.1):
///
///  * FUSION-FOR-CONTRACTION (Figure 3): greedy collective fusion driven
///    by arrays in decreasing reference-weight order; merges every cluster
///    referencing the array (plus the GROW closure) when the array is
///    contractible and the merge forms a legal fusion partition.
///  * Fusion for locality: "identical to that in Figure 3, except that the
///    CONTRACTIBLE? predicate in line 7 is eliminated".
///  * Greedy pairwise fusion ("all legal fusion", the paper's f4): keeps
///    merging legal cluster pairs until a fixed point.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_XFORM_FUSION_H
#define ALF_XFORM_FUSION_H

#include "xform/FusionPartition.h"

#include <functional>

namespace alf {
namespace xform {

/// Predicate selecting which arrays may drive fusion / be contracted. The
/// paper's f1/c1 strategies restrict candidates to compiler temporaries;
/// f2/c2 admit user arrays too.
using ArrayFilter = std::function<bool(const ir::ArraySymbol *)>;

/// Filter admitting every array.
ArrayFilter anyArray();

/// Filter admitting only compiler temporaries.
ArrayFilter compilerTempsOnly();

/// FUSION-FOR-CONTRACTION (Figure 3), starting from (and refining) \p P.
/// Only arrays accepted by \p Candidates are considered (line 4's loop).
/// Returns the number of merges performed.
unsigned fuseForContraction(FusionPartition &P, const ArrayFilter &Candidates);

/// Fusion for locality: the Figure 3 loop without the CONTRACTIBLE? test.
/// "We try to fuse all statements that reference the array that will have
/// the greatest single locality benefit" (section 4.1). Returns the number
/// of merges performed.
unsigned fuseForLocality(FusionPartition &P);

/// Greedy pairwise legal fusion (the paper's f4): repeatedly merges any
/// pair of clusters whose union (with GROW closure) is a legal fusion
/// partition, until no pair can merge. \p P must be acyclic. Returns the
/// number of merges; when \p Merged is non-null, appends each merged
/// cluster set to it in merge order.
unsigned fuseAllPairwise(FusionPartition &P,
                         std::vector<std::set<unsigned>> *Merged = nullptr);

/// Arrays contractible under the final partition \p P that are accepted by
/// \p Allowed ("Given a particular fusion partition we can decide for what
/// arrays contraction has been enabled", Definition 6).
std::vector<const ir::ArraySymbol *>
contractibleArrays(const FusionPartition &P, const ArrayFilter &Allowed);

/// The paper's contraction benefit: the sum of the reference weights of
/// all contracted arrays (section 3).
double contractionBenefit(const FusionPartition &P,
                          const std::vector<const ir::ArraySymbol *> &Vars);

} // namespace xform
} // namespace alf

#endif // ALF_XFORM_FUSION_H
