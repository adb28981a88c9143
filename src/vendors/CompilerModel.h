//===- vendors/CompilerModel.h - Commercial compiler models ----*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Behavioural models of the five compilers probed in paper section 5.1.
/// The vendors' decision procedures are inferred from the paper's prose:
///
///  * PGI HPF 2.1 / IBM XLHPF 1.2: "appear not to perform any statement
///    fusion (i.e., each array statement compiles to a single loop
///    nest)"; compiler temporaries are still eliminated ("requires only a
///    simple local analysis").
///  * APR XHPF 2.0: "appears to perform fusion for locality and compiler
///    array contraction, but it is unable to fuse loops that carry
///    anti-dependences"; user temporaries are not contracted.
///  * Cray F90 2.0.1.0: "appears to perform both statement fusion and
///    array contraction ... unable to fuse statements where the resulting
///    loop nest would contain loop carried anti-dependences"; "considers
///    contraction of compiler and user temporary arrays separately".
///  * ZPL (this library): collective weight-ordered fusion for
///    contraction over compiler and user arrays together, plus fusion for
///    locality, with loop reversal/interchange (FIND-LOOP-STRUCTURE).
///
//===----------------------------------------------------------------------===//

#ifndef ALF_VENDORS_COMPILERMODEL_H
#define ALF_VENDORS_COMPILERMODEL_H

#include "ir/Program.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace alf {
namespace vendors {

/// Capabilities of one compiler's fusion/contraction strategy.
struct VendorPolicy {
  std::string Name;
  bool StatementFusion = false;   ///< fuses distinct source statements
  bool LocalityFusion = false;    ///< fuses for temporal locality
  bool FuseAcrossAntiDeps = false;///< tolerates loop-carried anti deps
  bool ContractCompilerTemps = false;
  bool ContractUserTemps = false;
  bool UnifiedWeighing = false;   ///< weighs compiler and user arrays together
};

/// The five modeled compilers, in the paper's Figure 6 row order.
std::vector<VendorPolicy> allVendorPolicies();

/// Outcome of compiling one program under a vendor policy.
struct VendorRun {
  std::unique_ptr<ir::Program> Prog; ///< normalized program
  std::set<std::string> ContractedNames;
  std::vector<unsigned> ClusterOf;   ///< final cluster per statement id
};

/// Brings \p P into normal form in place (driver::Pipeline: aligned, then
/// normalized), runs the policy's fusion/contraction pipeline on its
/// graph, and reports the outcome.
VendorRun runVendorPipeline(std::unique_ptr<ir::Program> P,
                            const VendorPolicy &Policy);

/// Did \p Policy produce the "proper fused/contracted code" for Figure 5
/// fragment \p FragId? (The check marks of Figure 6.)
bool fragmentHandledProperly(unsigned FragId, const VendorPolicy &Policy);

} // namespace vendors
} // namespace alf

#endif // ALF_VENDORS_COMPILERMODEL_H
