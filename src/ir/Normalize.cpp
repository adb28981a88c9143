//===- ir/Normalize.cpp - Statement normalization --------------------------===//

#include "ir/Normalize.h"

#include "ir/Program.h"
#include "obs/Obs.h"
#include "support/StringUtil.h"

using namespace alf;
using namespace alf::ir;

unsigned ir::normalizeProgram(Program &P) {
  unsigned Inserted = 0;
  // Iterate by position; splitting a statement advances past both halves.
  for (unsigned Pos = 0; Pos < P.numStmts(); ++Pos) {
    auto *S = dyn_cast<NormalizedStmt>(P.getStmt(Pos));
    if (!S || !S->readsArray(S->getLHS()))
      continue;

    // Create the temporary and rewrite in two steps. Find a fresh name.
    std::string TempName;
    for (unsigned K = Inserted + 1;; ++K) {
      TempName = formatString("_T%u", K);
      if (!P.findSymbol(TempName))
        break;
    }
    ArraySymbol *Temp = P.makeCompilerTemp(TempName, S->getLHS()->getRank());
    ++Inserted;
    {
      ALF_COUNTER(NumCompilerTemps, "normalize.compiler_temps",
                  "Compiler temporaries inserted");
      ++NumCompilerTemps;
    }

    // [R] _Tk := f(...)   inserted before the original statement.
    auto Def = std::make_unique<NormalizedStmt>(
        S->getRegion(), Temp, Offset::zero(Temp->getRank()),
        S->getRHS()->clone());
    // The original statement becomes the copy-out: [R] A@d0 := _Tk.
    S->setRHS(aref(Temp));
    P.insertStmt(Pos, std::move(Def));
    // Skip over the def we just inserted and the rewritten copy.
    ++Pos;
  }
  return Inserted;
}
