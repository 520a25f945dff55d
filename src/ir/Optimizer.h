//===- ir/Optimizer.h - Block-local IR optimizations ------------*- C++-*-===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Straight-line optimizations over translated blocks, run by the
/// translator before a block enters the code cache:
///
///  - constant folding / propagation (MOVZ/MOVK chains from the guest's
///    li/la expansion fold to a single MovImm),
///  - copy propagation,
///  - dead temp elimination.
///
/// The passes never remove ops with side effects, never remove writes to
/// guest registers (ids < FirstTempId), and never touch instrumentation
/// ordering relative to the stores it guards.
///
//===----------------------------------------------------------------------===//

#ifndef LLSC_IR_OPTIMIZER_H
#define LLSC_IR_OPTIMIZER_H

#include "ir/IR.h"

namespace llsc {
namespace ir {

/// Statistics from one optimize() run (for tests and -stats style output).
struct OptStats {
  unsigned ConstantsFolded = 0;
  unsigned CopiesPropagated = 0;
  unsigned DeadOpsRemoved = 0;

  bool operator==(const OptStats &Other) const = default;
};

/// Folds ops whose operands are known constants into MovImm, and rewrites
/// reg+const address arithmetic into immediate forms.
OptStats foldConstants(IRBlock &Block);

/// Replaces reads of copies with their source while valid.
OptStats propagateCopies(IRBlock &Block);

/// Removes pure ops whose results are never read (temps only).
OptStats eliminateDeadOps(IRBlock &Block);

/// Forwards values from guest stores to later guest loads of the same
/// (base value, displacement, size) within the block, when no possibly
/// aliasing write or helper intervenes and the base/value registers are
/// unchanged. Loads become Movs (then fold away). Conservative: any
/// StoreG/StoreCond/HelperStore/Helper/AtomicAddG invalidates all tracked
/// stores; LoadLink too (its semantics observe memory order).
OptStats forwardStoresToLoads(IRBlock &Block);

/// Runs the standard pipeline (fold, copy-prop, fold, DCE) until fixpoint
/// or \p MaxIterations.
OptStats optimize(IRBlock &Block, unsigned MaxIterations = 4);

} // namespace ir
} // namespace llsc

#endif // LLSC_IR_OPTIMIZER_H
