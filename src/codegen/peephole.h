// Peephole optimizer over LIR (§3: "we use peephole optimizations to
// improve the quality of the generated code").
//
// Rewrites performed:
//   1. cmp r, 0          -> test r, r         (shorter encoding)
//   2. jmp L; ... L:     -> (dropped)         when nothing kept lies between
//   3. mov r, r          -> (dropped)
//   4. redundant reloads -> (dropped)         a load of [base+disp] into a
//      register that provably already holds that value. Facts are killed on
//      register writes, any store (conservative aliasing), calls, and labels
//      (control-flow merge points).
#ifndef SRC_CODEGEN_PEEPHOLE_H_
#define SRC_CODEGEN_PEEPHOLE_H_

#include <cstddef>
#include <vector>

#include "src/codegen/lir.h"

namespace spin {
namespace codegen {

// Optimizes `code` in place in one pass; returns the number of rewrites
// applied. The result is a fixpoint: a second call rewrites nothing.
size_t Peephole(std::vector<LInsn>& code);

}  // namespace codegen
}  // namespace spin

#endif  // SRC_CODEGEN_PEEPHOLE_H_
