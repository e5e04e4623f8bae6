// LIR: the low-level instruction representation between the dispatch-stub
// compiler and the x86-64 encoder.
//
// The stub compiler emits LIR, the peephole optimizer rewrites it (§3:
// "we use peephole optimizations to improve the quality of the generated
// code"), and the encoder assembles it. Keeping a real IR — instead of
// emitting bytes directly — is what makes the peephole pass and its unit
// tests possible.
#ifndef SRC_CODEGEN_LIR_H_
#define SRC_CODEGEN_LIR_H_

#include <cstdint>
#include <vector>

namespace spin {
namespace codegen {

// x86-64 general-purpose registers, numbered with their hardware encoding.
enum class Reg : uint8_t {
  kRax = 0,
  kRcx = 1,
  kRdx = 2,
  kRbx = 3,
  kRsp = 4,
  kRbp = 5,
  kRsi = 6,
  kRdi = 7,
  kR8 = 8,
  kR9 = 9,
  kR10 = 10,
  kR11 = 11,
  kR12 = 12,
  kR13 = 13,
  kR14 = 14,
  kR15 = 15,
};

const char* RegName(Reg reg);

// Condition codes, numbered with their hardware encoding (for 0x0F 0x8x and
// 0x0F 0x9x opcode arithmetic).
enum class Cond : uint8_t {
  kO = 0x0,
  kNo = 0x1,
  kB = 0x2,
  kAe = 0x3,
  kE = 0x4,
  kNe = 0x5,
  kBe = 0x6,
  kA = 0x7,
  kS = 0x8,
  kNs = 0x9,
  kL = 0xc,
  kGe = 0xd,
  kLe = 0xe,
  kG = 0xf,
};

Cond Negate(Cond cc);

enum class LOp : uint8_t {
  kMovRegImm,    // dst <- imm (64-bit value; encoder picks shortest form)
  kMovRegReg,    // dst <- src
  kLoadRegMem,   // dst <- zero-extended load of `width` bytes from [base+disp]
  kStoreMemReg,  // store low `width` bytes of src to [base+disp]
  kStoreMemImm32,  // 32-bit store of imm32 to [base+disp]
  kLea,          // dst <- base + disp
  kAdd,          // dst += src
  kSub,          // dst -= src
  kAnd,          // dst &= src
  kOr,           // dst |= src
  kXor,          // dst ^= src
  kAluMemReg,    // [base+disp] op= src (64-bit); alu_sub selects add/or/and
  kIncMem32,     // 32-bit increment of [base+disp]
  kShlImm,       // dst <<= imm (imm8)
  kShrImm,       // dst >>= imm (imm8, logical)
  kCmpRegReg,    // flags <- dst cmp src
  kCmpRegImm32,  // flags <- dst cmp imm32 (sign-extended)
  kTestRegReg,   // flags <- dst & src
  kSetcc,        // dst.b <- cc
  kMovzx8,       // dst <- zero-extend dst.b (after kSetcc)
  kCall,         // call through register dst
  kPush,         // push dst
  kPop,          // pop dst
  kJcc,          // conditional jump to label
  kJmp,          // jump to label
  kBind,         // label definition point
  kRet,          // ret
};

enum class AluSub : uint8_t { kAdd, kOr, kAnd };

struct LInsn {
  LOp op;
  Reg dst = Reg::kRax;
  Reg src = Reg::kRax;
  Reg base = Reg::kRax;
  uint8_t width = 8;  // 1, 2, 4, or 8 for loads/stores
  Cond cc = Cond::kE;
  AluSub alu = AluSub::kAdd;
  int32_t disp = 0;
  uint64_t imm = 0;
  int label = -1;
};

// Assembles LIR into machine code, resolving label fixups. Panics on
// malformed input (unbound label) — generator bugs, not user errors.
std::vector<uint8_t> Encode(const std::vector<LInsn>& code);

}  // namespace codegen
}  // namespace spin

#endif  // SRC_CODEGEN_LIR_H_
