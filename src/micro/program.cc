#include "src/micro/program.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <vector>

#include "src/rt/panic.h"

namespace spin {
namespace micro {

const char* OpName(Op op) {
  switch (op) {
    case Op::kLoadArg:
      return "load_arg";
    case Op::kLoadImm:
      return "load_imm";
    case Op::kLoadGlobal:
      return "load_global";
    case Op::kLoadField:
      return "load_field";
    case Op::kStoreGlobal:
      return "store_global";
    case Op::kStoreField:
      return "store_field";
    case Op::kMov:
      return "mov";
    case Op::kAdd:
      return "add";
    case Op::kSub:
      return "sub";
    case Op::kAnd:
      return "and";
    case Op::kOr:
      return "or";
    case Op::kXor:
      return "xor";
    case Op::kShlImm:
      return "shl";
    case Op::kShrImm:
      return "shr";
    case Op::kCmpEq:
      return "cmp_eq";
    case Op::kCmpNe:
      return "cmp_ne";
    case Op::kCmpLtU:
      return "cmp_ltu";
    case Op::kCmpLeU:
      return "cmp_leu";
    case Op::kCmpLtS:
      return "cmp_lts";
    case Op::kCmpLeS:
      return "cmp_les";
    case Op::kNot:
      return "not";
    case Op::kJz:
      return "jz";
    case Op::kJmp:
      return "jmp";
    case Op::kRet:
      return "ret";
    case Op::kRetImm:
      return "ret_imm";
  }
  return "<bad>";
}

static_assert(static_cast<size_t>(Op::kRetImm) + 1 == kNumOps,
              "kNumOps must track the Op enum; a new opcode also needs an "
              "OpName case above and an admission row in verify.cc");

const char* ValidateStatusName(ValidateStatus status) {
  switch (status) {
    case ValidateStatus::kOk:
      return "ok";
    case ValidateStatus::kEmpty:
      return "empty program";
    case ValidateStatus::kBadRegister:
      return "register index out of range";
    case ValidateStatus::kBadArgIndex:
      return "argument index out of range";
    case ValidateStatus::kBadWidth:
      return "bad memory width";
    case ValidateStatus::kBadShift:
      return "shift amount out of range";
    case ValidateStatus::kBackwardJump:
      return "backward jump";
    case ValidateStatus::kJumpOutOfRange:
      return "jump out of range";
    case ValidateStatus::kMissingTerminator:
      return "program does not end with ret";
    case ValidateStatus::kImpureFunctional:
      return "store instruction in FUNCTIONAL program";
  }
  return "<bad>";
}

static_assert(static_cast<size_t>(ValidateStatus::kImpureFunctional) + 1 ==
                  kNumValidateStatuses,
              "kNumValidateStatuses must track the ValidateStatus enum; a "
              "new status also needs a ValidateStatusName case above");

Program::Program(std::vector<Insn> code, int num_args, bool functional)
    : code_(std::move(code)), num_args_(num_args), functional_(functional) {}

namespace {

bool UsesDst(Op op) {
  switch (op) {
    case Op::kStoreGlobal:
    case Op::kStoreField:
    case Op::kJz:
    case Op::kJmp:
    case Op::kRet:
    case Op::kRetImm:
      return false;
    default:
      return true;
  }
}

bool UsesA(Op op) {
  switch (op) {
    case Op::kLoadArg:
    case Op::kLoadImm:
    case Op::kLoadGlobal:
    case Op::kJmp:
    case Op::kRetImm:
      return false;
    default:
      return true;
  }
}

bool UsesB(Op op) {
  switch (op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kCmpEq:
    case Op::kCmpNe:
    case Op::kCmpLtU:
    case Op::kCmpLeU:
    case Op::kCmpLtS:
    case Op::kCmpLeS:
    case Op::kStoreField:
      return true;
    default:
      return false;
  }
}

bool IsWidthOp(Op op) {
  switch (op) {
    case Op::kLoadGlobal:
    case Op::kLoadField:
    case Op::kStoreGlobal:
      return true;
    default:
      return false;
  }
}

}  // namespace

ValidateStatus Program::Validate() const {
  if (code_.empty()) {
    return ValidateStatus::kEmpty;
  }
  for (size_t i = 0; i < code_.size(); ++i) {
    const Insn& insn = code_[i];
    if (UsesDst(insn.op) && insn.dst >= kNumRegs) {
      return ValidateStatus::kBadRegister;
    }
    if (UsesA(insn.op) && insn.a >= kNumRegs) {
      return ValidateStatus::kBadRegister;
    }
    if (UsesB(insn.op) && insn.b >= kNumRegs) {
      return ValidateStatus::kBadRegister;
    }
    switch (insn.op) {
      case Op::kLoadArg:
        if (insn.imm >= static_cast<uint64_t>(num_args_) ||
            insn.imm >= kMaxArgs) {
          return ValidateStatus::kBadArgIndex;
        }
        break;
      case Op::kLoadGlobal:
      case Op::kLoadField:
        if (insn.b > 3) {  // width exponent: 1, 2, 4, or 8 bytes
          return ValidateStatus::kBadWidth;
        }
        break;
      case Op::kStoreGlobal:
      case Op::kStoreField:
        if (functional_) {
          return ValidateStatus::kImpureFunctional;
        }
        if (insn.op == Op::kStoreGlobal && insn.b > 3) {
          return ValidateStatus::kBadWidth;
        }
        // kStoreField uses b as the source register; width rides in dst.
        if (insn.op == Op::kStoreField && insn.dst > 3) {
          return ValidateStatus::kBadWidth;
        }
        break;
      case Op::kShlImm:
      case Op::kShrImm:
        if (insn.imm >= 64) {
          return ValidateStatus::kBadShift;
        }
        break;
      case Op::kJz:
      case Op::kJmp:
        if (insn.imm <= i) {
          return ValidateStatus::kBackwardJump;
        }
        if (insn.imm >= code_.size()) {
          return ValidateStatus::kJumpOutOfRange;
        }
        break;
      default:
        break;
    }
  }
  Op last = code_.back().op;
  if (last != Op::kRet && last != Op::kRetImm) {
    return ValidateStatus::kMissingTerminator;
  }
  (void)IsWidthOp;
  return ValidateStatus::kOk;
}

uint8_t Program::UndefinedReads() const {
  size_t n = code_.size();
  if (n == 0) {
    return 0;
  }
  // in[pc]: bitmask of registers definitely written on every path to pc.
  // Jumps are forward-only, so one in-order pass computes the meet.
  // Typical programs fit the stack array; long ones spill to the heap.
  uint16_t stack_in[64];
  std::vector<uint16_t> heap_in;
  uint16_t* in = stack_in;
  if (n + 1 > std::size(stack_in)) {
    heap_in.resize(n + 1);
    in = heap_in.data();
  }
  std::fill_n(in, n + 1, 0xFFFF);
  in[0] = 0;
  uint8_t undefined = 0;
  for (size_t pc = 0; pc < n; ++pc) {
    const Insn& insn = code_[pc];
    uint16_t defined = in[pc];
    if (UsesA(insn.op) && ((defined >> insn.a) & 1) == 0) {
      undefined |= static_cast<uint8_t>(1u << insn.a);
    }
    if (UsesB(insn.op) && ((defined >> insn.b) & 1) == 0) {
      undefined |= static_cast<uint8_t>(1u << insn.b);
    }
    uint16_t out = defined;
    if (UsesDst(insn.op)) {
      out |= static_cast<uint16_t>(1u << insn.dst);
    }
    bool falls = insn.op != Op::kJmp && insn.op != Op::kRet &&
                 insn.op != Op::kRetImm;
    if (falls && pc + 1 <= n) {
      in[pc + 1] &= out;
    }
    if ((insn.op == Op::kJz || insn.op == Op::kJmp) && insn.imm <= n) {
      in[insn.imm] &= out;
    }
  }
  return undefined;
}

std::string Program::ToString() const {
  std::string out;
  char line[128];
  for (size_t i = 0; i < code_.size(); ++i) {
    const Insn& insn = code_[i];
    std::snprintf(line, sizeof(line),
                  "%3zu: %-12s dst=%u a=%u b=%u imm=0x%llx\n", i,
                  OpName(insn.op), insn.dst, insn.a, insn.b,
                  static_cast<unsigned long long>(insn.imm));
    out += line;
  }
  return out;
}

// --- Builder ---------------------------------------------------------------

ProgramBuilder& ProgramBuilder::Emit(Op op, uint8_t dst, uint8_t a, uint8_t b,
                                     uint64_t imm) {
  code_.push_back(Insn{op, dst, a, b, imm});
  return *this;
}

namespace {

uint8_t WidthExp(int width) {
  switch (width) {
    case 1:
      return 0;
    case 2:
      return 1;
    case 4:
      return 2;
    case 8:
      return 3;
    default:
      SPIN_PANIC("bad memory width %d", width);
  }
}

}  // namespace

ProgramBuilder& ProgramBuilder::LoadArg(int dst, int arg) {
  return Emit(Op::kLoadArg, dst, 0, 0, static_cast<uint64_t>(arg));
}
ProgramBuilder& ProgramBuilder::LoadImm(int dst, uint64_t imm) {
  return Emit(Op::kLoadImm, dst, 0, 0, imm);
}
ProgramBuilder& ProgramBuilder::LoadGlobal(int dst, const void* addr,
                                           int width) {
  return Emit(Op::kLoadGlobal, dst, 0, WidthExp(width),
              reinterpret_cast<uintptr_t>(addr));
}
ProgramBuilder& ProgramBuilder::LoadField(int dst, int base, uint64_t offset,
                                          int width) {
  return Emit(Op::kLoadField, dst, static_cast<uint8_t>(base),
              WidthExp(width), offset);
}
ProgramBuilder& ProgramBuilder::StoreGlobal(const void* addr, int src,
                                            int width) {
  return Emit(Op::kStoreGlobal, 0, static_cast<uint8_t>(src), WidthExp(width),
              reinterpret_cast<uintptr_t>(addr));
}
ProgramBuilder& ProgramBuilder::StoreField(int base, uint64_t offset, int src,
                                           int width) {
  // dst carries the width exponent; a = base pointer reg, b = source reg.
  return Emit(Op::kStoreField, WidthExp(width), static_cast<uint8_t>(base),
              static_cast<uint8_t>(src), offset);
}
ProgramBuilder& ProgramBuilder::Mov(int dst, int src) {
  return Emit(Op::kMov, dst, static_cast<uint8_t>(src), 0, 0);
}
ProgramBuilder& ProgramBuilder::Add(int dst, int a, int b) {
  return Emit(Op::kAdd, dst, static_cast<uint8_t>(a), static_cast<uint8_t>(b), 0);
}
ProgramBuilder& ProgramBuilder::Sub(int dst, int a, int b) {
  return Emit(Op::kSub, dst, static_cast<uint8_t>(a), static_cast<uint8_t>(b), 0);
}
ProgramBuilder& ProgramBuilder::And(int dst, int a, int b) {
  return Emit(Op::kAnd, dst, static_cast<uint8_t>(a), static_cast<uint8_t>(b), 0);
}
ProgramBuilder& ProgramBuilder::Or(int dst, int a, int b) {
  return Emit(Op::kOr, dst, static_cast<uint8_t>(a), static_cast<uint8_t>(b), 0);
}
ProgramBuilder& ProgramBuilder::Xor(int dst, int a, int b) {
  return Emit(Op::kXor, dst, static_cast<uint8_t>(a), static_cast<uint8_t>(b), 0);
}
ProgramBuilder& ProgramBuilder::ShlImm(int dst, int a, int amount) {
  return Emit(Op::kShlImm, dst, static_cast<uint8_t>(a), 0,
              static_cast<uint64_t>(amount));
}
ProgramBuilder& ProgramBuilder::ShrImm(int dst, int a, int amount) {
  return Emit(Op::kShrImm, dst, static_cast<uint8_t>(a), 0,
              static_cast<uint64_t>(amount));
}
ProgramBuilder& ProgramBuilder::CmpEq(int dst, int a, int b) {
  return Emit(Op::kCmpEq, dst, static_cast<uint8_t>(a), static_cast<uint8_t>(b), 0);
}
ProgramBuilder& ProgramBuilder::CmpNe(int dst, int a, int b) {
  return Emit(Op::kCmpNe, dst, static_cast<uint8_t>(a), static_cast<uint8_t>(b), 0);
}
ProgramBuilder& ProgramBuilder::CmpLtU(int dst, int a, int b) {
  return Emit(Op::kCmpLtU, dst, static_cast<uint8_t>(a), static_cast<uint8_t>(b), 0);
}
ProgramBuilder& ProgramBuilder::CmpLeU(int dst, int a, int b) {
  return Emit(Op::kCmpLeU, dst, static_cast<uint8_t>(a), static_cast<uint8_t>(b), 0);
}
ProgramBuilder& ProgramBuilder::CmpLtS(int dst, int a, int b) {
  return Emit(Op::kCmpLtS, dst, static_cast<uint8_t>(a), static_cast<uint8_t>(b), 0);
}
ProgramBuilder& ProgramBuilder::CmpLeS(int dst, int a, int b) {
  return Emit(Op::kCmpLeS, dst, static_cast<uint8_t>(a), static_cast<uint8_t>(b), 0);
}
ProgramBuilder& ProgramBuilder::Not(int dst, int a) {
  return Emit(Op::kNot, dst, static_cast<uint8_t>(a), 0, 0);
}
size_t ProgramBuilder::Jz(int a) {
  Emit(Op::kJz, 0, static_cast<uint8_t>(a), 0, 0);
  return code_.size() - 1;
}
size_t ProgramBuilder::Jmp() {
  Emit(Op::kJmp, 0, 0, 0, 0);
  return code_.size() - 1;
}
void ProgramBuilder::PatchJumpTarget(size_t jump_index) {
  SPIN_ASSERT(jump_index < code_.size());
  code_[jump_index].imm = code_.size();
}
ProgramBuilder& ProgramBuilder::Ret(int a) {
  return Emit(Op::kRet, 0, static_cast<uint8_t>(a), 0, 0);
}
ProgramBuilder& ProgramBuilder::RetImm(uint64_t imm) {
  return Emit(Op::kRetImm, 0, 0, 0, imm);
}

Program ProgramBuilder::Build() && {
  return Program(std::move(code_), num_args_, functional_);
}

// --- Canned programs -------------------------------------------------------

Program GuardGlobalEq(const uint64_t* addr, uint64_t value) {
  return std::move(ProgramBuilder(0, /*functional=*/true)
                       .LoadGlobal(0, addr, 8)
                       .LoadImm(1, value)
                       .CmpEq(2, 0, 1)
                       .Ret(2))
      .Build();
}

Program GuardArgFieldEq(int num_args, int arg, uint64_t offset, int width,
                        uint64_t mask, uint64_t value) {
  ProgramBuilder b(num_args, /*functional=*/true);
  b.LoadArg(0, arg).LoadField(1, 0, offset, width);
  if (mask != ~0ull) {
    b.LoadImm(2, mask).And(1, 1, 2);
  }
  b.LoadImm(3, value).CmpEq(4, 1, 3).Ret(4);
  return std::move(b).Build();
}

Program ReturnConst(int num_args, uint64_t value, bool functional) {
  return std::move(ProgramBuilder(num_args, functional).RetImm(value)).Build();
}

Program IncrementGlobal(uint64_t* addr, int num_args) {
  return std::move(ProgramBuilder(num_args, /*functional=*/false)
                       .LoadGlobal(0, addr, 8)
                       .LoadImm(1, 1)
                       .Add(0, 0, 1)
                       .StoreGlobal(addr, 0, 8)
                       .RetImm(0))
      .Build();
}

}  // namespace micro
}  // namespace spin
