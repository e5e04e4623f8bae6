// Encoder tests: assemble small LIR functions and execute them. Exact-byte
// checks cover the encodings with special cases (rsp/r12 need SIB, rbp/r13
// need explicit displacement, byte-register REX rules).
#include <cstring>
#include <random>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/codegen/exec_memory.h"
#include "src/codegen/lir.h"
#include "src/codegen/stub_compiler.h"

namespace spin {
namespace codegen {
namespace {

using Fn0 = uint64_t (*)();
using Fn1 = uint64_t (*)(uint64_t);
using Fn2 = uint64_t (*)(uint64_t, uint64_t);

class EncoderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CodegenAvailable()) {
      GTEST_SKIP() << "codegen unavailable on this host";
    }
  }

  void* Assemble(const std::vector<LInsn>& code) {
    std::vector<uint8_t> bytes = Encode(code);
    buffers_.push_back(CodeBuffer::Create(bytes));
    EXPECT_NE(buffers_.back(), nullptr);
    return const_cast<void*>(buffers_.back()->entry());
  }

  std::vector<std::unique_ptr<CodeBuffer>> buffers_;
};

TEST_F(EncoderTest, MovImmAllForms) {
  // Small, 32-bit, negative-32, and full 64-bit immediates.
  for (uint64_t imm : {uint64_t{0}, uint64_t{1}, uint64_t{0x7fffffff},
                       uint64_t{0xffffffff}, ~uint64_t{0},
                       uint64_t{0x123456789abcdef0}}) {
    auto fn = reinterpret_cast<Fn0>(Assemble({
        {.op = LOp::kMovRegImm, .dst = Reg::kRax, .imm = imm},
        {.op = LOp::kRet},
    }));
    EXPECT_EQ(fn(), imm) << std::hex << imm;
  }
}

TEST_F(EncoderTest, MovRegRegAndAlu) {
  // f(a, b) = ((a + b) ^ b) - (a & b)
  auto fn = reinterpret_cast<Fn2>(Assemble({
      {.op = LOp::kMovRegReg, .dst = Reg::kRax, .src = Reg::kRdi},
      {.op = LOp::kAdd, .dst = Reg::kRax, .src = Reg::kRsi},
      {.op = LOp::kXor, .dst = Reg::kRax, .src = Reg::kRsi},
      {.op = LOp::kMovRegReg, .dst = Reg::kRcx, .src = Reg::kRdi},
      {.op = LOp::kAnd, .dst = Reg::kRcx, .src = Reg::kRsi},
      {.op = LOp::kSub, .dst = Reg::kRax, .src = Reg::kRcx},
      {.op = LOp::kRet},
  }));
  uint64_t a = 0x1234567812345678ull;
  uint64_t b = 0x9abcdef09abcdef0ull;
  EXPECT_EQ(fn(a, b), ((a + b) ^ b) - (a & b));
}

TEST_F(EncoderTest, ExtendedRegisters) {
  // Same dataflow through r8-r11 to exercise REX.R/REX.B paths.
  auto fn = reinterpret_cast<Fn2>(Assemble({
      {.op = LOp::kMovRegReg, .dst = Reg::kR8, .src = Reg::kRdi},
      {.op = LOp::kMovRegReg, .dst = Reg::kR9, .src = Reg::kRsi},
      {.op = LOp::kAdd, .dst = Reg::kR8, .src = Reg::kR9},
      {.op = LOp::kMovRegReg, .dst = Reg::kRax, .src = Reg::kR8},
      {.op = LOp::kRet},
  }));
  EXPECT_EQ(fn(40, 2), 42u);
}

TEST_F(EncoderTest, LoadsZeroExtendEachWidth) {
  uint64_t cell = 0xffeeddccbbaa9988ull;
  for (uint8_t width : {uint8_t{1}, uint8_t{2}, uint8_t{4}, uint8_t{8}}) {
    auto fn = reinterpret_cast<Fn1>(Assemble({
        {.op = LOp::kLoadRegMem, .dst = Reg::kRax, .base = Reg::kRdi,
         .width = width, .disp = 0},
        {.op = LOp::kRet},
    }));
    uint64_t mask = width == 8 ? ~0ull : ((1ull << (8 * width)) - 1);
    EXPECT_EQ(fn(reinterpret_cast<uintptr_t>(&cell)), cell & mask);
  }
}

TEST_F(EncoderTest, StoresEachWidth) {
  for (uint8_t width : {uint8_t{1}, uint8_t{2}, uint8_t{4}, uint8_t{8}}) {
    uint64_t cell = 0;
    auto fn = reinterpret_cast<Fn2>(Assemble({
        {.op = LOp::kStoreMemReg, .src = Reg::kRsi, .base = Reg::kRdi,
         .width = width, .disp = 0},
        {.op = LOp::kMovRegImm, .dst = Reg::kRax, .imm = 0},
        {.op = LOp::kRet},
    }));
    fn(reinterpret_cast<uintptr_t>(&cell), 0x1122334455667788ull);
    uint64_t mask = width == 8 ? ~0ull : ((1ull << (8 * width)) - 1);
    EXPECT_EQ(cell, 0x1122334455667788ull & mask) << "width " << +width;
  }
}

TEST_F(EncoderTest, ByteStoreFromSilNeedsEmptyRex) {
  // store1 [rdi], rsi hits the spl/bpl/sil/dil byte-register rule: without
  // a REX prefix 0x88 /6 would write %dh.
  uint64_t cell = 0;
  auto fn = reinterpret_cast<Fn2>(Assemble({
      {.op = LOp::kStoreMemReg, .src = Reg::kRsi, .base = Reg::kRdi,
       .width = 1, .disp = 0},
      {.op = LOp::kRet},
  }));
  fn(reinterpret_cast<uintptr_t>(&cell), 0xab);
  EXPECT_EQ(cell, 0xabu);
}

TEST_F(EncoderTest, DisplacementForms) {
  // disp == 0, disp8, disp32, and negative displacements.
  uint64_t block[600] = {};
  block[0] = 10;
  block[15] = 20;   // disp8: 120
  block[512] = 30;  // disp32: 4096
  for (auto [index, expect] : {std::pair<int, uint64_t>{0, 10},
                               {15, 20},
                               {512, 30}}) {
    auto fn = reinterpret_cast<Fn1>(Assemble({
        {.op = LOp::kLoadRegMem, .dst = Reg::kRax, .base = Reg::kRdi,
         .width = 8, .disp = 8 * index},
        {.op = LOp::kRet},
    }));
    EXPECT_EQ(fn(reinterpret_cast<uintptr_t>(block)), expect);
  }
  // Negative disp8.
  auto fn = reinterpret_cast<Fn1>(Assemble({
      {.op = LOp::kLoadRegMem, .dst = Reg::kRax, .base = Reg::kRdi,
       .width = 8, .disp = -8},
      {.op = LOp::kRet},
  }));
  EXPECT_EQ(fn(reinterpret_cast<uintptr_t>(&block[1])), 10u);
}

TEST_F(EncoderTest, RspAndRbpBasesEncodeCorrectly) {
  // [rsp+disp] requires a SIB byte; [rbp+0] requires an explicit disp8.
  // Exercise via: spill rdi below rsp, reload through rsp; and move rdi to
  // rbp (after saving) and load through it.
  auto fn = reinterpret_cast<Fn1>(Assemble({
      {.op = LOp::kStoreMemReg, .src = Reg::kRdi, .base = Reg::kRsp,
       .width = 8, .disp = -16},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRax, .base = Reg::kRsp,
       .width = 8, .disp = -16},
      {.op = LOp::kRet},
  }));
  EXPECT_EQ(fn(77), 77u);

  uint64_t cell = 55;
  auto fn2 = reinterpret_cast<Fn1>(Assemble({
      {.op = LOp::kPush, .dst = Reg::kRbp},
      {.op = LOp::kMovRegReg, .dst = Reg::kRbp, .src = Reg::kRdi},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRax, .base = Reg::kRbp,
       .width = 8, .disp = 0},
      {.op = LOp::kPop, .dst = Reg::kRbp},
      {.op = LOp::kRet},
  }));
  EXPECT_EQ(fn2(reinterpret_cast<uintptr_t>(&cell)), 55u);
}

TEST_F(EncoderTest, R12AndR13Bases) {
  // r12 hits the SIB special case, r13 the disp special case.
  uint64_t cell = 0x42;
  auto fn = reinterpret_cast<Fn1>(Assemble({
      {.op = LOp::kPush, .dst = Reg::kR12},
      {.op = LOp::kPush, .dst = Reg::kR13},
      {.op = LOp::kMovRegReg, .dst = Reg::kR12, .src = Reg::kRdi},
      {.op = LOp::kMovRegReg, .dst = Reg::kR13, .src = Reg::kRdi},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRax, .base = Reg::kR12,
       .width = 8, .disp = 0},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRcx, .base = Reg::kR13,
       .width = 8, .disp = 0},
      {.op = LOp::kAdd, .dst = Reg::kRax, .src = Reg::kRcx},
      {.op = LOp::kPop, .dst = Reg::kR13},
      {.op = LOp::kPop, .dst = Reg::kR12},
      {.op = LOp::kRet},
  }));
  EXPECT_EQ(fn(reinterpret_cast<uintptr_t>(&cell)), 0x84u);
}

TEST_F(EncoderTest, ShiftsAndCompare) {
  // f(a) = (a << 5) >> 3
  auto fn = reinterpret_cast<Fn1>(Assemble({
      {.op = LOp::kMovRegReg, .dst = Reg::kRax, .src = Reg::kRdi},
      {.op = LOp::kShlImm, .dst = Reg::kRax, .imm = 5},
      {.op = LOp::kShrImm, .dst = Reg::kRax, .imm = 3},
      {.op = LOp::kRet},
  }));
  EXPECT_EQ(fn(0x8000000000000001ull), (0x8000000000000001ull << 5) >> 3);
}

TEST_F(EncoderTest, SetccAndBranches) {
  // f(a, b) = a < b (unsigned) computed two ways: setcc and a branch.
  auto fn = reinterpret_cast<Fn2>(Assemble({
      {.op = LOp::kCmpRegReg, .dst = Reg::kRdi, .src = Reg::kRsi},
      {.op = LOp::kSetcc, .dst = Reg::kRax, .cc = Cond::kB},
      {.op = LOp::kMovzx8, .dst = Reg::kRax},
      {.op = LOp::kRet},
  }));
  EXPECT_EQ(fn(1, 2), 1u);
  EXPECT_EQ(fn(2, 1), 0u);
  EXPECT_EQ(fn(1, 1), 0u);

  auto fn2 = reinterpret_cast<Fn2>(Assemble({
      {.op = LOp::kCmpRegReg, .dst = Reg::kRdi, .src = Reg::kRsi},
      {.op = LOp::kJcc, .cc = Cond::kB, .label = 0},
      {.op = LOp::kMovRegImm, .dst = Reg::kRax, .imm = 0},
      {.op = LOp::kRet},
      {.op = LOp::kBind, .label = 0},
      {.op = LOp::kMovRegImm, .dst = Reg::kRax, .imm = 1},
      {.op = LOp::kRet},
  }));
  EXPECT_EQ(fn2(1, 2), 1u);
  EXPECT_EQ(fn2(2, 1), 0u);
}

TEST_F(EncoderTest, SetccOnHighByteRegs) {
  // setcc on sil/dil and r8b exercise the forced/extended REX paths.
  for (Reg reg : {Reg::kRsi, Reg::kRdi, Reg::kR8}) {
    auto fn = reinterpret_cast<Fn2>(Assemble({
        {.op = LOp::kCmpRegReg, .dst = Reg::kRdi, .src = Reg::kRsi},
        {.op = LOp::kSetcc, .dst = reg, .cc = Cond::kE},
        {.op = LOp::kMovzx8, .dst = reg},
        {.op = LOp::kMovRegReg, .dst = Reg::kRax, .src = reg},
        {.op = LOp::kRet},
    }));
    EXPECT_EQ(fn(5, 5), 1u) << RegName(reg);
    EXPECT_EQ(fn(5, 6), 0u) << RegName(reg);
  }
}

TEST_F(EncoderTest, CallThroughRegister) {
  // Stub calls a C function through rax, as generated dispatch code does.
  static uint64_t (*target)(uint64_t) = +[](uint64_t x) { return x * 3; };
  auto fn = reinterpret_cast<Fn1>(Assemble({
      {.op = LOp::kPush, .dst = Reg::kRbx},  // align stack for the call
      {.op = LOp::kMovRegImm, .dst = Reg::kRax,
       .imm = reinterpret_cast<uintptr_t>(target)},
      {.op = LOp::kCall, .dst = Reg::kRax},
      {.op = LOp::kPop, .dst = Reg::kRbx},
      {.op = LOp::kRet},
  }));
  EXPECT_EQ(fn(14), 42u);
}

TEST_F(EncoderTest, MemoryAluAndInc) {
  struct Cells {
    uint64_t or_cell;
    uint64_t add_cell;
    uint32_t counter;
  } cells{0x10, 5, 7};
  auto fn = reinterpret_cast<Fn2>(Assemble({
      {.op = LOp::kAluMemReg, .src = Reg::kRsi, .base = Reg::kRdi,
       .alu = AluSub::kOr, .disp = 0},
      {.op = LOp::kAluMemReg, .src = Reg::kRsi, .base = Reg::kRdi,
       .alu = AluSub::kAdd, .disp = 8},
      {.op = LOp::kIncMem32, .base = Reg::kRdi, .disp = 16},
      {.op = LOp::kMovRegImm, .dst = Reg::kRax, .imm = 0},
      {.op = LOp::kRet},
  }));
  fn(reinterpret_cast<uintptr_t>(&cells), 0x3);
  EXPECT_EQ(cells.or_cell, 0x13u);
  EXPECT_EQ(cells.add_cell, 8u);
  EXPECT_EQ(cells.counter, 8u);
}

TEST_F(EncoderTest, LeaComputesAddress) {
  auto fn = reinterpret_cast<Fn1>(Assemble({
      {.op = LOp::kLea, .dst = Reg::kRax, .base = Reg::kRdi, .disp = 24},
      {.op = LOp::kRet},
  }));
  EXPECT_EQ(fn(1000), 1024u);
}

TEST(EncoderBytesTest, KnownEncodings) {
  // A few exact encodings cross-checked against an external assembler.
  EXPECT_EQ(Encode({{.op = LOp::kRet}}), (std::vector<uint8_t>{0xC3}));
  // mov rax, rdi => 48 89 f8
  EXPECT_EQ(Encode({{.op = LOp::kMovRegReg, .dst = Reg::kRax,
                     .src = Reg::kRdi}}),
            (std::vector<uint8_t>{0x48, 0x89, 0xF8}));
  // push rbx => 53
  EXPECT_EQ(Encode({{.op = LOp::kPush, .dst = Reg::kRbx}}),
            (std::vector<uint8_t>{0x53}));
  // push r12 => 41 54
  EXPECT_EQ(Encode({{.op = LOp::kPush, .dst = Reg::kR12}}),
            (std::vector<uint8_t>{0x41, 0x54}));
  // mov rax, [rbx+8] => 48 8b 43 08
  EXPECT_EQ(Encode({{.op = LOp::kLoadRegMem, .dst = Reg::kRax,
                     .base = Reg::kRbx, .width = 8, .disp = 8}}),
            (std::vector<uint8_t>{0x48, 0x8B, 0x43, 0x08}));
  // mov eax, 1 => b8 01 00 00 00 (zero-extending 32-bit form)
  EXPECT_EQ(Encode({{.op = LOp::kMovRegImm, .dst = Reg::kRax, .imm = 1}}),
            (std::vector<uint8_t>{0xB8, 0x01, 0x00, 0x00, 0x00}));
}

// Branches over random labels, bound and not, forward and backward. Labels
// sit in a dense table: every branch must resolve to its label's bind, and
// a branch to a label never bound (-1 included) must panic naming the first
// such branch, as the encoder always has.
TEST(EncoderBytesTest, LabelFuzz) {
  std::mt19937 rng(20261019);
  int panics = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<LInsn> code;
    std::set<int> bound;
    int n = 1 + static_cast<int>(rng() % 24);
    for (int i = 0; i < n; ++i) {
      int label = rng() % 25 == 0 ? -1 : static_cast<int>(rng() % 8);
      switch (rng() % 6) {
        case 0:
        case 1:
        case 2:
          if (label >= 0 && bound.insert(label).second) {
            code.push_back({.op = LOp::kBind, .label = label});
            break;
          }
          [[fallthrough]];
        case 3:
          code.push_back({.op = LOp::kJmp, .label = label});
          break;
        case 4:
          code.push_back({.op = LOp::kJcc, .cc = Cond::kNe, .label = label});
          break;
        default:
          code.push_back({.op = LOp::kRet});
          break;
      }
    }
    const LInsn* unbound = nullptr;
    for (const LInsn& insn : code) {
      bool branch = insn.op == LOp::kJmp || insn.op == LOp::kJcc;
      if (branch && bound.count(insn.label) == 0) {
        unbound = &insn;
        break;
      }
    }
    if (unbound != nullptr) {
      ++panics;
      EXPECT_DEATH(Encode(code),
                   "unbound label L" + std::to_string(unbound->label) + "\n");
      continue;
    }
    // jmp rel32 is 5 bytes, jcc rel32 6, ret 1, a bind 0.
    std::vector<uint8_t> bytes = Encode(code);
    std::vector<size_t> bind_at(8);
    size_t at = 0;
    for (const LInsn& insn : code) {
      if (insn.op == LOp::kBind) {
        bind_at[static_cast<size_t>(insn.label)] = at;
      }
      at += insn.op == LOp::kJmp ? 5 : insn.op == LOp::kJcc ? 6
            : insn.op == LOp::kRet ? 1 : 0;
    }
    ASSERT_EQ(bytes.size(), at);
    at = 0;
    for (const LInsn& insn : code) {
      if (insn.op == LOp::kJmp || insn.op == LOp::kJcc) {
        size_t end = at + (insn.op == LOp::kJmp ? 5 : 6);
        int32_t rel;
        std::memcpy(&rel, &bytes[end - 4], 4);
        EXPECT_EQ(static_cast<int64_t>(end) + rel,
                  static_cast<int64_t>(bind_at[static_cast<size_t>(
                      insn.label)]))
            << "iteration " << iter;
        at = end;
      } else {
        at += insn.op == LOp::kRet ? 1 : 0;
      }
    }
  }
  EXPECT_GT(panics, 40);
  EXPECT_LT(panics, 360);
}

}  // namespace
}  // namespace codegen
}  // namespace spin
