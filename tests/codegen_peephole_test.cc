// Unit tests for the LIR peephole pass: each rewrite, plus conservatism
// checks (facts must die across calls, stores, and labels), and the
// property that one pass reaches the fixpoint on any stub the compiler
// lowers.
#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/codegen/peephole.h"
#include "src/codegen/stub_compiler.h"
#include "src/micro/program.h"

namespace spin {
namespace codegen {
namespace {

TEST(PeepholeTest, CmpZeroBecomesTest) {
  std::vector<LInsn> code = {
      {.op = LOp::kCmpRegImm32, .dst = Reg::kRax, .imm = 0},
      {.op = LOp::kRet},
  };
  EXPECT_GE(Peephole(code), 1u);
  ASSERT_EQ(code.size(), 2u);
  EXPECT_EQ(code[0].op, LOp::kTestRegReg);
  EXPECT_EQ(code[0].dst, Reg::kRax);
  EXPECT_EQ(code[0].src, Reg::kRax);
}

TEST(PeepholeTest, CmpNonZeroUntouched) {
  std::vector<LInsn> code = {
      {.op = LOp::kCmpRegImm32, .dst = Reg::kRax, .imm = 7},
      {.op = LOp::kRet},
  };
  Peephole(code);
  EXPECT_EQ(code[0].op, LOp::kCmpRegImm32);
}

TEST(PeepholeTest, JumpToNextDropped) {
  std::vector<LInsn> code = {
      {.op = LOp::kJmp, .label = 3},
      {.op = LOp::kBind, .label = 3},
      {.op = LOp::kRet},
  };
  EXPECT_GE(Peephole(code), 1u);
  EXPECT_EQ(code[0].op, LOp::kBind);
}

TEST(PeepholeTest, JumpElsewhereKept) {
  std::vector<LInsn> code = {
      {.op = LOp::kJmp, .label = 3},
      {.op = LOp::kMovRegImm, .dst = Reg::kRax, .imm = 1},
      {.op = LOp::kBind, .label = 3},
      {.op = LOp::kRet},
  };
  Peephole(code);
  EXPECT_EQ(code[0].op, LOp::kJmp);
}

TEST(PeepholeTest, SelfMoveDropped) {
  std::vector<LInsn> code = {
      {.op = LOp::kMovRegReg, .dst = Reg::kRax, .src = Reg::kRax},
      {.op = LOp::kRet},
  };
  EXPECT_GE(Peephole(code), 1u);
  EXPECT_EQ(code[0].op, LOp::kRet);
}

TEST(PeepholeTest, RedundantReloadDropped) {
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kRet},
  };
  EXPECT_GE(Peephole(code), 1u);
  ASSERT_EQ(code.size(), 2u);
}

TEST(PeepholeTest, ReloadSurvivesDifferentSlot) {
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 8},
      {.op = LOp::kRet},
  };
  Peephole(code);
  EXPECT_EQ(code.size(), 3u);
}

TEST(PeepholeTest, CallKillsLoadFacts) {
  // A handler may mutate the frame through a filter pointer: reloads after
  // a call must stay.
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kCall, .dst = Reg::kRax},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kRet},
  };
  Peephole(code);
  EXPECT_EQ(code.size(), 4u);
}

TEST(PeepholeTest, OverlappingStoreKillsLoadFacts) {
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kStoreMemReg, .src = Reg::kRcx, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kRet},
  };
  Peephole(code);
  EXPECT_EQ(code.size(), 4u);
}

TEST(PeepholeTest, DisjointSameBaseStoreKeepsFacts) {
  // The stub's fired-count increment at [rbx+72] must not force argument
  // slot reloads from [rbx+0].
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kIncMem32, .base = Reg::kRbx, .disp = 72},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kRet},
  };
  EXPECT_GE(Peephole(code), 1u);
  EXPECT_EQ(code.size(), 3u);
}

TEST(PeepholeTest, DifferentBaseStoreKillsFacts) {
  // A store through another register could alias anything.
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kStoreMemReg, .src = Reg::kRcx, .base = Reg::kR11,
       .width = 8, .disp = 128},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kRet},
  };
  Peephole(code);
  EXPECT_EQ(code.size(), 4u);
}

TEST(PeepholeTest, UnbranchedLabelKeepsFacts) {
  // Forward-only control flow: a label nobody jumps to is a plain point.
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kBind, .label = 1},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kRet},
  };
  EXPECT_GE(Peephole(code), 1u);
  EXPECT_EQ(code.size(), 3u);
}

TEST(PeepholeTest, JoinDropsFactMissingOnOneEdge) {
  // The branch into L1 happens before the load; the fact only holds on the
  // fall-through edge, so the reload after L1 must stay.
  std::vector<LInsn> code = {
      {.op = LOp::kTestRegReg, .dst = Reg::kRax, .src = Reg::kRax},
      {.op = LOp::kJcc, .cc = Cond::kE, .label = 1},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kBind, .label = 1},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kRet},
  };
  Peephole(code);
  EXPECT_EQ(code.size(), 6u);
}

TEST(PeepholeTest, JoinKeepsFactCommonToAllEdges) {
  // The fact is established before the branch, so both edges carry it and
  // the reload after the join is redundant.
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kTestRegReg, .dst = Reg::kRax, .src = Reg::kRax},
      {.op = LOp::kJcc, .cc = Cond::kE, .label = 1},
      {.op = LOp::kMovRegImm, .dst = Reg::kRcx, .imm = 1},
      {.op = LOp::kBind, .label = 1},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kRet},
  };
  EXPECT_GE(Peephole(code), 1u);
  EXPECT_EQ(code.size(), 6u);
}

TEST(PeepholeTest, BackwardBranchDisablesJoinOptimization) {
  // A backward branch (never produced by the stub compiler) must degrade
  // gracefully: facts die at labels, nothing is miscompiled.
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kBind, .label = 1},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kTestRegReg, .dst = Reg::kRax, .src = Reg::kRax},
      {.op = LOp::kJcc, .cc = Cond::kNe, .label = 1},
      {.op = LOp::kRet},
  };
  Peephole(code);
  EXPECT_EQ(code.size(), 6u) << "reload inside the loop must survive";
}

TEST(PeepholeTest, WriteToRegKillsItsFact) {
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kMovRegImm, .dst = Reg::kRdi, .imm = 5},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kRet},
  };
  Peephole(code);
  EXPECT_EQ(code.size(), 4u);
}

TEST(PeepholeTest, WriteToBaseKillsDependentFacts) {
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRcx,
       .width = 8, .disp = 0},
      {.op = LOp::kMovRegImm, .dst = Reg::kRcx, .imm = 5},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRcx,
       .width = 8, .disp = 0},
      {.op = LOp::kRet},
  };
  Peephole(code);
  EXPECT_EQ(code.size(), 4u);
}

TEST(PeepholeTest, WidthMismatchIsNotRedundant) {
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 4, .disp = 0},
      {.op = LOp::kRet},
  };
  Peephole(code);
  EXPECT_EQ(code.size(), 3u);
}

TEST(PeepholeTest, CascadingRewritesReachFixpoint) {
  // Dropping a jump makes a reload adjacent; both must eventually go.
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kMovRegReg, .dst = Reg::kRax, .src = Reg::kRax},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kRet},
  };
  Peephole(code);
  EXPECT_EQ(code.size(), 2u);
}

TEST(PeepholeTest, JumpOverDeletedCodeCollapsesInOnePass) {
  // The self-moves between the jmp and its label are deleted by the same
  // pass that must then see the jmp as a jump to the next instruction.
  std::vector<LInsn> code = {
      {.op = LOp::kJmp, .label = 0},
      {.op = LOp::kMovRegReg, .dst = Reg::kRax, .src = Reg::kRax},
      {.op = LOp::kMovRegReg, .dst = Reg::kRcx, .src = Reg::kRcx},
      {.op = LOp::kBind, .label = 0},
      {.op = LOp::kRet},
  };
  EXPECT_EQ(Peephole(code), 3u);
  ASSERT_EQ(code.size(), 2u);
  EXPECT_EQ(code[0].op, LOp::kBind);
  EXPECT_EQ(code[1].op, LOp::kRet);
  EXPECT_EQ(Peephole(code), 0u);
}

TEST(PeepholeTest, DeadJumpChainCollapsesAndKeepsFacts) {
  // jmp L; jmp L; jmp L; L: — the copies behind the first are dead. All
  // three go, and the fact live on the first jmp's edge still holds at L.
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kJmp, .label = 0},
      {.op = LOp::kJmp, .label = 0},
      {.op = LOp::kJmp, .label = 0},
      {.op = LOp::kBind, .label = 0},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kRet},
  };
  EXPECT_EQ(Peephole(code), 4u);
  ASSERT_EQ(code.size(), 3u);
  EXPECT_EQ(Peephole(code), 0u);
}

TEST(PeepholeTest, DeadJumpCopyStillKillsFactsWhenKept) {
  // The chain does not reach L, so both jmps stay; the dead copy is an
  // edge with no facts, and the reload after L must stay.
  std::vector<LInsn> code = {
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kJmp, .label = 0},
      {.op = LOp::kJmp, .label = 0},
      {.op = LOp::kMovRegImm, .dst = Reg::kRax, .imm = 1},
      {.op = LOp::kBind, .label = 0},
      {.op = LOp::kLoadRegMem, .dst = Reg::kRdi, .base = Reg::kRbx,
       .width = 8, .disp = 0},
      {.op = LOp::kRet},
  };
  EXPECT_EQ(Peephole(code), 0u);
  EXPECT_EQ(code.size(), 7u);
}

// A random valid micro-program: loads, ALU ops, compares, forward jumps and
// early returns, so the lowered stub has joins and dead code.
micro::Program RandomProgram(std::mt19937_64& rng, int num_args,
                             bool functional) {
  size_t n = 1 + rng() % 12;
  std::vector<micro::Insn> code;
  for (size_t i = 0; i + 1 < n; ++i) {
    micro::Insn insn{.op = micro::Op::kLoadImm,
                     .dst = static_cast<uint8_t>(rng() % micro::kNumRegs),
                     .a = static_cast<uint8_t>(rng() % micro::kNumRegs),
                     .b = static_cast<uint8_t>(rng() % micro::kNumRegs),
                     .imm = rng() % 3 == 0 ? rng() : rng() % 64};
    switch (rng() % 12) {
      case 0:
      case 1:
        if (num_args > 0) {
          insn.op = micro::Op::kLoadArg;
          insn.imm = rng() % static_cast<uint64_t>(num_args);
        }
        break;
      case 2:
        insn.op = micro::Op::kLoadGlobal;
        insn.imm = 0x700000 + 8 * (rng() % 4);
        insn.b = static_cast<uint8_t>(rng() % 4);
        break;
      case 3:
        insn.op = micro::Op::kLoadField;
        insn.imm = 8 * (rng() % 4);
        insn.b = static_cast<uint8_t>(rng() % 4);
        break;
      case 4:
        if (!functional) {
          insn.op = micro::Op::kStoreGlobal;
          insn.imm = 0x700000 + 8 * (rng() % 4);
          insn.b = static_cast<uint8_t>(rng() % 4);
        }
        break;
      case 5:
        insn.op = micro::Op::kAdd;
        break;
      case 6:
        insn.op = micro::Op::kMov;
        break;
      case 7:
        insn.op = static_cast<micro::Op>(
            static_cast<int>(micro::Op::kCmpEq) + rng() % 6);
        break;
      case 8:
      case 9:
        insn.op = rng() % 2 == 0 ? micro::Op::kJz : micro::Op::kJmp;
        insn.imm = i + 1 + rng() % (n - 1 - i);
        break;
      case 10:
        insn.op = rng() % 2 == 0 ? micro::Op::kRet : micro::Op::kRetImm;
        break;
      default:
        break;  // kLoadImm
    }
    code.push_back(insn);
  }
  code.push_back({.op = rng() % 2 == 0 ? micro::Op::kRet : micro::Op::kRetImm,
                  .a = static_cast<uint8_t>(rng() % micro::kNumRegs),
                  .imm = rng() % 4});
  micro::Program prog(std::move(code), num_args, functional);
  EXPECT_EQ(prog.Validate(), micro::ValidateStatus::kOk) << prog.ToString();
  return prog;
}

TEST(PeepholeFixpointTest, SecondPassOverLoweredStubsRewritesNothing) {
  std::mt19937_64 rng(16);
  int compiled = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    std::vector<std::unique_ptr<micro::Program>> progs;
    StubSpec spec;
    spec.num_args = static_cast<int>(rng() % 7);
    spec.policy = static_cast<ResultPolicy>(rng() % 5);
    spec.result_is_bool = rng() % 2 == 0;
    spec.inline_micro = rng() % 5 != 0;
    auto callable = [&](bool functional) {
      CallableSpec c;
      if (rng() % 3 != 0) {
        progs.push_back(std::make_unique<micro::Program>(
            RandomProgram(rng, spec.num_args, functional)));
        c.prog = progs.back().get();
      }
      if (c.prog == nullptr || rng() % 2 == 0) {
        c.fn = reinterpret_cast<void*>(0x100000 + 16 * (rng() % 1000));
      }
      if (spec.num_args < 6 && rng() % 6 == 0) {
        c.closure_form = true;
        c.closure = reinterpret_cast<void*>(0x4242);
      }
      return c;
    };
    size_t bindings = 1 + rng() % 12;
    for (size_t b = 0; b < bindings; ++b) {
      BindingSpec binding;
      for (size_t g = rng() % 4; g > 0; --g) {
        binding.guards.push_back(callable(/*functional=*/true));
      }
      binding.handler = callable(/*functional=*/false);
      spec.bindings.push_back(std::move(binding));
    }
    if (spec.num_args > 0 && rng() % 4 == 0) {
      StubTree tree;
      tree.arg = static_cast<int>(rng() % static_cast<uint64_t>(spec.num_args));
      tree.offset = rng() % 16;
      tree.width = static_cast<uint8_t>(1u << (rng() % 4));
      std::vector<uint32_t> order(bindings);
      for (size_t i = 0; i < bindings; ++i) {
        order[i] = static_cast<uint32_t>(i);
      }
      std::shuffle(order.begin(), order.end(), rng);
      uint64_t value = rng() % 8;
      for (uint32_t index : order) {
        tree.cases.push_back({value, index});
        value += 1 + rng() % 0x100000000ull;
      }
      spec.tree = tree;
    }
    std::vector<LInsn> code;
    if (!LowerStub(spec, &code)) {
      continue;
    }
    ++compiled;
    Peephole(code);
    std::vector<LInsn> once = code;
    ASSERT_EQ(Peephole(code), 0u) << "spec " << iter;
    ASSERT_EQ(code.size(), once.size()) << "spec " << iter;
  }
  EXPECT_GE(compiled, 1000);
}

}  // namespace
}  // namespace codegen
}  // namespace spin
