#include "src/codegen/peephole.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "src/rt/panic.h"

namespace spin {
namespace codegen {
namespace {

// Whether the instruction writes its dst register.
bool WritesDst(const LInsn& insn) {
  switch (insn.op) {
    case LOp::kMovRegImm:
    case LOp::kMovRegReg:
    case LOp::kLoadRegMem:
    case LOp::kLea:
    case LOp::kAdd:
    case LOp::kSub:
    case LOp::kAnd:
    case LOp::kOr:
    case LOp::kXor:
    case LOp::kShlImm:
    case LOp::kShrImm:
    case LOp::kSetcc:
    case LOp::kMovzx8:
    case LOp::kPop:
      return true;
    default:
      return false;
  }
}

// Per-register "reg currently holds the value of [base+disp]" facts.
// Generated stubs only branch forward, so a single in-order pass sees every
// jump to a label before the label binds; facts at a label are the
// intersection (meet) of the facts on each incoming edge. A fact is packed
// into one word, disp:32 | base:8 | width:8, and bit r of `live_` says
// whether register r has one, so kills and meets visit live facts only.
class FactTable {
 public:
  void KillAll() { live_ = 0; }

  void KillReg(Reg reg) {
    Drop(Idx(reg));
    for (uint32_t m = live_; m != 0; m &= m - 1) {
      size_t r = static_cast<size_t>(__builtin_ctz(m));
      if (BaseOf(facts_[r]) == Idx(reg)) {
        Drop(r);
      }
    }
  }

  // A store of `width` bytes at [base+disp] happened. Facts loaded from the
  // same base register at a provably disjoint range survive (the dispatch
  // stub's bookkeeping stores at fired/result offsets must not invalidate
  // argument-slot facts); everything else dies.
  void KillStore(Reg base, int32_t disp, uint8_t width) {
    for (uint32_t m = live_; m != 0; m &= m - 1) {
      size_t r = static_cast<size_t>(__builtin_ctz(m));
      uint64_t f = facts_[r];
      int64_t f_disp = DispOf(f);
      bool disjoint = BaseOf(f) == Idx(base) &&
                      (f_disp + WidthOf(f) <= disp ||
                       int64_t{disp} + width <= f_disp);
      if (!disjoint) {
        Drop(r);
      }
    }
  }

  bool Holds(Reg reg, Reg base, int32_t disp, uint8_t width) const {
    size_t r = Idx(reg);
    return ((live_ >> r) & 1) != 0 && facts_[r] == Pack(base, disp, width);
  }

  void Record(Reg reg, Reg base, int32_t disp, uint8_t width) {
    size_t r = Idx(reg);
    if (reg == base) {
      Drop(r);
      return;
    }
    facts_[r] = Pack(base, disp, width);
    live_ = static_cast<uint16_t>(live_ | 1u << r);
  }

  void IntersectWith(const FactTable& other) {
    live_ &= other.live_;
    for (uint32_t m = live_; m != 0; m &= m - 1) {
      size_t r = static_cast<size_t>(__builtin_ctz(m));
      if (facts_[r] != other.facts_[r]) {
        Drop(r);
      }
    }
  }

 private:
  static size_t Idx(Reg reg) { return static_cast<size_t>(reg); }
  void Drop(size_t r) { live_ = static_cast<uint16_t>(live_ & ~(1u << r)); }
  static uint64_t Pack(Reg base, int32_t disp, uint8_t width) {
    return uint64_t{static_cast<uint32_t>(disp)} << 32 | Idx(base) << 8 |
           width;
  }
  static size_t BaseOf(uint64_t f) { return (f >> 8) & 0xff; }
  static int32_t DispOf(uint64_t f) {
    return static_cast<int32_t>(static_cast<uint32_t>(f >> 32));
  }
  static uint8_t WidthOf(uint64_t f) { return static_cast<uint8_t>(f); }

  uint16_t live_ = 0;
  uint64_t facts_[16] = {};
};

}  // namespace

size_t Peephole(std::vector<LInsn>& code) {
  size_t rewrites = 0;
  // Meet of facts over branches into each (forward) label, recorded as the
  // branches are seen. This is only sound when every branch is forward (as
  // the stub compiler guarantees); with any backward branch we degrade to
  // killing all facts at labels. Labels come dense from the stub compiler's
  // Emitter::NewLabel, so per-label state lives in vectors indexed by label.
  std::vector<size_t> bound_at;  // 1 + index of the label's bind; 0: unbound
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].op == LOp::kBind) {
      SPIN_ASSERT(code[i].label >= 0);
      auto label = static_cast<size_t>(code[i].label);
      bound_at.resize(std::max(bound_at.size(), label + 1));
      bound_at[label] = i + 1;
    }
  }
  bool backward_branches = false;
  for (size_t i = 0; i < code.size() && !backward_branches; ++i) {
    if (code[i].op == LOp::kJcc || code[i].op == LOp::kJmp) {
      auto label = static_cast<size_t>(code[i].label);
      backward_branches = label >= bound_at.size() || bound_at[label] <= i;
    }
  }
  // Filled only when every branch is forward, so every index is in range.
  std::vector<std::optional<FactTable>> incoming(
      backward_branches ? 0 : bound_at.size());
  auto record_branch = [&](int label, const FactTable& facts) {
    if (backward_branches) {
      return;
    }
    std::optional<FactTable>& in = incoming[static_cast<size_t>(label)];
    if (in) {
      in->IntersectWith(facts);
    } else {
      in = facts;
    }
  };
  // (2) The last kept jmp, held back from the meet until the next kept
  // instruction shows whether it survives: if that instruction binds the
  // jmp's label, control falls through instead and the jmp (with any dead
  // copies of it right behind) is dropped. Deciding at the label rather
  // than by looking one instruction ahead also drops a jmp that this pass
  // separated from its label by deleting what lay between, so one pass
  // reaches the fixpoint.
  struct {
    int label = -1;    // -1: none held
    size_t count = 0;  // consecutive kept jmps to `label`
    FactTable facts;   // on the first one's edge
    bool reachable = false;
  } jmp;
  FactTable facts;
  // Rewrites only delete instructions, so the pass compacts `code` in
  // place: the write cursor never passes the instruction being read.
  size_t kept = 0;
  bool reachable = true;  // false between an unconditional jmp and a label

  // Keeps code[i] (as rewritten in place) at the write cursor.
  auto keep = [&](size_t i) {
    if (kept != i) {
      code[kept] = code[i];
    }
    ++kept;
  };

  for (size_t i = 0; i < code.size(); ++i) {
    LInsn& insn = code[i];

    // (1) cmp r, 0 -> test r, r
    if (insn.op == LOp::kCmpRegImm32 && insn.imm == 0) {
      insn.op = LOp::kTestRegReg;
      insn.src = insn.dst;
      ++rewrites;
    }

    // (3) mov r, r
    if (insn.op == LOp::kMovRegReg && insn.dst == insn.src) {
      ++rewrites;
      continue;
    }

    // (4) redundant reload
    if (insn.op == LOp::kLoadRegMem && reachable &&
        facts.Holds(insn.dst, insn.base, insn.disp, insn.width)) {
      ++rewrites;
      continue;
    }

    // (2) Settle the held jmp.
    if (jmp.label >= 0 && insn.op == LOp::kJmp && insn.label == jmp.label) {
      ++jmp.count;  // unreachable behind the first; stands or falls with it
      keep(i);
      continue;
    }
    if (jmp.label >= 0) {
      if (insn.op == LOp::kBind && insn.label == jmp.label) {
        kept -= jmp.count;
        rewrites += jmp.count;
        facts = jmp.facts;
        reachable = jmp.reachable;
      } else {
        record_branch(jmp.label, jmp.facts);
        if (jmp.count > 1) {
          record_branch(jmp.label, FactTable{});  // the dead copies' edges
        }
      }
      jmp.label = -1;
    }

    // Update dataflow state.
    switch (insn.op) {
      case LOp::kLoadRegMem:
        facts.KillReg(insn.dst);
        facts.Record(insn.dst, insn.base, insn.disp, insn.width);
        break;
      case LOp::kCall:
        // Caller-saved registers die, and callees may write through filter
        // pointers into the frame: all facts die.
        facts.KillAll();
        break;
      case LOp::kStoreMemReg:
        facts.KillStore(insn.base, insn.disp, insn.width);
        break;
      case LOp::kStoreMemImm32:
        facts.KillStore(insn.base, insn.disp, 4);
        break;
      case LOp::kAluMemReg:
        facts.KillStore(insn.base, insn.disp, 8);
        break;
      case LOp::kIncMem32:
        facts.KillStore(insn.base, insn.disp, 4);
        break;
      case LOp::kJcc:
        record_branch(insn.label, facts);
        break;  // fall-through keeps current facts
      case LOp::kJmp:
        jmp.label = insn.label;
        jmp.count = 1;
        jmp.facts = facts;
        jmp.reachable = reachable;
        reachable = false;
        facts.KillAll();
        break;
      case LOp::kBind: {
        if (backward_branches) {
          facts.KillAll();
          reachable = true;
          break;
        }
        const std::optional<FactTable>& in =
            incoming[static_cast<size_t>(insn.label)];
        if (!reachable) {
          // Only the recorded branches reach this point.
          facts = in ? *in : FactTable{};
        } else if (in) {
          facts.IntersectWith(*in);
        }
        reachable = true;
        break;
      }
      case LOp::kPop:
        facts.KillReg(insn.dst);
        break;
      default:
        if (WritesDst(insn)) {
          facts.KillReg(insn.dst);
        }
        break;
    }

    keep(i);
  }

  code.resize(kept);
  return rewrites;
}

}  // namespace codegen
}  // namespace spin
