// Direct probes of the code generator: CompileStub on a 10-binding spec,
// CompiledStub::Clone, and CodeBuffer::Create, each timed per call from
// the benchmark's side and recorded as spans.
#include <memory>
#include <vector>

#include "perfbench/bench/common.h"
#include "src/codegen/exec_memory.h"
#include "src/codegen/stub_compiler.h"
#include "src/micro/program.h"

namespace perfbench {

void RunCodegenProbes(Result* result) {
  namespace cg = spin::codegen;
  constexpr int kCalls = 300;

  // The stub10 shape of the raise workload: ten inlined micro handlers,
  // each behind an inlined global-compare guard, folded with kSum.
  std::vector<spin::micro::Program> handlers;
  spin::micro::Program guard = spin::micro::GuardGlobalEq(&g_guard_word, 1);
  for (int i = 0; i < 10; ++i) {
    handlers.push_back(spin::micro::ReturnConst(
        1, static_cast<uint64_t>(i + 1) << 8, /*functional=*/false));
  }
  cg::StubSpec spec;
  spec.num_args = 1;
  spec.policy = cg::ResultPolicy::kSum;
  for (const spin::micro::Program& h : handlers) {
    cg::BindingSpec binding;
    binding.handler.prog = &h;
    cg::CallableSpec g;
    g.prog = &guard;
    binding.guards.push_back(g);
    spec.bindings.push_back(binding);
  }

  std::vector<double> compile_us, clone_us, map_us;
  std::unique_ptr<cg::CompiledStub> kept;
  for (int i = 0; i < kCalls; ++i) {
    std::unique_ptr<cg::CompiledStub> stub;
    {
      ScopedSpan span(&result->spans, "codegen.CompileStub");
      uint64_t t0 = NowNs();
      stub = cg::CompileStub(spec);
      compile_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    if (stub == nullptr) {
      result->Fail("codegen probe: CompileStub returned null");
      return;
    }
    {
      ScopedSpan span(&result->spans, "codegen.Clone");
      uint64_t t0 = NowNs();
      std::unique_ptr<cg::CompiledStub> copy = stub->Clone();
      clone_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (copy == nullptr) result->Fail("codegen probe: Clone returned null");
    }
    {
      std::vector<uint8_t> code(64, 0xc3);  // ret
      ScopedSpan span(&result->spans, "codegen.CodeBuffer::Create");
      uint64_t t0 = NowNs();
      std::unique_ptr<cg::CodeBuffer> buffer = cg::CodeBuffer::Create(code);
      map_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (buffer == nullptr) result->Fail("codegen probe: Create refused");
    }
    result->attempted += 3;
    kept = std::move(stub);
  }
  result->layer["codegen.compile_stub_us.h10"] = Median(compile_us);
  result->layer["codegen.clone_us.h10"] = Median(clone_us);
  result->layer["codegen.exec_map_us"] = Median(map_us);
  result->layer["codegen.lir_insns.h10"] =
      static_cast<double>(kept->lir_insns());
  result->layer["codegen.peephole_rewrites.h10"] =
      static_cast<double>(kept->peephole_rewrites());
}

}  // namespace perfbench
