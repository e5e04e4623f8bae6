#include "src/core/dispatch_state.h"

#include <array>
#include <optional>

#include "src/core/dispatcher.h"
#include "src/core/ephemeral.h"
#include "src/core/errors.h"
#include "src/core/shard.h"
#include "src/micro/interp.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"
#include "src/rt/clock.h"
#include "src/rt/epoch.h"
#include "src/rt/panic.h"

namespace spin {
namespace {

// Builds the argument view a micro-program sees: closure (if any) followed
// by the event arguments.
struct MicroArgs {
  std::array<uint64_t, kMaxEventArgs + 1> storage;
  const uint64_t* data;
  int count;

  MicroArgs(const uint64_t* slots, int num_args, bool closure_form,
            void* closure) {
    if (closure_form) {
      storage[0] = reinterpret_cast<uintptr_t>(closure);
      for (int i = 0; i < num_args; ++i) {
        storage[i + 1] = slots[i];
      }
      data = storage.data();
      count = num_args + 1;
    } else {
      data = slots;
      count = num_args;
    }
  }
};

uint64_t Fold(const DispatchTable& table, uint64_t result, uint64_t current,
              uint32_t index) {
  if (table.custom_fold != nullptr) {
    return table.custom_fold(table.custom_fold_ctx, result, current, index);
  }
  switch (table.policy) {
    case ResultPolicy::kNone:
    case ResultPolicy::kLast:
      return result;
    case ResultPolicy::kOr:
      return current | result;
    case ResultPolicy::kAnd:
      return current & result;
    case ResultPolicy::kSum:
      return current + result;
  }
  return result;
}

// The one asynchronous handoff (§2.6): `body` leaves the raiser's thread
// and runs behind the source's own outbox, the pool queue indexed by
// `shard`. The raising thread captures its raise source, the span it
// pre-allocates for the handoff (or the sampled-out skip) and the enqueue
// time; the pool thread adopts all three before `body` runs, so whatever
// the body raises stays on the same shard and inside (or outside) the same
// sampled tree. `index` tags the kAsyncEnqueue record.
template <typename Body>
void AsyncHandoff(EventBase& event, uint32_t shard, uint64_t index,
                  Body body) {
  // A detached raise is its own top level: decide here, so the enqueue
  // record and the pool-side execution agree on whether the tree is
  // sampled. An async binding's raise has already decided.
  std::optional<obs::SampleScope> sample;
  if (obs::Enabled() &&
      obs::CurrentContext().decision == obs::SampleDecision::kUndecided) {
    sample.emplace(obs::DecideTopLevel());
  }
  const char* name = event.obs_name();
  obs::TraceContext span_ctx{};
  uint64_t enqueue_ns = 0;
  if (obs::Capturing()) {
    // Pre-allocate the handoff's span here so the enqueue record can
    // announce it (the flow start) before the pool thread exists.
    const obs::TraceContext& cur = obs::CurrentContext();
    span_ctx = obs::TraceContext{obs::NewSpanId(), cur.span, cur.host,
                                 obs::SampleDecision::kTrace};
    enqueue_ns = NowNs();
    obs::FlightRecorder::Global().EmitWith(obs::TraceKind::kAsyncEnqueue,
                                           name, enqueue_ns, index,
                                           span_ctx.span, span_ctx.parent);
  } else if (obs::Enabled()) {
    // Sampled out: hand the skip to the pool thread so it doesn't make a
    // fresh top-level decision mid-tree.
    span_ctx.decision = obs::SampleDecision::kSkip;
  }
  Dispatcher& owner = event.owner();
  owner.pool().SubmitTo(
      shard,
      [name, span_ctx, enqueue_ns, source = CurrentRaiseSource(),
       body = std::move(body)]() mutable {
        RaiseSourceScope raise_source(source);
        // An undecided context — tracing was off at enqueue time — is left
        // undecided; a nested raise decides fresh.
        std::optional<obs::SampleScope> sample;
        if (span_ctx.decision != obs::SampleDecision::kUndecided) {
          sample.emplace(span_ctx.decision);
        }
        // Adopt the enqueue site's span so kAsyncEnqueue (raising thread)
        // and kAsyncExecute (this thread) stitch; this scope is the span's
        // final executor.
        std::optional<obs::SpanScope> span;
        if (span_ctx.span != 0 && obs::Capturing()) {
          span.emplace(span_ctx, /*complete_on_exit=*/true);
          uint64_t start = NowNs();
          obs::FlightRecorder::Global().EmitAt(obs::TraceKind::kAsyncExecute,
                                               name, start);
          // Queue wait: the enqueue site's clock read to this thread's
          // execution start — the handoff cost the pool added.
          obs::EmitPhaseSegment(obs::Phase::kQueueWait, name, enqueue_ns,
                                start);
        }
        try {
          body();
        } catch (...) {
          // Detached execution has no raiser to report to (§2.6), and an
          // escaping exception would end the process on the pool thread.
        }
      },
      owner.config().async_mode);
}

// An async binding whose guards admitted the raise: only its body runs
// detached, under the table's EPHEMERAL budget.
void ScheduleAsyncBinding(EventBase& event, const DispatchTable& table,
                          uint32_t shard, size_t index,
                          const BindingHandle& binding,
                          const RaiseFrame& frame) {
  std::array<uint64_t, kMaxEventArgs> slots = std::to_array(frame.args);
  uint64_t budget = table.ephemeral_budget_ns;
  AsyncHandoff(event, shard, index, [binding, slots, budget, shard]() mutable {
    const char* name = binding->event->obs_name();
    const bool tracing = obs::Capturing();
    const bool timed = tracing || obs::WatchdogWantsTiming();
    uint64_t start = timed ? NowNs() : 0;
    uint64_t deadline =
        binding->ephemeral && budget != 0 ? NowNs() + budget : 0;
    uint64_t result = 0;
    {
      obs::PhaseScope body_phase(obs::Phase::kHandlerBody, name, tracing);
      RunHandler(*binding, slots.data(), &result, deadline);
    }
    if (timed) {
      uint64_t elapsed = NowNs() - start;
      obs::EventMetrics& metrics = binding->event->metrics();
      metrics.Record(obs::DispatchKind::kAsync, elapsed);
      obs::CheckDispatch(name, shard, elapsed, metrics.slow_ns());
    }
  });
}

}  // namespace

bool EvalGuards(const Binding& binding, const uint64_t* slots) {
  int num_args = static_cast<int>(binding.event->sig().params.size());
  for (const GuardClause& guard : binding.guards()) {
    bool pass;
    if (guard.prog) {
      MicroArgs args(slots, num_args, guard.closure_form, guard.closure);
      if (guard.compiled != nullptr && args.count <= 6) {
        // Install-time-compiled guard (the verify-then-JIT path for wire
        // imposed guards): call the native body directly at its declared
        // arity. The entry follows the SysV register convention.
        void* entry = guard.compiled->entry();
        const uint64_t* a = args.data;
        uint64_t r;
        switch (args.count) {
          case 0:
            r = reinterpret_cast<uint64_t (*)()>(entry)();
            break;
          case 1:
            r = reinterpret_cast<uint64_t (*)(uint64_t)>(entry)(a[0]);
            break;
          case 2:
            r = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t)>(entry)(
                a[0], a[1]);
            break;
          case 3:
            r = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t, uint64_t)>(
                entry)(a[0], a[1], a[2]);
            break;
          case 4:
            r = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t, uint64_t,
                                              uint64_t)>(entry)(a[0], a[1],
                                                                a[2], a[3]);
            break;
          case 5:
            r = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t, uint64_t,
                                              uint64_t, uint64_t)>(entry)(
                a[0], a[1], a[2], a[3], a[4]);
            break;
          default:
            r = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t, uint64_t,
                                              uint64_t, uint64_t, uint64_t)>(
                entry)(a[0], a[1], a[2], a[3], a[4], a[5]);
            break;
        }
        pass = r != 0;
      } else {
        pass = micro::Run(*guard.prog, args.data, args.count) != 0;
      }
    } else {
      SPIN_DCHECK(guard.invoker != nullptr);
      pass = guard.invoker(guard.fn, guard.closure, slots);
    }
    if (!pass) {
      return false;
    }
  }
  return true;
}

bool RunHandler(const Binding& binding, uint64_t* slots, uint64_t* result,
                uint64_t deadline_ns) {
  int num_args = static_cast<int>(binding.event->sig().params.size());
  if (deadline_ns != 0) {
    EphemeralScope scope(deadline_ns);
    try {
      if (binding.invoker != nullptr) {
        *result = binding.invoker(binding.fn, binding.closure, slots);
      } else {
        SPIN_DCHECK(binding.prog.has_value());
        MicroArgs args(slots, num_args, binding.closure_form,
                       binding.closure);
        *result = micro::Run(*binding.prog, args.data, args.count);
      }
    } catch (const TerminatedError&) {
      return false;
    }
    return true;
  }
  if (binding.invoker != nullptr) {
    *result = binding.invoker(binding.fn, binding.closure, slots);
  } else {
    SPIN_DCHECK(binding.prog.has_value());
    MicroArgs args(slots, num_args, binding.closure_form, binding.closure);
    *result = micro::Run(*binding.prog, args.data, args.count);
  }
  return true;
}

namespace {

// Executes one dispatch against `table`. Async bindings it admits go to
// the outbox of `shard`, the shard the raise was routed to.
void ExecuteTable(EventBase& event, const DispatchTable& table,
                  uint32_t shard, RaiseFrame& frame) {
  frame.result = table.InitialResult();

  const bool tracing = obs::Capturing();

  if (table.stub != nullptr) {
    // Compiled dispatch fuses guard evaluation and handler bodies into one
    // routine, so the finest attributable phase is the stub call itself.
    obs::PhaseScope stub_phase(obs::Phase::kStub, event.obs_name(), tracing);
    table.stub->entry()(&frame);
  } else {
    // The interp phase's self-time is the dispatch loop overhead proper:
    // guard evaluation and handler bodies subtract themselves out through
    // the PhaseScope nesting chain.
    obs::PhaseScope interp_phase(obs::Phase::kInterp, event.obs_name(),
                                 tracing);
    for (size_t i = 0; i < table.sync_bindings.size(); ++i) {
      const BindingHandle& binding = table.sync_bindings[i];
      bool admitted;
      {
        obs::PhaseScope guard_phase(obs::Phase::kGuardEval, event.obs_name(),
                                    tracing);
        admitted = EvalGuards(*binding, frame.args);
      }
      if (!admitted) {
        if (tracing) {
          obs::FlightRecorder::Global().Emit(obs::TraceKind::kGuardReject,
                                             event.obs_name(), i);
        }
        continue;
      }
      uint64_t deadline = binding->ephemeral && table.ephemeral_budget_ns != 0
                              ? NowNs() + table.ephemeral_budget_ns
                              : 0;
      uint64_t result = 0;
      bool completed;
      {
        obs::PhaseScope body_phase(obs::Phase::kHandlerBody, event.obs_name(),
                                   tracing);
        completed = RunHandler(*binding, frame.args, &result, deadline);
      }
      if (!completed) {
        ++frame.aborted;
        continue;
      }
      if (tracing) {
        obs::FlightRecorder::Global().Emit(obs::TraceKind::kHandlerFire,
                                           event.obs_name(), i);
        if (!binding->byref_params.empty()) {
          obs::FlightRecorder::Global().Emit(obs::TraceKind::kFilterMutate,
                                             event.obs_name(), i);
        }
      }
      if (table.returns_value) {
        frame.result = table.policy == ResultPolicy::kLast &&
                               table.custom_fold == nullptr
                           ? result
                           : Fold(table, result, frame.result, frame.fired);
      }
      ++frame.fired;
    }
  }

  for (size_t i = 0; i < table.async_bindings.size(); ++i) {
    const BindingHandle& binding = table.async_bindings[i];
    bool admitted;
    {
      obs::PhaseScope guard_phase(obs::Phase::kGuardEval, event.obs_name(),
                                  tracing);
      admitted = EvalGuards(*binding, frame.args);
    }
    if (!admitted) {
      if (tracing) {
        obs::FlightRecorder::Global().Emit(obs::TraceKind::kGuardReject,
                                           event.obs_name(),
                                           table.sync_bindings.size() + i);
      }
      continue;
    }
    ScheduleAsyncBinding(event, table, shard, i, binding, frame);
    ++frame.fired;
  }

  if (frame.fired == 0) {
    if (table.default_handler != nullptr) {
      uint64_t result = 0;
      RunHandler(*table.default_handler, frame.args, &result, 0);
      if (table.returns_value) {
        frame.result = result;
      }
      frame.fired = 1;
    } else {
      throw NoHandlerError(event.name());
    }
  }
}

}  // namespace

void EventBase::RaiseErased(RaiseFrame& frame) {
  Dispatcher& dispatcher = *owner_;
  // The sampling decision is made exactly once, at the top-level raise, and
  // inherited by the whole causal tree: a nested raise sees a decided
  // context and keeps it, so a captured trace is always a complete tree.
  std::optional<obs::SampleScope> sample;
  if (obs::Enabled() &&
      obs::CurrentContext().decision == obs::SampleDecision::kUndecided) {
    sample.emplace(obs::DecideTopLevel());
  }
  const bool tracing = obs::Capturing();
  const bool timed =
      tracing || dispatcher.profiling() || obs::WatchdogWantsTiming();
  uint64_t start = timed ? NowNs() : 0;
  // Every traced dispatch is a span: a top-level raise opens a root, a
  // raise from inside a handler opens a child of the enclosing span. The
  // scope closes by RAII, so an escaping exception still completes it.
  std::optional<obs::SpanScope> span;
  if (tracing) {
    span.emplace();
    obs::FlightRecorder::Global().EmitAt(obs::TraceKind::kRaiseBegin,
                                         obs_name_, start);
  }
  bool promote = false;
  obs::DispatchKind kind = obs::DispatchKind::kInterp;
  uint32_t shard = 0;
  {
    // Route by raise source: the shard picks the outbox for async work and
    // the raise counter. Single-shard dispatchers skip the hash and the
    // counter. Every shard reads the one table under the one domain.
    const uint32_t nshards = dispatcher.shard_count();
    if (nshards > 1) {
      shard = ShardFor(CurrentRaiseSource(), nshards);
      dispatcher.CountShardRaise(shard);
    }
    EpochDomain::Guard guard(dispatcher.epoch());
    DispatchTable* table = table_.load(std::memory_order_acquire);
    SPIN_DCHECK(table != nullptr);
    kind = table->obs_kind;
    if (table->lazy_pending) {
      promote = lazy_raises_.fetch_add(1, std::memory_order_relaxed) + 1 >=
                dispatcher.config().lazy_promote_raises;
    }
    ExecuteTable(*this, *table, shard, frame);
  }
  if (promote) {
    // The event proved hot: compile its dispatch routine now (§3.1's
    // "more incremental (and economical) approach to installation").
    dispatcher.PromoteLazyEvent(*this);
  }
  if (timed) {
    uint64_t end = NowNs();
    metrics_->Record(kind, end - start);
    obs::CheckDispatch(obs_name_, shard, end - start, metrics_->slow_ns());
    if (tracing) {
      obs::FlightRecorder::Global().EmitAt(obs::TraceKind::kRaiseEnd,
                                           obs_name_, end);
    }
  }
}

void EventBase::RaiseAsyncErased(const RaiseFrame& frame) {
  // The detached dispatch re-raises under the pinned source, so it lands on
  // the shard the synchronous path would have used.
  const uint32_t nshards = owner_->shard_count();
  const uint32_t shard =
      nshards > 1 ? ShardFor(CurrentRaiseSource(), nshards) : 0;
  AsyncHandoff(*this, shard, 0,
               [this, copy = frame]() mutable { RaiseErased(copy); });
}

bool EventBase::has_default_handler() const {
  EpochDomain::Guard guard(owner_->epoch());
  DispatchTable* table = table_.load(std::memory_order_acquire);
  return table->default_handler != nullptr;
}

size_t EventBase::handler_count() const {
  EpochDomain::Guard guard(owner_->epoch());
  DispatchTable* table = table_.load(std::memory_order_acquire);
  return table->sync_bindings.size() + table->async_bindings.size();
}

size_t EventBase::guard_count() const {
  EpochDomain::Guard guard(owner_->epoch());
  DispatchTable* table = table_.load(std::memory_order_acquire);
  size_t count = 0;
  for (const auto& b : table->sync_bindings) {
    count += b->guards().size();
  }
  for (const auto& b : table->async_bindings) {
    count += b->guards().size();
  }
  return count;
}

}  // namespace spin
