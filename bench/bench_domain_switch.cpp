// E1 — Domain switch cost (paper §2).
//
// Claim: "a domain switch on the 432 takes about 65 microseconds for an 8 megahertz
// processor with no wait state memory. This compares reasonably with the cost of procedure
// activation on other contemporary processors."
//
// Rows reported:
//   - InterDomainCall/us_per_call : should be ~65 us plus small return overhead
//   - IntraDomainCall/us_per_call : the cheaper non-switching activation
//   - CallDepth sweep             : cost is flat in depth (each call is one context)
//
// InterDomainCall also reports two deterministic host-work counters of the measured run, so
// CI's drift gate pins them: addressing-unit accesses (translation-cache hits plus misses)
// and std::function callback events, each per emulated instruction.

#include "bench/bench_util.h"

namespace imax432 {
namespace {

using bench::DefaultConfig;
using bench::MakeCarrier;
using bench::ToUs;

struct CallCost {
  double us_per_call = 0;               // virtual us per call+return
  double au_accesses_per_inst = 0;      // of the run with calls
  double callback_events_per_inst = 0;  // of the run with calls
};

// Measures average virtual us per call+return for `calls` invocations of a domain entry.
// `same_domain` selects intra-domain (CallLocal-style) versus inter-domain calls.
CallCost MeasureCallCost(int calls, bool same_domain, int depth = 1) {
  System system(DefaultConfig());

  // Callee chain: entry d calls entry d+1 until depth runs out, then returns.
  Assembler leaf("leaf");
  leaf.ClearAd(7).Return();
  auto leaf_segment = system.kernel().programs().Register(leaf.Build());
  IMAX_CHECK(leaf_segment.ok());
  std::vector<AccessDescriptor> entries = {leaf_segment.value()};
  for (int d = 1; d < depth; ++d) {
    Assembler inner("inner");
    // Call the next-shallower entry of the same domain, then return.
    inner.CallLocal(static_cast<uint32_t>(d - 1)).ClearAd(7).Return();
    auto segment = system.kernel().programs().Register(inner.Build());
    IMAX_CHECK(segment.ok());
    entries.push_back(segment.value());
  }
  auto domain = system.kernel().CreateDomain(entries);
  IMAX_CHECK(domain.ok());

  ProgramRef program;
  AccessDescriptor carrier;
  if (same_domain) {
    // Intra-domain variant: a looping entry *inside* the domain performs the measured
    // CallLocal activations, so every measured call stays within one protection domain.
    Assembler inside("inside-loop");
    auto inner_loop = inside.NewLabel();
    inside.LoadImm(0, 0)
        .LoadImm(1, static_cast<uint64_t>(calls))
        .Bind(inner_loop)
        .CallLocal(0)  // intra-domain activation of the leaf
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 1, inner_loop)
        .ClearAd(7)
        .Return();
    auto inside_segment = system.kernel().programs().Register(inside.Build());
    IMAX_CHECK(inside_segment.ok());
    entries.push_back(inside_segment.value());
    auto looped_domain = system.kernel().CreateDomain(entries);
    IMAX_CHECK(looped_domain.ok());
    carrier = MakeCarrier(system, {looped_domain.value()});
    Assembler outer("outer");
    outer.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .Call(2, static_cast<uint32_t>(entries.size() - 1))
        .Halt();
    program = outer.Build();
  } else {
    // Inter-domain variant: the caller's domain differs from the callee's on every call.
    carrier = MakeCarrier(system, {domain.value()});
    Assembler caller("caller");
    auto loop = caller.NewLabel();
    caller.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)  // a2 = domain
        .LoadImm(0, 0)
        .LoadImm(1, static_cast<uint64_t>(calls))
        .Bind(loop)
        .Call(2, static_cast<uint32_t>(depth - 1))
        .AddImm(0, 0, 1)
        .BranchIfLess(0, 1, loop)
        .Halt();
    program = caller.Build();
  }

  ProcessOptions options;
  options.initial_arg = carrier;
  auto process = system.Spawn(program, options);
  IMAX_CHECK(process.ok());

  // Baseline: the loop overhead without the call. Measure total time, subtract a calibrated
  // empty-loop run.
  system.Run();
  Cycles with_calls = system.kernel().process_view(process.value()).consumed();
  CallCost cost;
  const XlatCacheStats xlat = system.kernel().xlat_stats();
  const double instructions =
      static_cast<double>(system.kernel().stats().instructions_executed);
  cost.au_accesses_per_inst = static_cast<double>(xlat.hits + xlat.misses) / instructions;
  cost.callback_events_per_inst =
      static_cast<double>(system.machine().events().callback_scheduled()) / instructions;

  // Empty-loop calibration in a fresh system.
  System calibration(DefaultConfig());
  Assembler empty("empty");
  auto empty_loop = empty.NewLabel();
  empty.LoadImm(0, 0)
      .LoadImm(1, static_cast<uint64_t>(calls))
      .Bind(empty_loop)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, empty_loop)
      .Halt();
  auto empty_process = calibration.Spawn(empty.Build());
  IMAX_CHECK(empty_process.ok());
  calibration.Run();
  Cycles loop_only = calibration.kernel().process_view(empty_process.value()).consumed();

  Cycles per_call = (with_calls - loop_only) / static_cast<Cycles>(calls);
  cost.us_per_call = ToUs(per_call);
  return cost;
}

void BM_InterDomainCall(benchmark::State& state) {
  CallCost cost;
  for (auto _ : state) {
    cost = MeasureCallCost(2000, /*same_domain=*/false);
  }
  state.counters["us_per_call_return"] = cost.us_per_call;
  state.counters["paper_us_per_switch"] = 65.0;
  state.counters["model_call_cycles"] = static_cast<double>(cycles::kDomainCall);
  state.counters["au_accesses_per_inst"] = cost.au_accesses_per_inst;
  state.counters["callback_events_per_inst"] = cost.callback_events_per_inst;
}
BENCHMARK(BM_InterDomainCall)->Iterations(1);

void BM_IntraDomainCall(benchmark::State& state) {
  double us_per_call = 0;
  for (auto _ : state) {
    us_per_call = MeasureCallCost(2000, /*same_domain=*/true).us_per_call;
  }
  state.counters["us_per_call_return"] = us_per_call;
}
BENCHMARK(BM_IntraDomainCall)->Iterations(1);

void BM_DomainCallByDepth(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  double us_per_call = 0;
  for (auto _ : state) {
    us_per_call = MeasureCallCost(500, /*same_domain=*/false, depth).us_per_call;
  }
  // The figure: cost per call is flat in nesting depth (contexts are constant-cost).
  state.counters["depth"] = depth;
  state.counters["us_per_chain"] = us_per_call;
  state.counters["us_per_activation"] = us_per_call / depth;
}
BENCHMARK(BM_DomainCallByDepth)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(1);

}  // namespace
}  // namespace imax432

IMAX_BENCH_MAIN()
