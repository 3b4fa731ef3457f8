// E18 — Static guard-dominance analysis (DESIGN.md §6.5).
//
// The guard pass claims two things worth pricing: (1) the per-program dominance summary is
// cheap enough to ride along with verify-on-load, and (2) whole-system composition into
// elision certificates scales with program count. Its certificates are static verdicts only
// (imax_lint --guards): every check stays dynamic in the addressing unit.
//
// Rows reported:
//   - GuardSummary : per-program Phase 1 cost vs program size (host time), with the
//                    deterministic check / elidable counts
//   - GuardCompose : AnalyzeGuards() vs program count (host time), with the deterministic
//                    certified / fresh / interference-suppressed counts

#include "bench/bench_util.h"
#include "src/analysis/guards/guards.h"

namespace imax432 {
namespace {

constexpr ObjectIndex kCarrier = 1;
constexpr ObjectIndex kContainerBase = 100;

// Phase-1 options mirroring what the kernel seeds at load time: a resolvable carrier whose
// slot 1 is a shared container.
analysis::EffectOptions SyntheticOptions(ObjectIndex container) {
  analysis::EffectOptions options;
  options.initial_arg = AccessDescriptor(kCarrier, 1, rights::kAll);
  options.slot_reader = [container](ObjectIndex object, uint32_t slot) {
    if (object == kCarrier && slot == 1) {
      return AccessDescriptor(container, 1, rights::kAll);
    }
    return AccessDescriptor();
  };
  return options;
}

// Dominance-dense program: every group allocates, initializes and reads back a fresh object
// (fresh sites), then reads the shared container twice (the second read is dominated).
ProgramRef BuildGuardProgram(uint32_t size) {
  Assembler a("guards");
  a.MoveAd(1, kArgAdReg).LoadAd(2, 1, 0).LoadAd(3, 1, 1);
  while (a.here() + 6 < size) {
    a.CreateObject(4, 2, 32)
        .StoreData(4, 0, 0, 8)
        .LoadData(5, 4, 0, 8)
        .LoadData(6, 3, 0, 8)
        .LoadData(7, 3, 0, 4);
  }
  a.Halt();
  return a.Build();
}

void BM_GuardSummary(benchmark::State& state) {
  ProgramRef program = BuildGuardProgram(static_cast<uint32_t>(state.range(0)));
  analysis::EffectOptions options = SyntheticOptions(kContainerBase);
  uint64_t instructions = 0;
  analysis::GuardCounters counters;
  for (auto _ : state) {
    analysis::GuardSummary summary = analysis::GuardAnalyzer::Analyze(*program, options);
    benchmark::DoNotOptimize(summary);
    instructions += program->size();
    counters = summary.counters;
  }
  state.SetItemsProcessed(static_cast<int64_t>(instructions));
  state.counters["program_size"] = static_cast<double>(program->size());
  state.counters["checks"] = static_cast<double>(counters.checks_seen);
  state.counters["checks_elidable"] = static_cast<double>(counters.checks_elidable);
}
BENCHMARK(BM_GuardSummary)->Arg(16)->Arg(128)->Arg(1024);

// `count` reader programs, each over its own container; every fourth container also gets
// a writer, so composition exercises both the interference screen (the writer retracts the
// reader's dominated check) and the fresh-object exemption (which no writer retracts).
void BM_GuardCompose(benchmark::State& state) {
  int count = static_cast<int>(state.range(0));
  analysis::SystemEffectGraph graph;
  std::map<ObjectIndex, analysis::GuardSummary> summaries;
  std::map<ObjectIndex, analysis::InterferenceSummary> interference;
  ObjectIndex key = 1;
  auto add = [&](const ProgramRef& program, const analysis::EffectOptions& options) {
    analysis::EffectSummary effects = analysis::EffectAnalyzer::Analyze(*program, options);
    summaries[key] = analysis::GuardAnalyzer::Analyze(*program, options, effects);
    interference[key] = analysis::InterferenceAnalyzer::Analyze(*program, options, effects);
    graph.AddProgram(key, std::move(effects));
    ++key;
  };
  for (int i = 0; i < count; ++i) {
    analysis::EffectOptions options =
        SyntheticOptions(kContainerBase + static_cast<ObjectIndex>(i));
    Assembler reader("reader");
    reader.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)
        .LoadAd(3, 1, 1)
        .LoadData(4, 3, 0, 8)
        .LoadData(5, 3, 0, 4)
        .CreateObject(6, 2, 16)
        .StoreData(6, 4, 0, 8)
        .Halt();
    add(reader.Build(), options);
    if (i % 4 == 0) {
      Assembler writer("writer");
      writer.MoveAd(1, kArgAdReg).LoadAd(3, 1, 1).LoadImm(2, 7).StoreData(3, 2, 0, 8).Halt();
      add(writer.Build(), options);
    }
  }
  analysis::GuardAnalysisReport report;
  for (auto _ : state) {
    report = analysis::AnalyzeGuards(graph, summaries, interference);
    benchmark::DoNotOptimize(report);
  }
  state.counters["programs"] = static_cast<double>(summaries.size());
  state.counters["checks_certified"] = static_cast<double>(report.checks_certified);
  state.counters["certified_fresh"] = static_cast<double>(report.certified_fresh);
  state.counters["suppressed_interference"] =
      static_cast<double>(report.suppressed_interference);
}
BENCHMARK(BM_GuardCompose)->Arg(8)->Arg(64)->Arg(512);

}  // namespace
}  // namespace imax432

IMAX_BENCH_MAIN()
