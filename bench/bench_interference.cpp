// E16 — Static interference analysis (DESIGN.md §6.4).
//
// The interference pass claims two things worth pricing: (1) the per-program footprint
// summary is cheap enough to ride along with verify-on-load, and (2) whole-system
// composition scales with program count. Its verdicts are static only (imax_lint
// --interference).
//
// Rows reported:
//   - InterferenceSummary : per-program Phase 1 cost vs program size (host time)
//   - InterferenceCompose : AnalyzeInterference() vs program count (host time)

#include "bench/bench_util.h"
#include "src/analysis/interference/interference.h"

namespace imax432 {
namespace {

constexpr ObjectIndex kCarrier = 1;
constexpr ObjectIndex kContainerBase = 100;
constexpr ObjectIndex kPortBase = 5000;

// Phase-1 options mirroring what the kernel seeds at load time: a resolvable carrier whose
// slot 1 is a shared container and slot 2 a port.
analysis::EffectOptions SyntheticOptions(ObjectIndex container) {
  analysis::EffectOptions options;
  options.initial_arg = AccessDescriptor(kCarrier, 1, rights::kAll);
  options.slot_reader = [container](ObjectIndex object, uint32_t slot) {
    if (object == kCarrier && slot == 1) {
      return AccessDescriptor(container, 1, rights::kAll);
    }
    if (object == kCarrier && slot == 2) {
      return AccessDescriptor(kPortBase, 1, rights::kAll);
    }
    return AccessDescriptor();
  };
  return options;
}

// Region-dense program: every trip reads and republishes the container through the port,
// so the summary walks many inter-sync regions and the publication fixpoint.
ProgramRef BuildRegionProgram(uint32_t size) {
  Assembler a("regions");
  a.MoveAd(1, kArgAdReg).LoadAd(3, 1, 1).LoadAd(5, 1, 2);
  while (a.here() + 4 < size) {
    a.LoadData(2, 3, 0, 8).StoreData(3, 2, 8, 8).Send(5, 3);
  }
  a.Halt();
  return a.Build();
}

void BM_InterferenceSummary(benchmark::State& state) {
  ProgramRef program = BuildRegionProgram(static_cast<uint32_t>(state.range(0)));
  analysis::EffectOptions options = SyntheticOptions(kContainerBase);
  uint64_t instructions = 0;
  uint32_t regions = 0;
  for (auto _ : state) {
    analysis::InterferenceSummary summary =
        analysis::InterferenceAnalyzer::Analyze(*program, options);
    benchmark::DoNotOptimize(summary);
    instructions += program->size();
    regions = summary.region_count;
  }
  state.SetItemsProcessed(static_cast<int64_t>(instructions));
  state.counters["program_size"] = static_cast<double>(program->size());
  state.counters["regions"] = static_cast<double>(regions);
}
BENCHMARK(BM_InterferenceSummary)->Arg(16)->Arg(128)->Arg(1024);

// `count` writer programs, each over its own container; every fourth container also gets a
// reader, so composition exercises both the interfering-pair path and the independence
// sweep across all O(n^2) pairs.
void BM_InterferenceCompose(benchmark::State& state) {
  int count = static_cast<int>(state.range(0));
  analysis::SystemEffectGraph graph;
  std::map<ObjectIndex, analysis::InterferenceSummary> summaries;
  ObjectIndex key = 1;
  for (int i = 0; i < count; ++i) {
    ObjectIndex container = kContainerBase + static_cast<ObjectIndex>(i);
    analysis::EffectOptions options = SyntheticOptions(container);
    Assembler writer("writer");
    writer.MoveAd(1, kArgAdReg).LoadAd(3, 1, 1).LoadImm(2, 7).StoreData(3, 2, 0, 8).Halt();
    ProgramRef program = writer.Build();
    graph.AddProgram(key, analysis::EffectAnalyzer::Analyze(*program, options));
    summaries[key] = analysis::InterferenceAnalyzer::Analyze(*program, options);
    ++key;
    if (i % 4 == 0) {
      Assembler reader("reader");
      reader.MoveAd(1, kArgAdReg).LoadAd(3, 1, 1).LoadData(2, 3, 0, 8).Halt();
      ProgramRef read_program = reader.Build();
      graph.AddProgram(key, analysis::EffectAnalyzer::Analyze(*read_program, options));
      summaries[key] = analysis::InterferenceAnalyzer::Analyze(*read_program, options);
      ++key;
    }
  }
  uint64_t interfering = 0;
  uint64_t independent = 0;
  uint64_t certificates = 0;
  for (auto _ : state) {
    analysis::InterferenceAnalysisReport report =
        analysis::AnalyzeInterference(graph, summaries);
    benchmark::DoNotOptimize(report);
    interfering = report.pairs_interfering;
    independent = report.pairs_independent;
    certificates = report.certificates.size();
  }
  state.counters["programs"] = static_cast<double>(summaries.size());
  state.counters["pairs_interfering"] = static_cast<double>(interfering);
  state.counters["pairs_independent"] = static_cast<double>(independent);
  state.counters["certificates"] = static_cast<double>(certificates);
}
BENCHMARK(BM_InterferenceCompose)->Arg(8)->Arg(64)->Arg(512);

}  // namespace
}  // namespace imax432

IMAX_BENCH_MAIN()
