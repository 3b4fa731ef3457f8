#include "src/analysis/program_analyses.h"

#include <algorithm>

#include "src/analysis/effects.h"
#include "src/analysis/verifier.h"
#include "src/base/log.h"
#include "src/exec/kernel.h"
#include "src/isa/program_store.h"

namespace imax432 {
namespace analysis {

namespace {

// Abstract value the verifier should assume for an AD handed to a fresh program (the initial
// argument in a7). Resolving the descriptor turns the loader's concrete knowledge — type,
// rights, level, sizes — into seeded facts, which makes load-time verification strictly
// stronger than analyzing the program in a vacuum.
AdAbstract AbstractFromAd(const ObjectTable& table, const AccessDescriptor& ad) {
  if (ad.is_null()) {
    return AdAbstract::Null();
  }
  auto descriptor = table.Resolve(ad);
  if (!descriptor.ok()) {
    return AdAbstract::Unknown();
  }
  return AdAbstract::Object(descriptor.value()->type, ad.rights(),
                            LevelRange::Exact(descriptor.value()->level),
                            descriptor.value()->data_length,
                            descriptor.value()->access_count());
}

}  // namespace

ProgramAnalyses::ProgramAnalyses(const ObjectTable* table, const ProgramStore* programs,
                                 KernelStats* stats)
    : table_(table), programs_(programs), stats_(stats) {
  effect_graph_.set_symbols(&symbols_);
}

Status ProgramAnalyses::Verify(const Program& program, ProgramKind kind,
                               const AccessDescriptor& seed,
                               std::optional<uint32_t> entry_level) {
  VerifyOptions options;
  if (kind == ProgramKind::kProcess) {
    options.entry = VerifyOptions::EntryKind::kProcessEntry;
    options.entry_level = entry_level;
    options.initial_arg = AbstractFromAd(*table_, seed);
  } else {
    options.entry = VerifyOptions::EntryKind::kDomainEntry;
  }
  VerifyResult verdict = Verifier::Verify(program, options);
  ++stats_->programs_verified;
  if (!verdict.ok()) {
    ++stats_->programs_rejected;
    IMAX_LOG_INFO("kernel: verifier rejected %s program:\n%s",
                  kind == ProgramKind::kProcess ? "process" : "domain entry",
                  FormatDiagnostics(program, verdict).c_str());
    return Fault::kVerificationFailed;
  }
  return Status::Ok();
}

void ProgramAnalyses::Record(ObjectIndex segment, ProgramKind kind,
                             const AccessDescriptor& seed, bool summarize_now) {
  auto [it, inserted] = records_.try_emplace(segment);
  if (inserted) {
    it->second.kind = kind;
    it->second.seed = seed;
  }
  if (summarize_now && !effect_graph_.HasProgram(segment)) {
    const Program* program = programs_->Find(segment);
    if (program != nullptr) Summarize(segment, *program, it->second);
  }
}

void ProgramAnalyses::Forget(ObjectIndex segment) {
  effect_graph_.RemoveProgram(segment);
  records_.erase(segment);
  symbols_.Forget(segment);
}

bool ProgramAnalyses::IsDemotable(ObjectIndex segment, uint32_t pc) const {
  auto it = records_.find(segment);
  return it != records_.end() &&
         std::binary_search(it->second.demotable.begin(), it->second.demotable.end(), pc);
}

void ProgramAnalyses::Summarize(ObjectIndex segment, const Program& program,
                                ProgramRecord& record) {
  EffectOptions options = EffectOptionsForTable(*table_, record.seed, &symbols_);
  EffectSummary effects = EffectAnalyzer::Analyze(program, options);

  // The interference and guard summaries reuse the effect pass's resolved access list, so
  // they ride along at negligible extra cost and no whole-system pass re-walks the program.
  record.interference = InterferenceAnalyzer::Analyze(program, options, effects);
  ++stats_->interference_summaries;
  record.guards = GuardAnalyzer::Analyze(program, options, effects);
  ++stats_->guard_summaries;

  effect_graph_.AddProgram(segment, std::move(effects), record.kind);
  ++stats_->effect_summaries;

  // The lifetime summary rides along so demotion verdicts exist the moment the program can
  // run.
  record.lifetime = LifetimeAnalyzer::Analyze(program, options);
  record.demotable = DemotableSites(record.lifetime);
  ++stats_->lifetime_summaries;
}

void ProgramAnalyses::Complete() {
  programs_->ForEach([this](ObjectIndex segment, const Program& program) {
    if (!effect_graph_.HasProgram(segment)) {
      Summarize(segment, program, records_[segment]);
    }
  });
}

}  // namespace analysis
}  // namespace imax432
