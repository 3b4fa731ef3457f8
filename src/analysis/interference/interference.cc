#include "src/analysis/interference/interference.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/analysis/cfg.h"
#include "src/isa/disassembler.h"

namespace imax432 {
namespace analysis {
namespace {

constexpr uint32_t kUnreached = 0xffffffffu;

// Instructions that end an inter-sync region: every blocking rendezvous the kernel arbitrates
// (send/receive and their guarded variants), domain call/return (context switch through the
// dispatching mix), object destruction (an object-table mutation other processes observe),
// and any OS service or native step (kernel code runs with bus arbitration).
bool IsSyncInstruction(Opcode op) {
  switch (op) {
    case Opcode::kSend:
    case Opcode::kReceive:
    case Opcode::kCondSend:
    case Opcode::kCondReceive:
    case Opcode::kCall:
    case Opcode::kCallLocal:
    case Opcode::kReturn:
    case Opcode::kDestroyObject:
    case Opcode::kDestroySro:
    case Opcode::kOsCall:
    case Opcode::kNative:
      return true;
    default:
      return false;
  }
}

std::string ObjectLabel(ObjectIndex object, const SymbolTable* symbols) {
  std::string label = "object " + std::to_string(object);
  if (symbols != nullptr) {
    if (const std::string* name = symbols->Find(object)) label += " '" + *name + "'";
  }
  return label;
}

const char* PartName(ObjectPart part) {
  return part == ObjectPart::kData ? "data" : "access";
}

const char* KindName(AccessKind kind) {
  return kind == AccessKind::kRead ? "reads" : "writes";
}

// Minimum number of sync instructions executed on any path from entry to each pc. Monotone
// min-fixpoint over the CFG: depths only decrease and are bounded below by 0, so the
// worklist terminates. An access at a sync pc belongs to the region *before* the sync (the
// destroy's object-table write is part of crossing the boundary).
std::vector<uint32_t> ComputeRegions(const Program& program, const ControlFlowGraph& cfg,
                                     uint32_t* region_count) {
  std::vector<uint32_t> region_of(program.size(), 0);
  *region_count = 1;
  if (program.size() == 0) return region_of;
  if (cfg.has_native()) return region_of;  // edges unknowable; summary is opaque anyway

  std::vector<uint32_t> entry_depth(cfg.size(), kUnreached);
  const uint32_t entry = cfg.block_of(0);
  entry_depth[entry] = 0;
  std::vector<uint32_t> worklist{entry};
  while (!worklist.empty()) {
    const uint32_t id = worklist.back();
    worklist.pop_back();
    const BasicBlock& block = cfg.block(id);
    uint32_t depth = entry_depth[id];
    for (uint32_t pc = block.begin; pc < block.end; ++pc) {
      if (IsSyncInstruction(program.at(pc).op) && depth < kUnreached - 1) ++depth;
    }
    for (uint32_t succ : block.successors) {
      if (depth < entry_depth[succ]) {
        entry_depth[succ] = depth;
        worklist.push_back(succ);
      }
    }
  }

  uint32_t max_region = 0;
  for (uint32_t id = 0; id < cfg.size(); ++id) {
    if (entry_depth[id] == kUnreached) continue;  // unreachable: no access site lands here
    const BasicBlock& block = cfg.block(id);
    uint32_t depth = entry_depth[id];
    for (uint32_t pc = block.begin; pc < block.end; ++pc) {
      region_of[pc] = depth;
      max_region = std::max(max_region, depth);
      if (IsSyncInstruction(program.at(pc).op)) ++depth;
    }
  }
  *region_count = max_region + 1;
  return region_of;
}

bool MatchesPart(const FootprintEntry& entry, ObjectIndex object, ObjectPart part) {
  return entry.object == object && entry.part == part;
}

}  // namespace

bool InterferenceSummary::Reads(ObjectIndex object, ObjectPart part) const {
  for (const FootprintEntry& entry : footprint) {
    if (entry.kind == AccessKind::kRead && MatchesPart(entry, object, part)) return true;
  }
  return false;
}

bool InterferenceSummary::Writes(ObjectIndex object, ObjectPart part) const {
  for (const FootprintEntry& entry : footprint) {
    if (entry.kind == AccessKind::kWrite && MatchesPart(entry, object, part)) return true;
  }
  return false;
}

bool InterferenceSummary::WritesPublished(ObjectIndex object, ObjectPart part) const {
  bool any = false;
  for (const FootprintEntry& entry : footprint) {
    if (entry.kind != AccessKind::kWrite || !MatchesPart(entry, object, part)) continue;
    if (!entry.published) return false;
    any = true;
  }
  return any;
}

InterferenceSummary InterferenceAnalyzer::Analyze(const Program& program,
                                                 const EffectOptions& options) {
  return Analyze(program, options, EffectAnalyzer::Analyze(program, options));
}

InterferenceSummary InterferenceAnalyzer::Analyze(const Program& program,
                                                  const EffectOptions& options,
                                                  const EffectSummary& effects) {
  (void)options;  // resolution already happened when `effects` was computed
  InterferenceSummary summary;
  summary.program_name = effects.program_name;
  summary.opaque = effects.has_native;
  summary.unresolved = effects.has_unresolved_access;
  summary.may_not_terminate = effects.may_not_terminate;

  const ControlFlowGraph cfg = ControlFlowGraph::Build(program);
  const std::vector<uint32_t> region_of =
      ComputeRegions(program, cfg, &summary.region_count);
  for (uint32_t pc = 0; pc < program.size(); ++pc) {
    if (IsSyncInstruction(program.at(pc).op)) ++summary.sync_count;
  }

  summary.footprint.reserve(effects.accesses.size());
  for (const ObjectAccess& access : effects.accesses) {
    FootprintEntry entry;
    entry.kind = access.kind;
    entry.part = access.part;
    entry.pc = access.pc;
    entry.region = access.pc < region_of.size() ? region_of[access.pc] : 0;
    entry.object = access.object;
    entry.published = access.kind == AccessKind::kWrite && !access.sends_after.empty();
    entry.disasm = access.disasm;
    summary.footprint.push_back(std::move(entry));
  }
  return summary;
}

const char* CacheGradeName(CacheGrade grade) {
  switch (grade) {
    case CacheGrade::kImmutable: return "immutable";
    case CacheGrade::kPublishedOnly: return "published-only";
    case CacheGrade::kMutable: return "mutable";
  }
  return "?";
}

namespace {

// The whole Phase 2 composition over one system. Built once per AnalyzeInterference call.
struct InterferenceComposer {
  const SystemEffectGraph& graph;
  const std::map<ObjectIndex, InterferenceSummary>& summaries;
  const std::vector<EffectiveProgram> effective;
  InterferenceAnalysisReport report;

  // Per-port resolved traffic (for the may-communication closure, races.cc idiom).
  std::map<ObjectIndex, std::set<uint32_t>> senders;
  std::map<ObjectIndex, std::set<uint32_t>> receivers;
  // May-communication reachability; node n is the wildcard for actors the summaries cannot
  // see (opaque code, unresolved chains, kernel/device traffic).
  std::vector<std::vector<bool>> reach;

  // Per-process resolved footprint: (object, part) -> {reads?, writes?}.
  struct PartUseBits {
    bool read = false;
    bool write = false;
  };
  std::vector<std::map<std::pair<ObjectIndex, uint8_t>, PartUseBits>> touches;

  InterferenceComposer(const SystemEffectGraph& g,
                       const std::map<ObjectIndex, InterferenceSummary>& s)
      : graph(g), summaries(s), effective(ComposeProcesses(g)) {}

  bool Resolved(uint32_t p) const {
    return !effective[p].opaque && !effective[p].unresolved_access;
  }

  void BuildTraffic() {
    const uint32_t n = static_cast<uint32_t>(effective.size());
    touches.resize(n);
    for (uint32_t p = 0; p < n; ++p) {
      const EffectiveProgram& e = effective[p];
      if (e.opaque) report.opaque_programs++;
      if (e.unresolved_access) report.unresolved_programs++;
      for (const OwnedPortUse& owned : e.uses) {
        if (owned.use->port == kUnresolvedPort) continue;
        (owned.use->op == PortOp::kSend ? senders : receivers)[owned.use->port].insert(p);
      }
      for (const OwnedAccess& owned : e.accesses) {
        PartUseBits& bits = touches[p][{owned.access->object,
                                        static_cast<uint8_t>(owned.access->part)}];
        (owned.access->kind == AccessKind::kWrite ? bits.write : bits.read) = true;
      }
    }
  }

  void BuildMayReach() {
    const uint32_t n = static_cast<uint32_t>(effective.size());
    bool unknown_exists =
        !graph.external_senders().empty() || !graph.external_receivers().empty();
    std::vector<bool> sends_any(n, false), receives_any(n, false);
    for (uint32_t p = 0; p < n; ++p) {
      const EffectiveProgram& e = effective[p];
      if (e.opaque || e.unresolved_send || e.unresolved_receive) unknown_exists = true;
      for (const OwnedPortUse& owned : e.uses) {
        (owned.use->op == PortOp::kSend ? sends_any : receives_any)[p] = true;
      }
      if (e.opaque) sends_any[p] = receives_any[p] = true;
    }

    std::vector<std::set<uint32_t>> adjacency(n + 1);
    for (const auto& [port, from] : senders) {
      auto it = receivers.find(port);
      if (it == receivers.end()) continue;
      for (uint32_t s : from) {
        for (uint32_t r : it->second) {
          if (s != r) adjacency[s].insert(r);
        }
      }
    }
    if (unknown_exists) {
      for (uint32_t p = 0; p < n; ++p) {
        if (sends_any[p]) adjacency[p].insert(n);
        if (receives_any[p]) adjacency[n].insert(p);
      }
    }

    reach.assign(n + 1, std::vector<bool>(n + 1, false));
    for (uint32_t start = 0; start <= n; ++start) {
      std::vector<uint32_t> stack{start};
      while (!stack.empty()) {
        const uint32_t node = stack.back();
        stack.pop_back();
        for (uint32_t next : adjacency[node]) {
          if (!reach[start][next]) {
            reach[start][next] = true;
            stack.push_back(next);
          }
        }
      }
    }
  }

  // Region tag for a composed access site, from the origin segment's Phase 1 summary ("" when
  // the segment has no summary — region structure is additive diagnostics only).
  std::string RegionTag(const OwnedAccess& owned) const {
    auto it = summaries.find(owned.origin_segment);
    if (it == summaries.end()) return "";
    for (const FootprintEntry& entry : it->second.footprint) {
      if (entry.pc == owned.access->pc && entry.object == owned.access->object &&
          entry.part == owned.access->part && entry.kind == owned.access->kind) {
        return " [region " + std::to_string(entry.region) + "/" +
               std::to_string(it->second.region_count) + "]";
      }
    }
    return "";
  }

  void BuildVerdicts() {
    const uint32_t n = static_cast<uint32_t>(effective.size());
    for (uint32_t p = 0; p < n; ++p) {
      for (uint32_t q = p + 1; q < n; ++q) {
        InterferenceVerdict verdict;
        const std::string& name_p = effective[p].own->program_name;
        const std::string& name_q = effective[q].own->program_name;
        const bool p_first = name_p <= name_q;
        verdict.first_program = p_first ? name_p : name_q;
        verdict.second_program = p_first ? name_q : name_p;

        if (!Resolved(p) || !Resolved(q)) {
          // Independence licenses parallel execution; an opaque or unresolved side could
          // touch anything, so neither independence nor interference is claimable.
          verdict.verdict = PairVerdict::kSuppressed;
          report.pairs_suppressed++;
          if (effective[p].opaque || effective[q].opaque) {
            report.suppressed_by_opacity++;
          } else {
            report.suppressed_by_unresolved++;
          }
          report.verdicts.push_back(std::move(verdict));
          continue;
        }

        std::set<ObjectIndex> conflicts;
        bool read_sharing = false;
        const auto& small = touches[p].size() <= touches[q].size() ? touches[p] : touches[q];
        const auto& large = touches[p].size() <= touches[q].size() ? touches[q] : touches[p];
        for (const auto& [key, bits] : small) {
          auto other = large.find(key);
          if (other == large.end()) continue;
          if (bits.write || other->second.write) {
            conflicts.insert(key.first);
          } else {
            read_sharing = true;
          }
        }

        if (conflicts.empty()) {
          verdict.verdict = PairVerdict::kIndependent;
          report.pairs_independent++;
          if (read_sharing) report.pairs_read_sharing++;
        } else if (reach[p][q] || reach[q][p]) {
          // A message path orders (or may order) the overlap; per the zero-FP posture an
          // ambiguous pair is counted, never reported — and never claimed independent.
          verdict.verdict = PairVerdict::kSuppressed;
          verdict.shared.assign(conflicts.begin(), conflicts.end());
          report.pairs_suppressed++;
          report.suppressed_by_communication++;
        } else {
          verdict.verdict = PairVerdict::kInterfering;
          verdict.shared.assign(conflicts.begin(), conflicts.end());
          report.pairs_interfering++;
          RenderInterfering(p, q, verdict);
        }
        report.verdicts.push_back(std::move(verdict));
      }
    }
  }

  void RenderInterfering(uint32_t p, uint32_t q, InterferenceVerdict& verdict) const {
    std::string message = "error  interference  " + verdict.first_program + " / " +
                          verdict.second_program + ": " +
                          std::to_string(verdict.shared.size()) +
                          " conflicting object(s), no message path either way\n";
    for (ObjectIndex object : verdict.shared) {
      message += "  " + ObjectLabel(object, graph.symbols()) + ":\n";
      for (uint32_t side : {p, q}) {
        for (const OwnedAccess& owned : effective[side].accesses) {
          if (owned.access->object != object) continue;
          message += "    | " + effective[side].own->program_name + " " +
                     KindName(owned.access->kind) + " (" + PartName(owned.access->part) +
                     "): " + owned.access->disasm + RegionTag(owned) + "\n";
        }
      }
    }
    verdict.message = std::move(message);
  }

  void BuildCertificates() {
    const bool any_caveat = report.opaque_programs > 0 || report.unresolved_programs > 0;
    struct PartFacts {
      std::set<uint32_t> readers;
      std::set<uint32_t> writers;
      bool all_writes_published = true;
      bool all_foreign_reads_gated = true;
    };
    std::map<std::pair<ObjectIndex, uint8_t>, PartFacts> facts;
    for (uint32_t p = 0; p < static_cast<uint32_t>(effective.size()); ++p) {
      for (const OwnedAccess& owned : effective[p].accesses) {
        PartFacts& f = facts[{owned.access->object,
                              static_cast<uint8_t>(owned.access->part)}];
        if (owned.access->kind == AccessKind::kWrite) {
          f.writers.insert(p);
          if (owned.access->sends_after.empty()) f.all_writes_published = false;
        } else {
          f.readers.insert(p);
        }
      }
    }
    // Second pass for foreign reads (needs the writer sets complete).
    for (uint32_t p = 0; p < static_cast<uint32_t>(effective.size()); ++p) {
      for (const OwnedAccess& owned : effective[p].accesses) {
        if (owned.access->kind != AccessKind::kRead) continue;
        PartFacts& f = facts.at({owned.access->object,
                                 static_cast<uint8_t>(owned.access->part)});
        if (f.writers.count(p) == 0 && !f.writers.empty() &&
            owned.access->recvs_before.empty()) {
          f.all_foreign_reads_gated = false;
        }
      }
    }

    std::set<ObjectIndex> objects;
    for (const auto& [key, f] : facts) {
      objects.insert(key.first);
      CacheCertificate cert;
      cert.object = key.first;
      cert.part = static_cast<ObjectPart>(key.second);
      cert.readers = static_cast<uint32_t>(f.readers.size());
      cert.writers = static_cast<uint32_t>(f.writers.size());
      if (f.writers.empty()) {
        cert.grade = CacheGrade::kImmutable;
        cert.caveat = any_caveat;
        (cert.caveat ? report.certified_with_caveat : report.certified_immutable)++;
      } else if (f.all_writes_published && f.all_foreign_reads_gated && !any_caveat) {
        cert.grade = CacheGrade::kPublishedOnly;
        report.certified_published++;
      } else {
        cert.grade = CacheGrade::kMutable;
        report.uncertified++;
      }
      report.certificates.push_back(std::move(cert));
    }
    report.objects_seen = static_cast<uint32_t>(objects.size());
  }

  InterferenceAnalysisReport Run() {
    report.programs_analyzed = graph.program_count();
    for (const auto& [segment, summary] : summaries) {
      (void)segment;
      report.regions_analyzed += summary.region_count;
    }
    BuildTraffic();
    BuildMayReach();
    BuildVerdicts();
    BuildCertificates();
    return std::move(report);
  }
};

}  // namespace

std::string FormatInterferenceReport(const InterferenceAnalysisReport& report) {
  std::string out;
  for (const InterferenceVerdict& verdict : report.verdicts) {
    if (verdict.verdict == PairVerdict::kInterfering) out += verdict.message;
  }
  if (report.pairs_independent > 0 || !report.certificates.empty()) {
    out += "interference: " + std::to_string(report.pairs_independent) + " independent, " +
           std::to_string(report.pairs_interfering) + " interfering, " +
           std::to_string(report.pairs_suppressed) + " suppressed pair(s); certificates: " +
           std::to_string(report.certified_immutable) + " immutable, " +
           std::to_string(report.certified_with_caveat) + " immutable-with-caveat, " +
           std::to_string(report.certified_published) + " published-only, " +
           std::to_string(report.uncertified) + " mutable\n";
  }
  return out;
}

InterferenceAnalysisReport AnalyzeInterference(
    const SystemEffectGraph& graph,
    const std::map<ObjectIndex, InterferenceSummary>& summaries) {
  return InterferenceComposer(graph, summaries).Run();
}

}  // namespace analysis
}  // namespace imax432
