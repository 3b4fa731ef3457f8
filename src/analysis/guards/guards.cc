#include "src/analysis/guards/guards.h"

#include <algorithm>
#include <set>

#include "src/analysis/cfg.h"
#include "src/arch/rights.h"
#include "src/isa/disassembler.h"

namespace imax432 {
namespace analysis {
namespace {

// Same synchronization set as the interference pass (interference.cc): every blocking
// rendezvous, domain call/return, object destruction, OS service, and native step. Crossing
// one may run the scheduler, so the private window of a fresh object ends there and every
// register fact is conservatively killed.
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

// Widths the data path accepts. An out-of-range width faults kInvalidArgument *before* the
// rights check in the full path, so eliding a check at such a site would reorder faults —
// bounds at a bad-width site are never elidable (counted kDynamic).
bool ValidWidth(uint32_t width) {
  return width == 1 || width == 2 || width == 4 || width == 8;
}

// Dominance facts for one AD register at one program point. Everything here is a
// must-fact: it holds on every path from block entry to the current pc.
struct RegFacts {
  bool valid = false;         // register provably holds a live, resolvable AD
  bool fresh = false;         // value flows from a create_object in this block
  RightsMask rights = 0;      // rights proven present (checked and passed, or granted)
  bool len_known = false;     // exact data length known (create_object)
  uint64_t data_len = 0;
  uint64_t data_hi = 0;       // proven-in-bounds data watermark: offset+width <= data_hi passed
  bool slots_known = false;   // exact access slot count known (create_object)
  uint32_t slot_count = 0;
  uint32_t slot_hi = 0;       // proven-in-bounds slot watermark: slot < slot_hi passed
  uint32_t dominator_pc = 0;  // instruction that first established these facts
};

struct BlockState {
  RegFacts ad[kNumAdRegs];
  void Reset() {
    for (RegFacts& f : ad) f = RegFacts{};
  }
  void KillAll() { Reset(); }
};

// Effects-footprint join: unique resolved object per (pc, part), or invalid when the site
// has zero or several candidates.
struct SiteObject {
  ObjectIndex object = kInvalidObjectIndex;
  bool unique = false;
};

SiteObject ResolveSite(const EffectSummary& effects, uint32_t pc, ObjectPart part) {
  SiteObject result;
  for (const ObjectAccess& access : effects.accesses) {
    if (access.pc != pc || access.part != part) continue;
    if (!result.unique) {
      result.object = access.object;
      result.unique = true;
    } else if (result.object != access.object) {
      result.object = kInvalidObjectIndex;
      result.unique = false;
      break;
    }
  }
  return result;
}

int BitCount(uint8_t mask) {
  int count = 0;
  for (uint8_t bit = 1; bit != 0; bit = static_cast<uint8_t>(bit << 1)) {
    if ((mask & bit) != 0) ++count;
  }
  return count;
}

// Attributes each non-elidable check bit of a finished site to a suppression counter and
// picks the site-level suppression label (worst cause wins: opaque > level > dynamic >
// unproven).
void AccountSite(GuardSite& site, bool opaque, uint8_t dynamic_bits, GuardCounters& counters) {
  counters.checks_seen += static_cast<uint32_t>(BitCount(site.checks));
  counters.checks_elidable += static_cast<uint32_t>(BitCount(site.elidable));
  const uint8_t suppressed = static_cast<uint8_t>(site.checks & ~site.elidable);
  if (suppressed == 0) {
    site.suppression = GuardSuppression::kNone;
    return;
  }
  if (opaque) {
    counters.suppressed_opaque += static_cast<uint32_t>(BitCount(suppressed));
    site.suppression = GuardSuppression::kOpaque;
    return;
  }
  GuardSuppression label = GuardSuppression::kUnproven;
  if ((suppressed & guard_check::kLevel) != 0) {
    counters.suppressed_level += static_cast<uint32_t>(BitCount(suppressed & guard_check::kLevel));
    label = GuardSuppression::kLevel;
  }
  const uint8_t dynamic = static_cast<uint8_t>(suppressed & dynamic_bits & ~guard_check::kLevel);
  if (dynamic != 0) {
    counters.suppressed_dynamic += static_cast<uint32_t>(BitCount(dynamic));
    if (label == GuardSuppression::kUnproven) label = GuardSuppression::kDynamic;
  }
  const uint8_t unproven =
      static_cast<uint8_t>(suppressed & ~dynamic_bits & ~guard_check::kLevel);
  if (unproven != 0) {
    counters.suppressed_unproven += static_cast<uint32_t>(BitCount(unproven));
  }
  site.suppression = label;
}

}  // namespace

std::string GuardCheckMaskName(uint8_t mask) {
  if (mask == 0) return "none";
  std::string name;
  const auto append = [&name](const char* part) {
    if (!name.empty()) name += "|";
    name += part;
  };
  if ((mask & guard_check::kRights) != 0) append("rights");
  if ((mask & guard_check::kDataBounds) != 0) append("data-bounds");
  if ((mask & guard_check::kSlotBounds) != 0) append("slot-bounds");
  if ((mask & guard_check::kLevel) != 0) append("level");
  return name;
}

const char* GuardSuppressionName(GuardSuppression suppression) {
  switch (suppression) {
    case GuardSuppression::kNone:
      return "none";
    case GuardSuppression::kOpaque:
      return "opaque";
    case GuardSuppression::kDynamic:
      return "dynamic";
    case GuardSuppression::kUnproven:
      return "unproven";
    case GuardSuppression::kLevel:
      return "level";
  }
  return "unknown";
}

GuardSummary GuardAnalyzer::Analyze(const Program& program, const EffectOptions& options) {
  return Analyze(program, options, EffectAnalyzer::Analyze(program, options));
}

GuardSummary GuardAnalyzer::Analyze(const Program& program, const EffectOptions& options,
                                    const EffectSummary& effects) {
  (void)options;
  GuardSummary summary;
  summary.program_name = effects.program_name;
  summary.opaque = effects.has_native;
  summary.unresolved = effects.has_unresolved_access;

  const ControlFlowGraph cfg = ControlFlowGraph::Build(program);
  summary.block_count = cfg.size();

  BlockState state;
  for (uint32_t block_id = 0; block_id < cfg.size(); ++block_id) {
    const BasicBlock& block = cfg.block(block_id);
    // Entering edges are not joined: every block starts with no facts. Inside an opaque
    // program even block boundaries are unknowable (native steps may jump anywhere), so the
    // dataflow still runs for reporting but every site is suppressed below.
    state.Reset();
    for (uint32_t pc = block.begin; pc < block.end; ++pc) {
      const Instruction& in = program.at(pc);
      GuardSite site;
      site.pc = pc;
      site.block = block_id;
      site.op = in.op;
      uint8_t dynamic_bits = 0;  // bits unprovable at this site for structural reasons
      bool is_site = false;

      switch (in.op) {
        case Opcode::kLoadData:
        case Opcode::kStoreData:
        case Opcode::kLoadDataIndexed:
        case Opcode::kStoreDataIndexed: {
          const bool load = in.op == Opcode::kLoadData || in.op == Opcode::kLoadDataIndexed;
          const bool indexed =
              in.op == Opcode::kLoadDataIndexed || in.op == Opcode::kStoreDataIndexed;
          const uint8_t ad_reg = load ? in.b : in.a;
          const uint32_t width = indexed ? 8 : in.c;
          const RightsMask required = load ? rights::kRead : rights::kWrite;
          if (ad_reg >= kNumAdRegs) break;  // interpreter faults before any guard check
          is_site = true;
          site.part = ObjectPart::kData;
          site.checks = guard_check::kRights | guard_check::kDataBounds;
          RegFacts& f = state.ad[ad_reg];
          if (indexed || !ValidWidth(width)) {
            // Run-time offset (r[c] + imm) or a width the slow path rejects before the
            // rights check: bounds can never be proven dominated.
            dynamic_bits |= guard_check::kDataBounds;
          }
          if (f.valid) {
            if (rights::Has(f.rights, required)) site.elidable |= guard_check::kRights;
            if ((dynamic_bits & guard_check::kDataBounds) == 0) {
              const uint64_t hi = static_cast<uint64_t>(in.imm) + width;
              if ((f.len_known && hi <= f.data_len) || hi <= f.data_hi) {
                site.elidable |= guard_check::kDataBounds;
              }
            }
            site.dominator_pc = f.dominator_pc;
            site.fresh = f.fresh;
          }
          // A passed check establishes its facts for the rest of the block (a failed one
          // faults and aborts the block).
          if (ValidWidth(width)) {
            if (!f.valid) {
              f = RegFacts{};
              f.valid = true;
              f.dominator_pc = pc;
            }
            f.rights = static_cast<RightsMask>(f.rights | required);
            if (!indexed) {
              f.data_hi = std::max(f.data_hi, static_cast<uint64_t>(in.imm) + width);
            }
          }
          break;
        }
        case Opcode::kLoadAd:
        case Opcode::kLoadAdIndexed: {
          const uint8_t container = in.b;
          const bool indexed = in.op == Opcode::kLoadAdIndexed;
          if (container < kNumAdRegs) {
            is_site = true;
            site.part = ObjectPart::kAccess;
            site.checks = guard_check::kRights | guard_check::kSlotBounds;
            RegFacts& f = state.ad[container];
            if (indexed) dynamic_bits |= guard_check::kSlotBounds;
            if (f.valid) {
              if (rights::Has(f.rights, rights::kRead)) site.elidable |= guard_check::kRights;
              if (!indexed) {
                if ((f.slots_known && in.imm < f.slot_count) || in.imm < f.slot_hi) {
                  site.elidable |= guard_check::kSlotBounds;
                }
              }
              site.dominator_pc = f.dominator_pc;
              site.fresh = f.fresh;
            }
            if (!f.valid) {
              f = RegFacts{};
              f.valid = true;
              f.dominator_pc = pc;
            }
            f.rights = static_cast<RightsMask>(f.rights | rights::kRead);
            if (!indexed) f.slot_hi = std::max(f.slot_hi, in.imm + 1);
          }
          // The destination register now holds an unknown (possibly null) AD.
          if (in.a < kNumAdRegs) state.ad[in.a] = RegFacts{};
          break;
        }
        case Opcode::kStoreAd:
        case Opcode::kStoreAdIndexed: {
          const uint8_t container = in.a;
          const bool indexed = in.op == Opcode::kStoreAdIndexed;
          if (container >= kNumAdRegs) break;
          is_site = true;
          site.part = ObjectPart::kAccess;
          site.checks = guard_check::kRights | guard_check::kSlotBounds | guard_check::kLevel;
          // The level rule compares the container's level against the *stored value's*
          // level and shades the GC gray bit — inherently dynamic, never elided.
          dynamic_bits |= guard_check::kLevel;
          RegFacts& f = state.ad[container];
          if (indexed) dynamic_bits |= guard_check::kSlotBounds;
          if (f.valid) {
            if (rights::Has(f.rights, rights::kWrite)) site.elidable |= guard_check::kRights;
            if (!indexed) {
              if ((f.slots_known && in.imm < f.slot_count) || in.imm < f.slot_hi) {
                site.elidable |= guard_check::kSlotBounds;
              }
            }
            site.dominator_pc = f.dominator_pc;
            site.fresh = f.fresh;
          }
          // The level check can still fault after rights/bounds passed, so a store_ad only
          // proves rights/bounds for *later* sites once it fully retires — which it has by
          // the time any later instruction in the block runs.
          if (!f.valid) {
            f = RegFacts{};
            f.valid = true;
            f.dominator_pc = pc;
          }
          f.rights = static_cast<RightsMask>(f.rights | rights::kWrite);
          if (!indexed) f.slot_hi = std::max(f.slot_hi, in.imm + 1);
          break;
        }
        case Opcode::kCreateObject: {
          if (in.a < kNumAdRegs) {
            RegFacts f;
            f.valid = true;
            f.fresh = true;
            f.rights = rights::kRead | rights::kWrite | rights::kDelete;
            f.len_known = true;
            f.data_len = in.imm;
            f.slots_known = true;
            f.slot_count = in.c;
            f.dominator_pc = pc;
            state.ad[in.a] = f;
          }
          break;
        }
        case Opcode::kCreateSro: {
          // New SRO AD with kernel-chosen rights: no facts.
          if (in.a < kNumAdRegs) state.ad[in.a] = RegFacts{};
          break;
        }
        case Opcode::kMoveAd: {
          if (in.a < kNumAdRegs && in.b < kNumAdRegs) state.ad[in.a] = state.ad[in.b];
          break;
        }
        case Opcode::kClearAd: {
          if (in.a < kNumAdRegs) state.ad[in.a] = RegFacts{};
          break;
        }
        case Opcode::kRestrictRights: {
          if (in.a < kNumAdRegs) {
            state.ad[in.a].rights = rights::Restrict(state.ad[in.a].rights,
                                                     static_cast<RightsMask>(in.imm));
          }
          break;
        }
        default:
          break;
      }

      if (IsSyncInstruction(in.op)) state.KillAll();

      if (is_site) {
        if (summary.opaque) {
          // Native steps may jump into the middle of any block: no dominance claim stands.
          site.elidable = 0;
          site.fresh = false;
        }
        const SiteObject resolved = ResolveSite(effects, pc, site.part);
        site.object = resolved.unique ? resolved.object : kInvalidObjectIndex;
        site.disasm = DisassembleInstruction(in);
        AccountSite(site, summary.opaque, dynamic_bits, summary.counters);
        summary.sites.push_back(site);
      }
    }
  }
  return summary;
}

// --- Phase 2 ---------------------------------------------------------------------------

namespace {

// True when any summarized program's interference footprint writes (object, part).
// Includes the site's own program: two processes may share one instruction segment, so even
// a "self" write is a foreign write from the other instance's point of view.
bool AnyWriter(const std::map<ObjectIndex, InterferenceSummary>& interference,
               ObjectIndex object, ObjectPart part) {
  for (const auto& [segment, summary] : interference) {
    (void)segment;
    if (summary.Writes(object, part)) return true;
  }
  return false;
}

}  // namespace

GuardAnalysisReport AnalyzeGuards(
    const SystemEffectGraph& graph, const std::map<ObjectIndex, GuardSummary>& summaries,
    const std::map<ObjectIndex, InterferenceSummary>& interference) {
  GuardAnalysisReport report;
  report.programs_analyzed = static_cast<uint32_t>(summaries.size());

  // System opacity: an opaque or unresolved program anywhere could write any object's
  // metadata path (native C++ bodies bypass the footprint discipline), so only fresh-object
  // elisions survive. Scan the effect graph (it covers every registered program, whether or
  // not it has a guard summary) plus the guard summaries themselves.
  bool system_opaque = false;
  for (const auto& [segment, entry] : graph.programs()) {
    (void)segment;
    if (entry.summary.has_native || entry.summary.has_unresolved_access) system_opaque = true;
  }
  for (const auto& [segment, summary] : summaries) {
    (void)segment;
    if (summary.opaque || summary.unresolved) system_opaque = true;
    report.phase1.checks_seen += summary.counters.checks_seen;
    report.phase1.checks_elidable += summary.counters.checks_elidable;
    report.phase1.suppressed_opaque += summary.counters.suppressed_opaque;
    report.phase1.suppressed_dynamic += summary.counters.suppressed_dynamic;
    report.phase1.suppressed_unproven += summary.counters.suppressed_unproven;
    report.phase1.suppressed_level += summary.counters.suppressed_level;
    report.sites_seen += static_cast<uint32_t>(summary.sites.size());
  }
  report.checks_seen = report.phase1.checks_seen;
  report.checks_elidable = report.phase1.checks_elidable;

  for (const auto& [segment, summary] : summaries) {
    ElisionCertificate cert;
    cert.segment = segment;
    cert.block = 0xffffffffu;
    const auto flush = [&]() {
      if (!cert.checks.empty()) report.certificates.push_back(cert);
      cert.checks.clear();
    };
    for (const GuardSite& site : summary.sites) {
      // The level bit is never certified; the certificate records exactly what the
      // dominance proof covers.
      const uint8_t mask = static_cast<uint8_t>(site.elidable & ~guard_check::kLevel);
      if (mask == 0) continue;
      const int bits = BitCount(mask);
      if (site.fresh) {
        // Fresh exemption: the object cannot be named by any other process inside the
        // dominance window (create_object results never enter effects footprints, and the
        // window closes at the first sync point, which also kills the facts).
        report.certified_fresh += static_cast<uint32_t>(bits);
      } else if (site.object == kInvalidObjectIndex) {
        report.suppressed_unresolved_object += static_cast<uint32_t>(bits);
        continue;
      } else if (system_opaque) {
        report.suppressed_system_opaque += static_cast<uint32_t>(bits);
        continue;
      } else if (AnyWriter(interference, site.object, site.part)) {
        report.suppressed_interference += static_cast<uint32_t>(bits);
        continue;
      }
      report.checks_certified += static_cast<uint32_t>(bits);
      if (site.block != cert.block) {
        flush();
        cert.block = site.block;
        cert.begin = site.pc;
        cert.end = site.pc + 1;
      }
      cert.begin = std::min(cert.begin, site.pc);
      cert.end = std::max(cert.end, site.pc + 1);
      CertifiedCheck check;
      check.pc = site.pc;
      check.mask = mask;
      check.dominator_pc = site.dominator_pc;
      check.fresh = site.fresh;
      cert.checks.push_back(check);
    }
    flush();
  }
  return report;
}

std::string FormatGuardReport(const GuardAnalysisReport& report,
                              const std::map<ObjectIndex, GuardSummary>& summaries) {
  std::string out = "guard-dominance analysis: " + std::to_string(report.programs_analyzed) +
                    " program(s), " + std::to_string(report.sites_seen) + " site(s), " +
                    std::to_string(report.checks_seen) + " check(s)\n";
  out += "  elidable (phase 1): " + std::to_string(report.checks_elidable) +
         "  certified (phase 2): " + std::to_string(report.checks_certified) + " (" +
         std::to_string(report.certified_fresh) + " fresh)\n";
  out += "  suppressed: opaque=" + std::to_string(report.phase1.suppressed_opaque) +
         " dynamic=" + std::to_string(report.phase1.suppressed_dynamic) +
         " unproven=" + std::to_string(report.phase1.suppressed_unproven) +
         " level=" + std::to_string(report.phase1.suppressed_level) +
         " interference=" + std::to_string(report.suppressed_interference) +
         " system-opaque=" + std::to_string(report.suppressed_system_opaque) +
         " unresolved-object=" + std::to_string(report.suppressed_unresolved_object) + "\n";
  for (const ElisionCertificate& cert : report.certificates) {
    std::string name = "segment " + std::to_string(cert.segment);
    const auto it = summaries.find(cert.segment);
    if (it != summaries.end() && !it->second.program_name.empty()) {
      name += " '" + it->second.program_name + "'";
    }
    out += "  certificate " + name + " block " + std::to_string(cert.block) + " [" +
           std::to_string(cert.begin) + ", " + std::to_string(cert.end) + "):\n";
    for (const CertifiedCheck& check : cert.checks) {
      out += "    pc " + std::to_string(check.pc) + ": elide " + GuardCheckMaskName(check.mask) +
             " (dominator pc " + std::to_string(check.dominator_pc) +
             (check.fresh ? ", fresh" : "") + ")\n";
    }
  }
  return out;
}

}  // namespace analysis
}  // namespace imax432
