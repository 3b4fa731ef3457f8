// imax_perfbench: host-time benchmark of the iMAX-432 emulator.
//
//   imax_perfbench --workload rpc|churn|filing [--seed N] [--seconds S]
//                  [--trace 0|1] [--spans FILE]
//
// One host process and thread drives one System per workload in a closed loop (one op = one
// round: post inputs, run to idle, check outputs). Set-up (boot, build, spawn, warm-up) is
// repeated for about kSetupSeconds and reported as a median. The timed phase then runs for
// --seconds and at least kCountWindow rounds.
//
// --trace 0 prints the end-to-end metrics, in thread CPU time scaled to one host speed with
// the reference of reference.h. --trace 1 alternates blocks of traced and
// untraced rounds, records a span around every call the host client makes into a layer's
// public functions, then pairs the plain system with an observed one (profiler and span
// tracer armed) and prints the per-layer metrics, including the tracing and observer
// overheads. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "perfbench/reference.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"

namespace perfbench {

using namespace imax432;

// --- Clock, spans, meter ---

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
}

const char* SpanNameText(SpanName name) {
  static const char* const kNames[kSpanNameCount] = {
      "bench.round",     "os.boot",          "os.spawn",       "os.types",
      "exec.run",        "exec.create_domain", "ipc.create_port", "ipc.post",
      "ipc.dequeue",     "memory.create",    "memory.destroy", "arch.read",
      "arch.write",      "gc.request",       "gc.collect_now", "filing.file",
      "filing.retrieve", "filing.digest",    "filing.power_cut", "filing.recover",
      "obs.critical_path", "obs.metrics_collect",
  };
  return kNames[static_cast<size_t>(name)];
}

uint32_t SpanLog::Open(SpanName name) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? 0 : stack_.back();
  span.round = round_;
  span.id = flushed_ + static_cast<uint32_t>(open_.size()) + 1;
  open_.push_back(span);
  stack_.push_back(span.id);
  open_.back().start_ns = HostNs();
  return span.id;
}

void SpanLog::Close(uint32_t id) {
  if (id == 0) {
    return;
  }
  open_[id - flushed_ - 1].end_ns = HostNs();
  stack_.pop_back();
}

namespace {

// Calls made only during set-up or after the timed phase. For every other name, durations
// are sampled from timed rounds only, so set-up repeats do not mix into the medians.
bool OutsideRounds(SpanName name) {
  return name == SpanName::kOsBoot || name == SpanName::kOsSpawn ||
         name == SpanName::kGcCollectNow || name == SpanName::kObsCriticalPath ||
         name == SpanName::kObsMetrics;
}

}  // namespace

void SpanLog::Flush() {
  // child_ns[i + 1] = time spent in the direct children of open_[i].
  std::vector<int64_t> child_ns(open_.size() + 1, 0);
  for (const Span& span : open_) {
    child_ns[span.parent == 0 ? 0 : span.parent - flushed_] += span.end_ns - span.start_ns;
  }
  for (size_t i = 0; i < open_.size(); ++i) {
    const Span& span = open_[i];
    int64_t duration = span.end_ns - span.start_ns;
    SpanTotals& totals = totals_[static_cast<size_t>(span.name)];
    if ((span.round != kNoRound || OutsideRounds(span.name)) &&
        totals.durations_us.size() < kMaxDurationSamples) {
      totals.durations_us.push_back(static_cast<float>(duration / 1e3));
    }
    if (span.round != kNoRound) {
      ++totals.count;
      totals.total_ns += duration;
      totals.self_ns += duration - child_ns[i + 1];
    }
    // Set-up may repeat hundreds of times; a quarter of the export budget is enough for it.
    size_t budget = span.round == kNoRound ? kMaxExportedSpans / 4 : kMaxExportedSpans;
    if (exported_.size() < budget) {
      exported_.push_back(span);
    }
  }
  flushed_ += static_cast<uint32_t>(open_.size());
  open_.clear();
}

void Counters::Add(const Counters& after, const Counters& before) {
  instructions += after.instructions - before.instructions;
  dispatches += after.dispatches - before.dispatches;
  domain_calls += after.domain_calls - before.domain_calls;
  blocks += after.blocks - before.blocks;
  messages += after.messages - before.messages;
  handoffs += after.handoffs - before.handoffs;
  objects_created += after.objects_created - before.objects_created;
  gc_cycles += after.gc_cycles - before.gc_cycles;
  gc_scanned += after.gc_scanned - before.gc_scanned;
  gc_reclaimed += after.gc_reclaimed - before.gc_reclaimed;
  gc_work_units += after.gc_work_units - before.gc_work_units;
  journal_bytes += after.journal_bytes - before.journal_bytes;
  journal_syncs += after.journal_syncs - before.journal_syncs;
  journal_checkpoints += after.journal_checkpoints - before.journal_checkpoints;
  mutations += after.mutations - before.mutations;
  virtual_cycles += after.virtual_cycles - before.virtual_cycles;
  bus_busy += after.bus_busy - before.bus_busy;
  bus_wait += after.bus_wait - before.bus_wait;
  spans += after.spans - before.spans;
}

namespace {

Counters Sample(System& system) {
  Counters c;
  const KernelStats& kernel = system.kernel().stats();
  c.instructions = kernel.instructions_executed;
  c.dispatches = kernel.dispatches;
  c.domain_calls = kernel.domain_calls;
  c.blocks = kernel.blocks;
  const PortStats& ports = system.kernel().ports().stats();
  c.messages = ports.messages_enqueued + ports.direct_handoffs;
  c.handoffs = ports.direct_handoffs;
  c.objects_created = system.memory().stats().objects_created;
  const GcStats& gc = system.gc().stats();
  c.gc_cycles = gc.cycles_completed;
  c.gc_scanned = gc.objects_scanned;
  c.gc_reclaimed = gc.objects_reclaimed;
  c.gc_work_units = system.gc().work_units();
  if (system.journal() != nullptr) {
    const JournalStats& journal = system.journal()->stats();
    c.journal_bytes = journal.bytes_appended;
    c.journal_syncs = journal.syncs;
    c.journal_checkpoints = journal.checkpoints;
  }
  c.mutations = system.filing().stats().journaled_mutations;
  c.virtual_cycles = system.now();
  c.bus_busy = system.machine().bus().busy_cycles();
  c.bus_wait = system.machine().bus().wait_cycles();
  c.spans = system.machine().spans().spans_created();
  return c;
}

}  // namespace

bool Env::Check(bool ok, const char* what) {
  constexpr uint64_t kReported = 10;
  if (!ok && ++failed_checks <= kReported) {
    std::fprintf(stderr, "imax_perfbench: check failed: %s\n", what);
  }
  return ok;
}

void Meter::Begin(System& system) { start_ = Sample(system); }

void Meter::End(System& system) { totals_.Add(Sample(system), start_); }

namespace {

// Set-up is repeated until kSetupSeconds have passed (and at least kMinSetups times), and
// setup_s is the median, so one slow set-up does not decide the figure.
constexpr int kMinSetups = 5;
constexpr double kSetupSeconds = 2.0;
constexpr int kWarmupRounds = 64;
// The untraced timed phase runs the host-speed reference after every kSliceNs of rounds
// (reference.h), which adds about 4% to its length.
constexpr int64_t kSliceNs = 100000000;
// Per-round times kept in the untraced run (see RoundSamples).
constexpr size_t kMaxRoundSamples = 1 << 18;
// Count metrics and the fingerprint cover exactly the first kCountWindow timed rounds, so
// they are exact per seed whatever the host speed; the timed phase never runs shorter.
constexpr uint64_t kCountWindow = 1024;
// In the traced run, blocks of this many rounds alternate between traced and untraced.
constexpr uint64_t kTraceBlock = 16;

// Paper figures the virtual-time model is calibrated to (§2 and §6.2 of the iMAX paper).
constexpr double kPaperDomainCallUs = 65.0;
constexpr double kPaperAllocationUs = 80.0;
constexpr double kCalibrationTolerance = 0.10;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

void Usage() {
  std::fprintf(stderr,
               "usage: imax_perfbench --workload rpc|churn|filing [--seed N]\n"
               "                      [--seconds S] [--trace 0|1] [--spans FILE]\n");
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options->trace = std::strcmp(value, "1") == 0;
      if (!options->trace && std::strcmp(value, "0") != 0) {
        return false;
      }
    } else if (flag == "--spans") {
      options->spans_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), options->workload) != names.end() &&
         options->seconds > 0;
}

// Linear interpolation between closest ranks; `sorted` must be ascending and non-empty.
double Percentile(const std::vector<float>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Quantile(std::vector<float> values, double p) {
  std::sort(values.begin(), values.end());
  return Percentile(values, p);
}

double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Per-round times of the untraced timed phase in bounded memory, so the sample buffer does
// not grow the resident set with the host's speed. Once kMaxRoundSamples are held, every
// other one is dropped and from then on only every stride-th round is kept: sample j is
// always round j * stride, an even spread over the whole phase.
class RoundSamples {
 public:
  RoundSamples() { ms_.reserve(kMaxRoundSamples); }

  void Add(uint64_t round, float ms) {
    if (round % stride_ != 0) {
      return;
    }
    if (ms_.size() == kMaxRoundSamples) {
      for (size_t j = 0; j < ms_.size() / 2; ++j) {
        ms_[j] = ms_[2 * j];
      }
      ms_.resize(ms_.size() / 2);
      stride_ *= 2;
      if (round % stride_ != 0) {
        return;
      }
    }
    ms_.push_back(ms);
  }

  // The samples scaled to the reference host: a round of slice s is scaled by
  // speed.Scale(s), and slice s starts at round slice_first[s].
  std::vector<float> Scaled(const SpeedLog& speed, const std::vector<uint64_t>& slice_first) {
    std::vector<double> scale(speed.size());
    for (size_t s = 0; s < scale.size(); ++s) {
      scale[s] = speed.Scale(s);
    }
    std::vector<float> scaled(ms_.size());
    size_t slice = 0;
    for (size_t j = 0; j < ms_.size(); ++j) {
      uint64_t round = j * stride_;
      while (slice + 1 < slice_first.size() && slice_first[slice + 1] <= round) {
        ++slice;
      }
      scaled[j] = static_cast<float>(ms_[j] * scale[slice]);
    }
    return scaled;
  }

  const std::vector<float>& raw() const { return ms_; }

 private:
  std::vector<float> ms_;
  uint64_t stride_ = 1;
};

// --- Model calibration ---
//
// Times one inter-domain call and one 64-byte allocation in virtual time from inside a
// process on one GDP, by differencing timestamps taken around each instruction against a
// timestamp pair around nothing. The stamp is a service registered here that reads the
// processor's compute clock: virtual time minus the interconnect cycles charged so far. That
// is what the paper's figures calibrate; the model adds an estimated bus share on top. The
// paper's 65 us domain switch and 80 us segment allocation are the only reference data the
// model has.
struct Calibration {
  double domain_call_us = 0;
  double allocation_us = 0;
  bool ok = false;
};

Calibration Calibrate() {
  constexpr uint32_t kStampService = os_service::kFirstPackageService + 0x7000;
  constexpr uint32_t kStamps = 5;
  SystemConfig config;
  config.processors = 1;
  config.start_gc_daemon = false;
  System system(config);
  Machine& machine = system.machine();
  system.kernel().RegisterService(kStampService, [&machine](ExecutionContext& env) {
    env.set_reg(kArgReg, machine.now() - machine.bus().busy_cycles());
    return Result<NativeResult>(NativeResult{});
  });
  Assembler leaf("calibration-leaf");
  leaf.OsCall(kStampService).Return();
  AccessDescriptor segment = system.kernel().programs().Register(leaf.Build()).value();
  AccessDescriptor domain = system.kernel().CreateDomain({segment}).value();
  AccessDescriptor carrier =
      system.memory()
          .CreateObject(system.memory().global_heap(), SystemType::kGeneric, 8 * kStamps, 2,
                        rights::kRead | rights::kWrite)
          .value();
  AddressingUnit& au = machine.addressing();
  (void)au.WriteAd(carrier, 0, domain);
  (void)au.WriteAd(carrier, 1, system.memory().global_heap());

  // Stamp k is saved at carrier offset 8k.
  Assembler a("calibration");
  a.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 1)
      .OsCall(kStampService)
      .StoreData(1, kArgReg, 0)
      .OsCall(kStampService)
      .StoreData(1, kArgReg, 8)  // stamp 1 - stamp 0 = one stamp-and-save step
      .Call(2, 0)
      .StoreData(1, kArgReg, 16)  // stamped by the callee's first instruction
      .OsCall(kStampService)
      .StoreData(1, kArgReg, 24)
      .CreateObject(4, 3, 64)
      .OsCall(kStampService)
      .StoreData(1, kArgReg, 32)
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier;
  Calibration result;
  if (!system.Spawn(a.Build(), options).ok()) {
    return result;
  }
  system.Run();
  double stamp[kStamps];
  for (uint32_t k = 0; k < kStamps; ++k) {
    stamp[k] = static_cast<double>(au.ReadData(carrier, 8 * k, 8).value());
  }
  double step = stamp[1] - stamp[0];
  double per_us = static_cast<double>(cycles::kPerMicrosecond);
  result.domain_call_us = (stamp[2] - stamp[1] - step) / per_us;
  result.allocation_us = (stamp[4] - stamp[3] - step) / per_us;
  result.ok =
      std::fabs(result.domain_call_us / kPaperDomainCallUs - 1) <= kCalibrationTolerance &&
      std::fabs(result.allocation_us / kPaperAllocationUs - 1) <= kCalibrationTolerance;
  return result;
}

// --- Output ---

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buffer[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), value, metrics[i].unit);
    out += buffer;
  }
  out += "}}";
  return out;
}

uint64_t Fold(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t Fingerprint(const Counters& c, Cycles now, uint64_t state) {
  uint64_t hash = 1469598103934665603ull;
  for (uint64_t value :
       {c.instructions, c.dispatches, c.domain_calls, c.blocks, c.messages, c.handoffs,
        c.objects_created, c.gc_cycles, c.gc_scanned, c.gc_reclaimed, c.gc_work_units,
        c.journal_bytes, c.journal_syncs, c.journal_checkpoints, c.mutations,
        c.virtual_cycles, c.bus_busy, c.bus_wait, c.spans, c.events, c.recoveries,
        c.replayed_records, static_cast<uint64_t>(now), state}) {
    hash = Fold(hash, value);
  }
  return hash;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  // One JSON object per line; parent 0 marks a top-level span, round null set-up or
  // after-run calls.
  for (const Span& span : spans) {
    std::string round = span.round == kNoRound ? "null" : std::to_string(span.round);
    std::fprintf(file,
                 "{\"name\": \"%s\", \"id\": %u, \"parent\": %u, \"round\": %s, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 SpanNameText(span.name), span.id, span.parent, round.c_str(),
                 static_cast<long long>(span.start_ns), static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    Usage();
    return 2;
  }

  Calibration calibration = Calibrate();
  std::printf("calibration: compute-cycle cost domain_call_us=%.2f (paper %.0f) "
              "allocation_us=%.2f (paper %.0f) tolerance=%.0f%% -> %s; the model has no "
              "other reference data and is otherwise unvalidated\n",
              calibration.domain_call_us, kPaperDomainCallUs, calibration.allocation_us,
              kPaperAllocationUs, kCalibrationTolerance * 100,
              calibration.ok ? "ok" : "DRIFTED");
  if (!calibration.ok) {
    std::fprintf(stderr, "imax_perfbench: MODEL CALIBRATION DRIFTED from the paper's figures\n");
  }

  auto env = std::make_unique<Env>();
  std::unique_ptr<Workload> workload;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Reference reference;
  SpeedLog setup_speed;  // one slice per set-up
  int64_t setup_start = HostNs();
  for (int s = 0; s < kMinSetups || HostNs() - setup_start < kSetupSeconds * 1e9; ++s) {
    workload.reset();
    int64_t start = CpuNs();
    env->spans.set_enabled(options.trace);
    workload = MakeWorkload(options.workload, options.seed, env.get(), /*observed=*/false);
    workload->Setup();
    env->spans.set_enabled(false);
    env->spans.Flush();
    for (int r = 0; r < kWarmupRounds; ++r) {
      ++attempted;
      failed += workload->Round() ? 0 : 1;
    }
    int64_t setup_ns = CpuNs() - start;
    setup_speed.Add(setup_ns, reference.Run());
  }
  env->meter = Meter();

  // --- Timed phase ---
  RoundSamples round_ms;                   // untraced run
  SpeedLog speed;                          // untraced run: one entry per slice
  std::vector<uint64_t> slice_first;       // untraced run: first round of each slice
  std::vector<float> untraced_ms;          // traced run: rounds in untraced blocks
  std::vector<float> traced_ms;            // traced run: rounds in traced blocks
  std::vector<float> collection_round_ms;  // traced run: rounds carrying a collection request
  Counters window_counts;
  uint32_t live_peak = 0;
  uint32_t live_after_gc = 0;
  uint64_t fingerprint = 0;
  Cycles window_clock = 0;
  uint64_t rounds = 0;
  int64_t phase_start = HostNs();
  int64_t limit_ns = static_cast<int64_t>(options.seconds * 1e9);
  // One CPU-clock read per round: a round's time runs from the previous round's read, so the
  // loop's own bookkeeping is charged to the next round rather than lost.
  int64_t last_cpu = CpuNs();
  int64_t slice_start = last_cpu;
  slice_first.push_back(0);
  for (;;) {
    bool traced = options.trace && (rounds / kTraceBlock) % 2 == 0;
    env->spans.set_enabled(traced);
    env->spans.set_round(static_cast<uint32_t>(rounds));
    bool ok;
    {
      Scope scope(env->spans, SpanName::kRound);
      env->meter.Begin(workload->system());
      ok = workload->Round();
      env->meter.End(workload->system());
    }
    env->spans.Flush();
    int64_t cpu = CpuNs();
    float ms = static_cast<float>(static_cast<double>(cpu - last_cpu) / 1e6);
    last_cpu = cpu;
    ++attempted;
    failed += ok ? 0 : 1;
    if (!options.trace) {
      round_ms.Add(rounds, ms);
    } else {
      (traced ? traced_ms : untraced_ms).push_back(ms);
      if (workload->collection_round()) {
        collection_round_ms.push_back(ms);
      }
    }
    ++rounds;
    if (rounds <= kCountWindow) {
      live_peak = std::max(live_peak, workload->system().machine().table().live_count());
    }
    if (rounds == kCountWindow) {
      window_counts = env->meter.totals();
      live_after_gc = workload->live_after_gc();
      window_clock = workload->system().now();
      fingerprint = Fingerprint(window_counts, window_clock, workload->StateFold());
    }
    bool done = rounds >= kCountWindow && HostNs() - phase_start >= limit_ns;
    if (!options.trace && (done || cpu - slice_start >= kSliceNs)) {
      // The reference's own time is charged to no round.
      speed.Add(cpu - slice_start, reference.Run());
      last_cpu = slice_start = CpuNs();
      if (!done) {
        slice_first.push_back(rounds);
      }
    }
    if (done) {
      break;
    }
  }
  double phase_seconds = static_cast<double>(HostNs() - phase_start) / 1e9;
  // The paired observer phase below must run the plain system untraced, whichever block
  // the last timed round fell in.
  env->spans.set_enabled(false);
  env->spans.set_round(kNoRound);

  std::printf("fingerprint: workload=%s seed=%llu rounds=%llu vclock=%llu inst=%llu "
              "events=%llu fold=%016llx\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(kCountWindow),
              static_cast<unsigned long long>(window_clock),
              static_cast<unsigned long long>(window_counts.instructions),
              static_cast<unsigned long long>(window_counts.events),
              static_cast<unsigned long long>(fingerprint));

  std::vector<Metric> metrics;
  bool correct = calibration.ok;
  if (!options.trace) {
    // Times scaled to the reference host (reference.h), and the same figures unscaled.
    double cpu_ns = 0;
    double scaled_ns = 0;
    for (size_t s = 0; s < speed.size(); ++s) {
      cpu_ns += static_cast<double>(speed.work_ns(s));
      scaled_ns += speed.ScaledNs(s);
    }
    std::vector<float> scaled_ms = round_ms.Scaled(speed, slice_first);
    std::vector<float> raw_ms = round_ms.raw();
    std::vector<float> setup_s;
    std::vector<float> raw_setup_s;
    for (size_t s = 0; s < setup_speed.size(); ++s) {
      setup_s.push_back(static_cast<float>(setup_speed.ScaledNs(s) / 1e9));
      raw_setup_s.push_back(static_cast<float>(setup_speed.work_ns(s) / 1e9));
    }
    std::sort(scaled_ms.begin(), scaled_ms.end());
    std::sort(raw_ms.begin(), raw_ms.end());
    size_t beyond_p99 =
        scaled_ms.size() - static_cast<size_t>(std::ceil(0.99 * scaled_ms.size()));
    std::printf("samples: rounds=%llu round_samples=%zu beyond_p99=%zu slices=%zu "
                "setups=%zu timed_s=%.3f cpu_s=%.3f\n",
                static_cast<unsigned long long>(rounds), scaled_ms.size(), beyond_p99,
                speed.size(), setup_speed.size(), phase_seconds, cpu_ns / 1e9);
    std::printf("host speed: reference run median %.0f ns (%.0f ns on the reference host); "
                "unscaled ops_per_s=%.2f op_ms_p50=%.4f op_ms_p99=%.4f setup_s=%.4f\n",
                speed.MedianReferenceNs(), kReferenceNs, Ratio(rounds, cpu_ns / 1e9),
                Percentile(raw_ms, 0.50), Percentile(raw_ms, 0.99), Quantile(raw_setup_s, 0.5));
    metrics = {
        {"ops_per_s", Ratio(static_cast<double>(rounds), scaled_ns / 1e9), "op/s"},
        {"op_ms_p50", Percentile(scaled_ms, 0.50), "ms"},
        {"op_ms_p99", Percentile(scaled_ms, 0.99), "ms"},
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    std::printf("%s\n", Json(correct && failed == 0, attempted, failed, metrics).c_str());
    return 0;
  }

  // --- Traced run: observer cost ---
  // The same workload and seed with the cycle profiler and span tracer armed. Its rounds
  // alternate in blocks with further rounds of the plain system, so both see the same host
  // conditions; obs.overhead_pct compares their CPU time per round.
  auto observed_env = std::make_unique<Env>();
  std::unique_ptr<Workload> observed =
      MakeWorkload(options.workload, options.seed, observed_env.get(), /*observed=*/true);
  observed->Setup();
  for (int r = 0; r < kWarmupRounds; ++r) {
    ++attempted;
    failed += observed->Round() ? 0 : 1;
  }
  observed_env->meter = Meter();
  double observed_cpu_ns = 0;
  double plain_cpu_ns = 0;
  uint64_t observed_rounds = 0;
  for (uint64_t r = 0; r < 2 * kCountWindow; ++r) {
    bool ok;
    int64_t start = CpuNs();
    if ((r / kTraceBlock) % 2 == 0) {
      observed_env->meter.Begin(observed->system());
      ok = observed->Round();
      observed_env->meter.End(observed->system());
      observed_cpu_ns += static_cast<double>(CpuNs() - start);
      ++observed_rounds;
    } else {
      ok = workload->Round();
      plain_cpu_ns += static_cast<double>(CpuNs() - start);
    }
    ++attempted;
    failed += ok ? 0 : 1;
  }

  // --- Traced run: one-off calls after the timed phase, then per-layer metrics ---
  System& system = workload->system();
  System& observed_system = observed->system();
  env->spans.set_enabled(true);
  {
    Scope scope(env->spans, SpanName::kGcCollectNow);
    system.gc().CollectNow();
  }
  observed_system.machine().spans().FlushOpen();
  CriticalPathReport critical_path;
  {
    Scope scope(env->spans, SpanName::kObsCriticalPath);
    critical_path = AnalyzeCriticalPath(observed_system.machine().spans());
  }
  correct &= env->Check(critical_path.dropped == 0, "observed run: span tracer dropped spans");
  MetricsRegistry registry(&observed_system);
  {
    Scope scope(env->spans, SpanName::kObsMetrics);
    MetricsSnapshot snapshot = registry.Collect();
    correct &= env->Check(snapshot.now == observed_system.now(),
                          "observed run: metrics snapshot is not at the current time");
  }
  env->spans.set_enabled(false);
  env->spans.Flush();
  if (!options.spans_path.empty() && !WriteSpans(options.spans_path, env->spans.exported())) {
    std::fprintf(stderr, "imax_perfbench: cannot write %s\n", options.spans_path.c_str());
    correct = false;
  }

  const SpanLog& spans = env->spans;
  auto p = [&spans](SpanName name, double q) {
    return Quantile(spans.totals(name).durations_us, q);
  };
  const SpanTotals& round_totals = spans.totals(SpanName::kRound);
  double traced_rounds = static_cast<double>(round_totals.count);
  auto self_us_per_op = [&](const char* layer) {
    double self_ns = 0;
    for (size_t n = 0; n < kSpanNameCount; ++n) {
      const char* text = SpanNameText(static_cast<SpanName>(n));
      if (std::strncmp(text, layer, std::strlen(layer)) == 0 &&
          text[std::strlen(layer)] == '.') {
        self_ns += static_cast<double>(spans.totals(static_cast<SpanName>(n)).self_ns);
      }
    }
    return Ratio(self_ns / 1e3, traced_rounds);
  };
  auto sum = [](const std::vector<float>& v) {
    double total = 0;
    for (float x : v) total += x;
    return total;
  };
  double traced_rate = Ratio(static_cast<double>(traced_ms.size()), sum(traced_ms));
  double untraced_rate = Ratio(static_cast<double>(untraced_ms.size()), sum(untraced_ms));
  const Counters& c = window_counts;
  double ops = static_cast<double>(kCountWindow);
  // Host time per emulated instruction / event: traced run-to-idle time per round over the
  // exact per-round instruction / event counts.
  double run_ns_per_op = Ratio(static_cast<double>(spans.totals(SpanName::kExecRun).total_ns),
                               traced_rounds);
  double boot_ms = p(SpanName::kOsBoot, 0.5) / 1e3;
  double recover_ms = spans.totals(SpanName::kFilingRecover).durations_us.empty()
                          ? 0
                          : p(SpanName::kFilingRecover, 0.5) / 1e3 - boot_ms;

  std::printf("samples: traced_rounds=%zu untraced_rounds=%zu collection_rounds=%zu "
              "timed_s=%.3f\n",
              traced_ms.size(), untraced_ms.size(), collection_round_ms.size(), phase_seconds);
  metrics = {
      {"os.boot_ms", boot_ms, "ms"},
      {"os.spawn_us", p(SpanName::kOsSpawn, 0.5), "us"},
      {"os.self_us_per_op", self_us_per_op("os"), "us"},
      {"exec.run_us_p50", p(SpanName::kExecRun, 0.5), "us"},
      {"exec.run_us_p99", p(SpanName::kExecRun, 0.99), "us"},
      {"exec.ns_per_inst", Ratio(run_ns_per_op, c.instructions / ops), "ns"},
      {"exec.self_us_per_op", self_us_per_op("exec"), "us"},
      {"exec.inst_per_op", c.instructions / ops, "count"},
      {"exec.dispatches_per_op", c.dispatches / ops, "count"},
      {"exec.domain_calls_per_op", c.domain_calls / ops, "count"},
      {"exec.blocks_per_op", c.blocks / ops, "count"},
      {"sim.ns_per_event", Ratio(run_ns_per_op, c.events / ops), "ns"},
      {"sim.events_per_op", c.events / ops, "count"},
      {"sim.events_per_inst", Ratio(c.events, c.instructions), "count"},
      {"sim.virtual_us_per_op", cycles::ToMicroseconds(c.virtual_cycles) / ops, "us"},
      {"sim.bus_busy_pct",
       100 * Ratio(c.bus_busy, static_cast<double>(c.virtual_cycles) *
                                   system.machine().bus().channels()),
       "%"},
      {"sim.bus_wait_cycles_per_op", c.bus_wait / ops, "count"},
      {"arch.table_live_peak", static_cast<double>(live_peak), "count"},
      {"arch.table_live_after_gc", static_cast<double>(live_after_gc), "count"},
      {"arch.self_us_per_op", self_us_per_op("arch"), "us"},
      {"ipc.post_us", p(SpanName::kIpcPost, 0.5), "us"},
      {"ipc.dequeue_us", p(SpanName::kIpcDequeue, 0.5), "us"},
      {"ipc.messages_per_op", c.messages / ops, "count"},
      {"ipc.handoff_ratio", Ratio(c.handoffs, c.messages), "count"},
      {"ipc.self_us_per_op", self_us_per_op("ipc"), "us"},
      {"memory.create_us", p(SpanName::kMemoryCreate, 0.5), "us"},
      {"memory.objects_created_per_op", c.objects_created / ops, "count"},
      {"memory.self_us_per_op", self_us_per_op("memory"), "us"},
      {"gc.self_us_per_op", self_us_per_op("gc"), "us"},
      {"gc.round_ms_p50", Quantile(collection_round_ms, 0.5), "ms"},
      {"gc.collect_now_ms", p(SpanName::kGcCollectNow, 0.5) / 1e3, "ms"},
      {"gc.cycles", static_cast<double>(c.gc_cycles), "count"},
      {"gc.scanned_per_cycle", Ratio(c.gc_scanned, c.gc_cycles), "count"},
      {"gc.reclaimed_per_cycle", Ratio(c.gc_reclaimed, c.gc_cycles), "count"},
      {"gc.work_units_per_cycle", Ratio(c.gc_work_units, c.gc_cycles), "count"},
      {"gc.reclaim_ratio", Ratio(c.gc_reclaimed, c.gc_work_units), "count"},
      {"filing.file_us_p50", p(SpanName::kFilingFile, 0.5), "us"},
      {"filing.file_us_p99", p(SpanName::kFilingFile, 0.99), "us"},
      {"filing.retrieve_us_p50", p(SpanName::kFilingRetrieve, 0.5), "us"},
      {"filing.retrieve_us_p99", p(SpanName::kFilingRetrieve, 0.99), "us"},
      {"filing.recover_ms", recover_ms, "ms"},
      {"filing.journal_bytes_per_mutation", Ratio(c.journal_bytes, c.mutations), "count"},
      {"filing.syncs_per_mutation", Ratio(c.journal_syncs, c.mutations), "count"},
      {"filing.replayed_records_per_recovery", Ratio(c.replayed_records, c.recoveries),
       "count"},
      {"filing.self_us_per_op", self_us_per_op("filing"), "us"},
      {"obs.critical_path_ms", p(SpanName::kObsCriticalPath, 0.5) / 1e3, "ms"},
      {"obs.metrics_collect_ms", p(SpanName::kObsMetrics, 0.5) / 1e3, "ms"},
      {"obs.spans_per_op",
       Ratio(observed_env->meter.totals().spans, static_cast<double>(observed_rounds)), "count"},
      {"obs.overhead_pct",
       100 * (Ratio(observed_cpu_ns / observed_rounds,
                    plain_cpu_ns / static_cast<double>(2 * kCountWindow - observed_rounds)) -
              1),
       "%"},
      {"obs.request_vt_us_p50", cycles::ToMicroseconds(critical_path.p50), "us"},
      {"obs.request_vt_us_p99", cycles::ToMicroseconds(critical_path.p99), "us"},
      {"trace.overhead_pct", 100 * (Ratio(untraced_rate, traced_rate) - 1), "%"},
      {"trace.client_self_pct",
       100 * Ratio(static_cast<double>(round_totals.self_ns),
                   static_cast<double>(round_totals.total_ns)),
       "%"},
  };
  std::printf("%s\n", Json(correct && failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
