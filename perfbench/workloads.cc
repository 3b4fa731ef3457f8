// The benchmark's four closed-loop workloads. Each round the single host client posts
// seeded inputs through public calls, runs the machine to idle and checks every output;
// a failed check marks the round as a failed op and never aborts the run.
//
// Every input is drawn from one Xorshift seeded by --seed: request loop lengths and salts
// (rpc), mutator allocation sizes and counts (churn), and filing names, sizes, contents,
// types and the read/write mix (filing). The emulated programs see only these inputs.

#include <algorithm>

#include "perfbench/perfbench.h"
#include "src/base/xorshift.h"

namespace perfbench {

using namespace imax432;

namespace {

constexpr RightsMask kReadWrite = rights::kRead | rights::kWrite;
constexpr RightsMask kReadWriteDelete = rights::kRead | rights::kWrite | rights::kDelete;

// --- Span-wrapped calls into the layers' public functions ---

// The defaults users get, plus the processor count each workload pins; an observed run also
// arms the cycle profiler and the span tracer.
SystemConfig Config(int processors, bool observed) {
  SystemConfig config;
  config.processors = processors;
  config.profile = observed;
  config.span_trace = observed;
  return config;
}

std::unique_ptr<System> Boot(Env& env, const SystemConfig& config,
                             SpanName name = SpanName::kOsBoot) {
  Scope scope(env.spans, name);
  return std::make_unique<System>(config);
}

Result<AccessDescriptor> CreateObject(Env& env, System& system, uint32_t data_bytes,
                                      uint32_t access_slots, RightsMask ad_rights) {
  Scope scope(env.spans, SpanName::kMemoryCreate);
  return system.memory().CreateObject(system.memory().global_heap(), SystemType::kGeneric,
                                      data_bytes, access_slots, ad_rights);
}

Result<AccessDescriptor> CreatePort(Env& env, System& system, uint16_t capacity) {
  Scope scope(env.spans, SpanName::kIpcCreatePort);
  return system.kernel().ports().CreatePort(system.memory().global_heap(), capacity,
                                            QueueDiscipline::kFifo);
}

Status WriteAd(Env& env, System& system, const AccessDescriptor& container, uint32_t slot,
               const AccessDescriptor& value) {
  Scope scope(env.spans, SpanName::kArchWrite);
  return system.machine().addressing().WriteAd(container, slot, value);
}

Status WriteData(Env& env, System& system, const AccessDescriptor& object, uint32_t offset,
                 uint64_t value) {
  Scope scope(env.spans, SpanName::kArchWrite);
  return system.machine().addressing().WriteData(object, offset, 8, value);
}

Result<uint64_t> ReadData(Env& env, System& system, const AccessDescriptor& object,
                          uint32_t offset) {
  Scope scope(env.spans, SpanName::kArchRead);
  return system.machine().addressing().ReadData(object, offset, 8);
}

Status Post(Env& env, System& system, const AccessDescriptor& port,
            const AccessDescriptor& message) {
  Scope scope(env.spans, SpanName::kIpcPost);
  return system.kernel().PostMessage(port, message);
}

Result<AccessDescriptor> Dequeue(Env& env, System& system, const AccessDescriptor& port) {
  Scope scope(env.spans, SpanName::kIpcDequeue);
  return system.kernel().ports().Dequeue(port);
}

Result<AccessDescriptor> Spawn(Env& env, System& system, ProgramRef program,
                               const AccessDescriptor& arg) {
  Scope scope(env.spans, SpanName::kOsSpawn);
  ProcessOptions options;
  options.initial_arg = arg;
  return system.Spawn(std::move(program), options);
}

// Keeps host-held objects alive across collections: the client's ADs are not in any
// emulated object, so they are reported as roots.
void AddRoots(System& system, std::vector<AccessDescriptor> roots) {
  system.kernel().AddRootProvider(
      [roots = std::move(roots)](std::vector<AccessDescriptor>* out) {
        out->insert(out->end(), roots.begin(), roots.end());
      });
}

// --- rpc ---
//
// Four servers on four GDPs: Receive a request, Call the shared service domain (which
// counts how often the request object was served), fold the request's first `words`
// payload words into a checksum seeded by its salt, and Send the object to the reply port.
class RpcWorkload : public Workload {
 public:
  RpcWorkload(uint64_t seed, Env* env, bool observed)
      : rng_(seed), env_(*env), observed_(observed) {}

  void Setup() override {
    system_ = Boot(env_, Config(kServers, observed_));
    System& system = *system_;

    request_port_ = CreatePort(env_, system, kRequests * 2).value();
    reply_port_ = CreatePort(env_, system, kRequests * 2).value();

    Assembler service("rpc-service");
    service.LoadData(0, kArgAdReg, kServedOffset)
        .AddImm(0, 0, 1)
        .StoreData(kArgAdReg, 0, kServedOffset)
        .Return();
    AccessDescriptor domain;
    {
      Scope scope(env_.spans, SpanName::kExecCreateDomain);
      AccessDescriptor segment = system.kernel().programs().Register(service.Build()).value();
      domain = system.kernel().CreateDomain({segment}).value();
    }

    AccessDescriptor carrier = CreateObject(env_, system, 8, 3, kReadWrite).value();
    (void)WriteAd(env_, system, carrier, 0, request_port_);
    (void)WriteAd(env_, system, carrier, 1, reply_port_);
    (void)WriteAd(env_, system, carrier, 2, domain);

    std::vector<AccessDescriptor> roots = {carrier};
    for (int i = 0; i < kRequests; ++i) {
      Request& request = requests_[i];
      request.object =
          CreateObject(env_, system, kPayloadOffset + kMaxWords * 8, 0, kReadWrite).value();
      for (uint32_t w = 0; w < kMaxWords; ++w) {
        request.payload[w] = rng_.Next();
      }
      Scope scope(env_.spans, SpanName::kArchWrite);
      (void)system.machine().addressing().WriteDataBlock(request.object, kPayloadOffset,
                                                         request.payload, kMaxWords * 8);
      roots.push_back(request.object);
    }
    AddRoots(system, roots);

    for (int s = 0; s < kServers; ++s) {
      (void)Spawn(env_, system, ServerProgram(), carrier);
    }
    RunToIdle(system, env_);  // every server ends up blocked in Receive
  }

  bool Round() override {
    System& system = *system_;
    bool ok = true;
    for (Request& request : requests_) {
      uint64_t words = rng_.NextInRange(kMinWords, kMaxWords);
      uint64_t salt = rng_.Next();
      request.expected = salt;
      for (uint64_t w = 0; w < words; ++w) {
        request.expected = request.expected * kMultiplier + request.payload[w];
      }
      ++request.served;
      request.replied = false;
      ok &= env_.Check(WriteData(env_, system, request.object, kWordsOffset, words).ok() &&
                           WriteData(env_, system, request.object, kSaltOffset, salt).ok() &&
                           Post(env_, system, request_port_, request.object).ok(),
                       "rpc: post request");
    }
    RunToIdle(system, env_);
    for (int i = 0; i < kRequests; ++i) {
      auto reply = Dequeue(env_, system, reply_port_);
      if (!env_.Check(reply.ok(), "rpc: reply missing")) {
        ok = false;
        continue;
      }
      Request* match = nullptr;
      for (Request& request : requests_) {
        if (request.object == reply.value() && !request.replied) {
          match = &request;
        }
      }
      if (!env_.Check(match != nullptr, "rpc: reply is not an outstanding request")) {
        ok = false;
        continue;
      }
      match->replied = true;
      auto checksum = ReadData(env_, system, match->object, kChecksumOffset);
      auto served = ReadData(env_, system, match->object, kServedOffset);
      ok &= env_.Check(checksum.ok() && checksum.value() == match->expected,
                       "rpc: reply checksum differs from the host's");
      ok &= env_.Check(served.ok() && served.value() == match->served,
                       "rpc: service domain call count differs");
    }
    return ok;
  }

  System& system() override { return *system_; }

 private:
  static constexpr int kServers = 4;
  static constexpr int kRequests = 4;
  static constexpr uint32_t kMinWords = 128;
  static constexpr uint32_t kMaxWords = 256;
  static constexpr uint64_t kMultiplier = 31;
  // Request object layout (data part).
  static constexpr uint32_t kWordsOffset = 0;
  static constexpr uint32_t kSaltOffset = 8;
  static constexpr uint32_t kChecksumOffset = 16;
  static constexpr uint32_t kServedOffset = 24;
  static constexpr uint32_t kPayloadOffset = 32;

  struct Request {
    AccessDescriptor object;
    uint64_t payload[kMaxWords] = {};
    uint64_t expected = 0;
    uint64_t served = 0;
    bool replied = false;
  };

  static ProgramRef ServerProgram() {
    Assembler a("rpc-server");
    auto loop = a.NewLabel();
    auto fold = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)  // a2 = request port
        .LoadAd(3, 1, 1)  // a3 = reply port
        .LoadAd(5, 1, 2)  // a5 = service domain
        .LoadImm(5, kMultiplier)
        .LoadImm(6, 8)
        .Bind(loop)
        .Receive(4, 2)
        .MoveAd(kArgAdReg, 4)
        .Call(5, 0)
        .LoadData(1, 4, kWordsOffset)
        .Mul(1, 1, 6)  // r1 = payload bytes to fold
        .LoadData(2, 4, kSaltOffset)
        .LoadImm(0, 0)
        .Bind(fold)
        .LoadDataIndexed(3, 4, 0, kPayloadOffset)
        .Mul(2, 2, 5)
        .Add(2, 2, 3)
        .AddImm(0, 0, 8)
        .BranchIfLess(0, 1, fold)
        .StoreData(4, 2, kChecksumOffset)
        .Send(3, 4)
        .Branch(loop);
    return a.Build();
  }

  Xorshift rng_;
  Env& env_;
  bool observed_;
  std::unique_ptr<System> system_;
  AccessDescriptor request_port_;
  AccessDescriptor reply_port_;
  Request requests_[kRequests];
};

// --- churn ---
//
// Two mutators on two GDPs with the default GC daemon. Each takes a token carrying an
// iteration count, allocates kSizesPerIteration objects of seeded sizes per iteration,
// writes each and stores it into its 256-slot survivor array (orphaning the previous
// occupant), then returns the token with the number of objects it allocated. Every 16th
// round also requests a collection, which the daemon runs in virtual time alongside.
class ChurnWorkload : public Workload {
 public:
  ChurnWorkload(uint64_t seed, Env* env, bool observed)
      : rng_(seed), env_(*env), observed_(observed) {}

  void Setup() override {
    system_ = Boot(env_, Config(kMutators, observed_));
    System& system = *system_;

    token_port_ = CreatePort(env_, system, kMutators * 2).value();
    reply_port_ = CreatePort(env_, system, kMutators * 2).value();
    std::vector<AccessDescriptor> roots = {token_port_, reply_port_};
    std::vector<AccessDescriptor> carriers;
    for (int m = 0; m < kMutators; ++m) {
      tokens_[m].object = CreateObject(env_, system, 16, 0, kReadWrite).value();
      AccessDescriptor survivors = CreateObject(env_, system, 0, kSurvivors, kReadWrite).value();
      AccessDescriptor carrier = CreateObject(env_, system, 0, 4, kReadWrite).value();
      (void)WriteAd(env_, system, carrier, 0, token_port_);
      (void)WriteAd(env_, system, carrier, 1, reply_port_);
      (void)WriteAd(env_, system, carrier, 2, system.memory().global_heap());
      (void)WriteAd(env_, system, carrier, 3, survivors);
      roots.push_back(tokens_[m].object);
      roots.push_back(carrier);
      carriers.push_back(carrier);
    }
    AddRoots(system, roots);
    for (int m = 0; m < kMutators; ++m) {
      (void)Spawn(env_, system, MutatorProgram(), carriers[m]);
    }
    RunToIdle(system, env_);
    // Objects in the table that the memory manager did not create: the constant the
    // reclaim identity is checked against.
    identity_base_ = static_cast<int64_t>(system.machine().table().live_count()) -
                     static_cast<int64_t>(AccountedLive());
  }

  bool Round() override {
    System& system = *system_;
    bool ok = true;
    ++rounds_;
    collection_round_ = rounds_ % kCollectionPeriod == 0;
    for (Token& token : tokens_) {
      uint64_t iterations = rng_.NextInRange(kMinIterations, kMaxIterations);
      token.expected = iterations * kSizesPerIteration;
      token.returned = false;
      ok &= env_.Check(
          WriteData(env_, system, token.object, kIterationsOffset, iterations).ok() &&
              Post(env_, system, token_port_, token.object).ok(),
          "churn: post token");
    }
    uint64_t cycles_before = system.gc().stats().cycles_completed;
    if (collection_round_) {
      Scope scope(env_.spans, SpanName::kGcRequest);
      ok &= env_.Check(system.RequestCollection().ok(), "churn: request collection");
    }
    RunToIdle(system, env_);
    for (int i = 0; i < kMutators; ++i) {
      auto reply = Dequeue(env_, system, reply_port_);
      if (!env_.Check(reply.ok(), "churn: token did not come back")) {
        ok = false;
        continue;
      }
      Token* match = nullptr;
      for (Token& token : tokens_) {
        if (token.object == reply.value() && !token.returned) {
          match = &token;
        }
      }
      if (!env_.Check(match != nullptr, "churn: returned token is not outstanding")) {
        ok = false;
        continue;
      }
      match->returned = true;
      auto allocated = ReadData(env_, system, match->object, kAllocatedOffset);
      ok &= env_.Check(allocated.ok() && allocated.value() == match->expected,
                       "churn: mutator allocation count differs");
    }
    if (collection_round_) {
      // The requested cycle ran to completion inside this round, and afterwards every
      // object ever created is either live or reclaimed.
      ok &= env_.Check(system.gc().stats().cycles_completed == cycles_before + 1,
                       "churn: requested collection did not complete");
      uint32_t live = system.machine().table().live_count();
      ok &= env_.Check(static_cast<int64_t>(live) ==
                           identity_base_ + static_cast<int64_t>(AccountedLive()),
                       "churn: live + reclaimed != created");
      ok &= env_.Check(live <= kLiveBound, "churn: live objects after collection unbounded");
      live_after_gc_ = std::max(live_after_gc_, live);
    }
    return ok;
  }

  System& system() override { return *system_; }
  bool collection_round() const override { return collection_round_; }
  uint32_t live_after_gc() const override { return live_after_gc_; }

 private:
  static constexpr int kMutators = 2;
  static constexpr uint32_t kSurvivors = 256;
  static constexpr uint32_t kSizesPerIteration = 8;
  static constexpr uint64_t kMinIterations = 12;
  static constexpr uint64_t kMaxIterations = 20;
  static constexpr uint64_t kMinObjectBytes = 16;
  static constexpr uint64_t kMaxObjectBytes = 256;
  static constexpr uint64_t kCollectionPeriod = 16;
  // Survivor arrays plus the boot population, with room to spare; a collection that leaves
  // more live objects than this has failed to reclaim orphans.
  static constexpr uint32_t kLiveBound = kMutators * kSurvivors + 512;
  // Token layout (data part).
  static constexpr uint32_t kIterationsOffset = 0;
  static constexpr uint32_t kAllocatedOffset = 8;

  struct Token {
    AccessDescriptor object;
    uint64_t expected = 0;
    bool returned = false;
  };

  // Objects created minus objects the collector reclaimed (the mutators destroy nothing
  // explicitly, so every orphan must come back through the collector).
  uint64_t AccountedLive() {
    return system_->memory().stats().objects_created - system_->gc().stats().objects_reclaimed;
  }

  ProgramRef MutatorProgram() {
    Assembler a("churn-mutator");
    auto loop = a.NewLabel();
    auto iteration = a.NewLabel();
    a.MoveAd(1, kArgAdReg)
        .LoadAd(2, 1, 0)  // a2 = token port
        .LoadAd(3, 1, 1)  // a3 = reply port
        .LoadAd(4, 1, 2)  // a4 = heap
        .LoadAd(5, 1, 3)  // a5 = survivor array
        .LoadImm(4, 0)    // r4 = survivor cursor, kept across rounds
        .LoadImm(5, kSurvivors)
        .Bind(loop)
        .Receive(0, 2)
        .LoadData(1, 0, kIterationsOffset)
        .LoadImm(0, 0)  // r0 = iteration
        .LoadImm(2, 0)  // r2 = objects allocated
        .Bind(iteration);
    for (uint32_t k = 0; k < kSizesPerIteration; ++k) {
      auto no_wrap = a.NewLabel();
      uint32_t bytes = static_cast<uint32_t>(rng_.NextInRange(kMinObjectBytes, kMaxObjectBytes));
      a.CreateObject(6, 4, bytes)
          .StoreData(6, 2, 0)
          .StoreAdIndexed(5, 6, 4)
          .AddImm(2, 2, 1)
          .AddImm(4, 4, 1)
          .BranchIfLess(4, 5, no_wrap)
          .LoadImm(4, 0)
          .Bind(no_wrap);
    }
    a.AddImm(0, 0, 1)
        .BranchIfLess(0, 1, iteration)
        .StoreData(0, 2, kAllocatedOffset)
        .Send(3, 0)
        .Branch(loop);
    return a.Build();
  }

  Xorshift rng_;
  Env& env_;
  bool observed_;
  std::unique_ptr<System> system_;
  AccessDescriptor token_port_;
  AccessDescriptor reply_port_;
  Token tokens_[kMutators];
  uint64_t rounds_ = 0;
  bool collection_round_ = false;
  int64_t identity_base_ = 0;
  uint32_t live_after_gc_ = 0;
};

// --- filing ---
//
// One GDP with a StableStore attached and default checkpoints. Each round files a seeded
// number of typed objects under a rotating namespace, retrieves a seeded number of filed
// names through their TDOs and checks bytes and type ids, and runs to idle so group-commit
// syncs complete. Every kCrashPeriod rounds the device is cut between the writes and the
// run, and a fresh System boots on it; the recovered store must equal a committed prefix.
class FilingWorkload : public Workload {
 public:
  FilingWorkload(uint64_t seed, Env* env, bool observed)
      : rng_(seed), env_(*env), observed_(observed) {}

  void Setup() override {
    BootOn(SpanName::kOsBoot);
    for (uint32_t name = 0; name < kNames; ++name) {
      (void)FileOne(name);
    }
    RunToIdle(*system_, env_);
  }

  bool Round() override {
    bool ok = true;
    ++rounds_;
    bool crash = rounds_ % kCrashPeriod == 0;
    uint64_t writes = rng_.NextInRange(kMinOps, kMaxOps);
    uint64_t reads = rng_.NextInRange(kMinOps, kMaxOps);

    // Durability oracle state: everything before this round is durable (the previous round
    // ran to idle), so the valid recovery points are the digests after each of this
    // round's mutations, from the durable floor up.
    std::vector<uint64_t> digests;
    std::vector<std::pair<uint32_t, Entry>> undo;
    uint64_t appended_before = system_->journal()->appended_mutations();
    if (crash) {
      digests.push_back(Digest());
    }
    for (uint64_t w = 0; w < writes; ++w) {
      uint32_t name = cursor_;
      cursor_ = (cursor_ + 1) % kNames;
      if (crash) {
        undo.emplace_back(name, shadow_[name]);
      }
      ok &= FileOne(name);
      if (crash) {
        digests.push_back(Digest());
      }
    }
    if (crash) {
      ok &= CrashAndRecover(appended_before, digests, undo);
    }
    for (uint64_t r = 0; r < reads; ++r) {
      ok &= RetrieveOne(static_cast<uint32_t>(rng_.NextBelow(kNames)));
    }
    RunToIdle(*system_, env_);
    return ok;
  }

  System& system() override { return *system_; }
  uint64_t StateFold() override { return system_->filing().StateDigest(); }

 private:
  static constexpr uint32_t kNames = 256;
  static constexpr uint32_t kTypes = 3;
  static constexpr uint32_t kFirstTypeId = 0x7100;
  static constexpr uint64_t kMinOps = 4;
  static constexpr uint64_t kMaxOps = 12;
  static constexpr uint64_t kMinBytes = 16;
  static constexpr uint64_t kMaxBytes = 256;
  static constexpr uint64_t kCrashPeriod = 400;

  struct Entry {
    uint32_t type = 0;  // index into tdos_
    std::vector<uint8_t> bytes;
  };

  static std::string NameOf(uint32_t name) { return "obj-" + std::to_string(name); }

  void BootOn(SpanName span) {
    SystemConfig config = Config(1, observed_);
    config.stable_store = &device_;
    system_ = Boot(env_, config, span);
    Scope scope(env_.spans, SpanName::kOsTypes);
    for (uint32_t t = 0; t < kTypes; ++t) {
      tdos_[t] = system_->types().CreateTypeDefinition(kFirstTypeId + t).value();
    }
    AddRoots(*system_, std::vector<AccessDescriptor>(tdos_, tdos_ + kTypes));
  }

  uint64_t Digest() {
    Scope scope(env_.spans, SpanName::kFilingDigest);
    return system_->filing().StateDigest();
  }

  bool FileOne(uint32_t name) {
    System& system = *system_;
    Entry entry;
    entry.type = static_cast<uint32_t>(rng_.NextBelow(kTypes));
    entry.bytes.resize(rng_.NextInRange(kMinBytes, kMaxBytes));
    for (uint8_t& byte : entry.bytes) {
      byte = static_cast<uint8_t>(rng_.Next());
    }
    uint32_t size = static_cast<uint32_t>(entry.bytes.size());
    Result<AccessDescriptor> object = [&] {
      Scope scope(env_.spans, SpanName::kMemoryCreate);
      return system.types().CreateTypedObject(tdos_[entry.type], system.memory().global_heap(),
                                              size, 0, kReadWriteDelete);
    }();
    if (!object.ok()) {
      return false;
    }
    bool ok;
    {
      Scope scope(env_.spans, SpanName::kArchWrite);
      ok = system.machine().addressing().WriteDataBlock(object.value(), 0, entry.bytes.data(),
                                                        size).ok();
    }
    if (ok) {
      Scope scope(env_.spans, SpanName::kFilingFile);
      ok = system.filing().File(NameOf(name), object.value()).ok();
    }
    if (ok) {
      shadow_[name] = std::move(entry);
    }
    Scope scope(env_.spans, SpanName::kMemoryDestroy);
    return system.memory().DestroyObject(object.value()).ok() && ok;
  }

  bool RetrieveOne(uint32_t name) {
    System& system = *system_;
    const Entry& entry = shadow_[name];
    Result<AccessDescriptor> object = [&] {
      Scope scope(env_.spans, SpanName::kFilingRetrieve);
      return system.filing().Retrieve(NameOf(name), system.memory().global_heap(),
                                      tdos_[entry.type]);
    }();
    if (!object.ok()) {
      return false;
    }
    std::vector<uint8_t> bytes(entry.bytes.size());
    bool ok;
    {
      Scope scope(env_.spans, SpanName::kArchRead);
      ok = system.machine().addressing().ReadDataBlock(object.value(), 0, bytes.data(),
                                                       static_cast<uint32_t>(bytes.size())).ok();
    }
    ok &= bytes == entry.bytes;
    {
      Scope scope(env_.spans, SpanName::kOsTypes);
      auto type = system.types().TypeIdOf(object.value());
      ok &= type.ok() && type.value() == kFirstTypeId + entry.type;
    }
    Scope scope(env_.spans, SpanName::kMemoryDestroy);
    return system.memory().DestroyObject(object.value()).ok() && ok;
  }

  // Cuts power with this round's appends unsynced, reboots on the device and checks the
  // recovered store against the committed prefixes; the host's shadow rolls back to the
  // prefix that survived.
  bool CrashAndRecover(uint64_t appended_before, const std::vector<uint64_t>& digests,
                       const std::vector<std::pair<uint32_t, Entry>>& undo) {
    uint64_t floor = system_->journal()->durable_mutations() - appended_before;
    {
      Scope scope(env_.spans, SpanName::kFilingPowerCut);
      device_.PowerCut(static_cast<uint32_t>(rng_.Next()));
    }
    env_.meter.End(*system_);
    system_.reset();
    BootOn(SpanName::kFilingRecover);
    env_.meter.totals().recoveries += 1;
    env_.meter.totals().replayed_records += system_->journal()->stats().replayed_records;
    env_.meter.Begin(*system_);

    bool ok = system_->filing_recovery_status().ok();
    uint64_t recovered = Digest();
    size_t prefix = digests.size();
    for (size_t k = floor; k < digests.size(); ++k) {
      if (digests[k] == recovered) {
        prefix = k;
        break;
      }
    }
    if (prefix == digests.size()) {
      return false;
    }
    for (size_t k = undo.size(); k > prefix; --k) {
      shadow_[undo[k - 1].first] = undo[k - 1].second;
    }
    return ok;
  }

  Xorshift rng_;
  Env& env_;
  bool observed_;
  StableStore device_;  // outlives every System booted on it
  std::unique_ptr<System> system_;
  AccessDescriptor tdos_[kTypes];
  Entry shadow_[kNames];
  uint32_t cursor_ = 0;
  uint64_t rounds_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"rpc", "churn", "filing"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, Env* env,
                                       bool observed) {
  if (name == "rpc") {
    return std::make_unique<RpcWorkload>(seed, env, observed);
  }
  if (name == "churn") {
    return std::make_unique<ChurnWorkload>(seed, env, observed);
  }
  if (name == "filing") {
    return std::make_unique<FilingWorkload>(seed, env, observed);
  }
  return nullptr;
}

void RunToIdle(System& system, Env& env) {
  Scope scope(env.spans, SpanName::kExecRun);
  env.meter.totals().events += system.machine().events().RunUntilIdle();
}

}  // namespace perfbench
