#include "perfbench/reference.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <utility>

#include "perfbench/perfbench.h"
#include "src/base/xorshift.h"

namespace perfbench {

namespace {

constexpr uint32_t kKeys = 1 << 12;
constexpr uint32_t kHandlers = 64;
constexpr uint32_t kEvents = 25000;
constexpr uint32_t kLiveBlocks = 512;
constexpr uint32_t kAllocations = 12000;

// Keeps the passes from being optimised away.
volatile uint64_t g_sink = 0;

}  // namespace

Reference::Reference() {
  imax432::Xorshift rng(0x5eed);
  keys_.resize(kKeys);
  for (uint32_t& key : keys_) {
    key = static_cast<uint32_t>(rng.Next());
  }
}

int64_t Reference::Run() {
  g_sink = g_sink + Pass();
  int64_t start = CpuNs();
  g_sink = g_sink + Pass();
  return CpuNs() - start;
}

uint64_t Reference::Pass() {
  uint64_t fold = 0;
  using Event = std::pair<uint64_t, uint32_t>;  // (time, handler)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::vector<std::function<uint64_t(uint64_t)>> handlers;
  for (uint32_t i = 0; i < kHandlers; ++i) {
    uint64_t key = keys_[i];
    handlers.push_back([key](uint64_t time) { return time * key + 1; });
    queue.push({key, i});
  }
  for (uint32_t i = 0; i < kEvents; ++i) {
    Event event = queue.top();
    queue.pop();
    fold += handlers[event.second](event.first);
    queue.push({event.first + (keys_[i % kKeys] & 1023) + 1, event.second});
  }

  std::vector<std::unique_ptr<std::vector<uint64_t>>> live(kLiveBlocks);
  for (uint32_t i = 0; i < kAllocations; ++i) {
    uint32_t key = keys_[i % kKeys];
    live[key % kLiveBlocks] = std::make_unique<std::vector<uint64_t>>(1 + (key >> 9) % 48, key);
    const auto& other = live[(key >> 3) % kLiveBlocks];
    fold += other ? other->size() : 0;
  }
  return fold;
}

double SpeedLog::Scale(size_t i) const {
  size_t lo = i >= kSmoothing ? i - kSmoothing : 0;
  size_t hi = std::min(i + kSmoothing + 1, slices_.size());
  std::vector<int64_t> near;
  for (size_t j = lo; j < hi; ++j) {
    near.push_back(slices_[j].reference_ns);
  }
  std::nth_element(near.begin(), near.begin() + near.size() / 2, near.end());
  return kReferenceNs / static_cast<double>(near[near.size() / 2]);
}

double SpeedLog::MedianReferenceNs() const {
  std::vector<int64_t> all;
  for (const Slice& slice : slices_) {
    all.push_back(slice.reference_ns);
  }
  if (all.empty()) {
    return 0;
  }
  std::nth_element(all.begin(), all.begin() + all.size() / 2, all.end());
  return static_cast<double>(all[all.size() / 2]);
}

}  // namespace perfbench
