// Cycle-latency histograms with power-of-two buckets.
//
// Latencies in the simulator span five orders of magnitude (a 184-cycle send to a
// multi-million-cycle GC-stalled port wait), so linear buckets are useless; power-of-two
// buckets give constant-time Record() and a usable distribution at every scale. Bucket 0
// holds exactly the value 0 (a dispatch with no queueing, a zero-cost wait); bucket i >= 1
// holds values v with floor(log2(v)) == i - 1; the last bucket is open-ended.
//
// Recording is always on (a handful of adds per kernel event — too cheap to gate); only the
// TraceRecorder ring is opt-in.

#ifndef IMAX432_SRC_OBS_HISTOGRAM_H_
#define IMAX432_SRC_OBS_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/arch/types.h"

namespace imax432 {

class Histogram {
 public:
  // 1 zero bucket + 25 power-of-two buckets: last covers [2^24, inf) = 2+ seconds of
  // virtual time at 8 MHz, beyond any latency the cycle model can produce in one run.
  static constexpr size_t kBuckets = 26;

  void Record(Cycles value) {
    ++buckets_[BucketFor(value)];
    ++count_;
    sum_ += value;
    if (count_ == 1 || value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  static size_t BucketFor(Cycles value) {
    if (value == 0) return 0;
    // floor(log2(value)) via the bit width; clamp into the open-ended last bucket.
    size_t log2 = 63 - static_cast<size_t>(__builtin_clzll(value));
    size_t bucket = log2 + 1;
    return bucket < kBuckets ? bucket : kBuckets - 1;
  }

  // Inclusive lower bound of a bucket: 0, 1, 2, 4, 8, ...
  static Cycles BucketLowerBound(size_t bucket) {
    return bucket == 0 ? 0 : (Cycles{1} << (bucket - 1));
  }

  uint64_t count() const { return count_; }
  Cycles sum() const { return sum_; }
  Cycles min() const { return count_ == 0 ? 0 : min_; }
  Cycles max() const { return max_; }
  uint64_t bucket(size_t i) const { return buckets_[i]; }

  double Mean() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_; }

  // Upper-bound estimate of the p-th percentile (p in [0, 100]): the lower bound of the
  // first bucket whose cumulative count reaches p% of the total. Good to within 2x, which
  // is all a power-of-two histogram can promise.
  Cycles Percentile(double p) const {
    if (count_ == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(p / 100.0 * count_);
    if (rank < 1) rank = 1;
    if (rank > count_) rank = count_;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= rank) return BucketLowerBound(i);
    }
    return max_;
  }

  void Reset() {
    buckets_.fill(0);
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
  }

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  Cycles sum_ = 0;
  Cycles min_ = 0;
  Cycles max_ = 0;
};

// The four kernel latency distributions, fed by the observer bus (src/obs/observer_bus.h).
struct LatencyHistograms {
  Histogram port_wait;         // block -> unblock, per process
  Histogram dispatch_latency;  // dispatch decision -> process running (incl. bus wait)
  Histogram domain_call;       // inter-domain call -> matching return (residence time)
  Histogram allocation;        // modeled cost of each CreateObject

  void Reset() {
    port_wait.Reset();
    dispatch_latency.Reset();
    domain_call.Reset();
    allocation.Reset();
  }
};

}  // namespace imax432

#endif  // IMAX432_SRC_OBS_HISTOGRAM_H_
