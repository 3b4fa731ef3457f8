// Host-speed reference: a fixed piece of ordinary C++ the benchmark times next to the
// emulator, so that end-to-end times can be scaled to one host speed.
//
// The benchmark shares its host with other guests. Their load changes how fast the same
// code runs by up to 1.7x, for seconds to minutes at a time (measured on a 4-vCPU KVM guest
// of an Intel Xeon Sapphire Rapids host), which is far more than the regressions the
// benchmark must catch. Such load slows the emulator and this reference by similar
// factors, so the benchmark runs the reference after every short slice of work and scales
// the slice's CPU time by kReferenceNs / (the reference's CPU time around it).
//
// The reference is a small discrete-event loop (a priority queue of timed events whose
// handlers are std::function callbacks) followed by heap allocation churn. On that host its
// time tracked the emulator's more closely than hash maps, sorting, string formatting,
// virtual calls, pointer chasing or arithmetic loops did. It never changes with the
// emulator, so a change to src/ moves scaled and raw times by the same ratio.

#ifndef IMAX432_PERFBENCH_REFERENCE_H_
#define IMAX432_PERFBENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// The median CPU time of Run() over the runs the scaling was tuned on (host named above);
// scaled times are in seconds of a host running at that speed.
constexpr double kReferenceNs = 2.0e6;

class Reference {
 public:
  Reference();
  // Runs the fixed work twice, the first time to bring its data back into the caches, and
  // returns the thread CPU time of the second pass in nanoseconds.
  int64_t Run();

 private:
  uint64_t Pass();

  std::vector<uint32_t> keys_;
};

// Sequence of work slices, each followed by a reference run.
class SpeedLog {
 public:
  void Add(int64_t work_ns, int64_t reference_ns) {
    slices_.push_back({work_ns, reference_ns});
  }
  size_t size() const { return slices_.size(); }
  int64_t work_ns(size_t i) const { return slices_[i].work_ns; }
  // kReferenceNs over the median reference time of the slices within kSmoothing of `i`
  // (the median keeps one disturbed reference run from scaling a slice).
  double Scale(size_t i) const;
  // Work time of slice `i` scaled to the reference host.
  double ScaledNs(size_t i) const { return static_cast<double>(slices_[i].work_ns) * Scale(i); }
  double MedianReferenceNs() const;

 private:
  static constexpr size_t kSmoothing = 2;
  struct Slice {
    int64_t work_ns;
    int64_t reference_ns;
  };
  std::vector<Slice> slices_;
};

}  // namespace perfbench

#endif  // IMAX432_PERFBENCH_REFERENCE_H_
