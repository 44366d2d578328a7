// The one telemetry store of raxh_obs (internal; metrics.h includes it
// because JobObs embeds it).
//
// A Tally holds every counter and latency histogram of one thread (obs.cpp's
// registry) or one job (JobObs); snapshots are folds over tallies. The
// Writers argument states the memory semantics: a thread block has one
// writer, its owner, so adds are a relaxed load+store (no lock prefix); a
// job block is shared by the job's threads, so adds are fetch_adds and the
// max is a CAS loop. Readers use relaxed loads, so a mid-run snapshot is
// exact to within in-flight events.
//
// SpanRing is the one bounded span buffer (thread rings, the phase track and
// job rings). Callers hold their own lock around it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/hist.h"
#include "obs/obs.h"

namespace raxh::obs::detail {

enum class Writers { kOwner, kShared };

template <Writers W>
inline void bump(std::atomic<std::uint64_t>& slot, std::uint64_t n) {
  if constexpr (W == Writers::kOwner)
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  else
    slot.fetch_add(n, std::memory_order_relaxed);
}

// Padded so no two threads' blocks share a cache line.
struct alignas(64) Tally {
  struct HistSlots {
    std::atomic<std::uint64_t> buckets[kHistBuckets] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_ns{0};
    std::atomic<std::uint64_t> max_ns{0};
  };
  std::atomic<std::uint64_t> counters[kNumCounters] = {};
  HistSlots hists[kNumHists];

  template <Writers W>
  void add_count(Counter c, std::uint64_t n) {
    bump<W>(counters[static_cast<int>(c)], n);
  }
  template <Writers W>
  void add_hist(Hist h, std::uint64_t ns) {
    HistSlots& s = hists[static_cast<int>(h)];
    bump<W>(s.buckets[hist_bucket(ns)], 1);
    bump<W>(s.count, 1);
    bump<W>(s.sum_ns, ns);
    std::uint64_t cur = s.max_ns.load(std::memory_order_relaxed);
    if constexpr (W == Writers::kOwner) {
      if (ns > cur) s.max_ns.store(ns, std::memory_order_relaxed);
    } else {
      while (ns > cur && !s.max_ns.compare_exchange_weak(
                             cur, ns, std::memory_order_relaxed)) {
      }
    }
  }

  // Folds this block into a snapshot: sums, and the max of the maxima.
  void fold_counters(CounterSnapshot& into) const {
    for (int i = 0; i < kNumCounters; ++i)
      into.values[i] += counters[i].load(std::memory_order_relaxed);
  }
  void fold_hist(Hist h, HistSnapshot& into) const {
    const HistSlots& s = hists[static_cast<int>(h)];
    for (int i = 0; i < kHistBuckets; ++i)
      into.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    into.count += s.count.load(std::memory_order_relaxed);
    into.sum_ns += s.sum_ns.load(std::memory_order_relaxed);
    into.max_ns =
        std::max(into.max_ns, s.max_ns.load(std::memory_order_relaxed));
  }

  void clear_hists() {
    for (HistSlots& s : hists) {
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
      s.count.store(0, std::memory_order_relaxed);
      s.sum_ns.store(0, std::memory_order_relaxed);
      s.max_ns.store(0, std::memory_order_relaxed);
    }
  }
  void clear() {
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
    clear_hists();
  }
};

template <class Event>
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity) : capacity_(capacity) {}

  // Returns true when the push evicted the oldest event.
  bool push(Event e) {
    if (events_.size() < capacity_) {
      events_.push_back(std::move(e));
      return false;
    }
    events_[next_] = std::move(e);
    next_ = (next_ + 1) % capacity_;
    ++dropped_;
    return true;
  }

  // Oldest first: [next_, end) then [0, next_) once the ring has wrapped
  // (next_ stays 0 until then).
  template <class F>
  void visit(F&& f) const {
    const std::size_t n = events_.size();
    for (std::size_t i = 0; i < n; ++i) f(events_[(next_ + i) % n]);
  }

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  void clear() {
    events_.clear();
    next_ = 0;
    dropped_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<Event> events_;  // grows to capacity_, then wraps
  std::size_t next_ = 0;       // oldest event once full
  std::uint64_t dropped_ = 0;
};

}  // namespace raxh::obs::detail
