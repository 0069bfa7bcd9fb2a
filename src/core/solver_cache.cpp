#include "core/solver_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "lp/param_space.hpp"
#include "obs/metrics.hpp"
#include "util/strings.hpp"

namespace llamp::core {
namespace {

/// Round-trip-exact fingerprint: %.17g reproduces any double bit for bit,
/// so two fingerprints compare equal iff the lowered cost arrays would.
std::string latency_fingerprint(const loggops::Params& p) {
  return strformat("latency;L=%.17g;o=%.17g;g=%.17g;G=%.17g;O=%.17g;S=%llu",
                   p.L, p.o, p.g, p.G, p.O,
                   static_cast<unsigned long long>(p.S));
}

/// Payload bytes of one stored memo result, by element size (not
/// capacity), mirroring the anchor accounting.
std::size_t payload_bytes(const std::vector<double>& v) {
  return sizeof(v) + v.size() * sizeof(double);
}
std::size_t payload_bytes(double) { return sizeof(double); }

}  // namespace

SolverCache::Entry::MemoKey SolverCache::Entry::memo_key(
    int k, std::initializer_list<double> xs) {
  MemoKey key{static_cast<std::uint64_t>(static_cast<std::uint32_t>(k))};
  std::size_t slot = 1;
  for (const double x : xs) key[slot++] = std::bit_cast<std::uint64_t>(x);
  return key;
}

template <typename V, typename Compute>
V SolverCache::Entry::memoized(Memo<V>& memo, const MemoKey& key,
                               Compute&& compute) {
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    const auto it = memo.find(key);
    if (it != memo.end()) {
      owner_->memo_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  owner_->memo_misses_.fetch_add(1, std::memory_order_relaxed);
  // Computed outside the lock: a throw propagates from here, before
  // anything is stored.  Two threads racing one key both compute the same
  // bits; the first insert wins and the other is a no-op.
  V value = compute();
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  store(memo, key, value);
  return value;
}

template <typename V>
void SolverCache::Entry::store(Memo<V>& memo, const MemoKey& key,
                               const V& value) {
  const std::size_t bytes = sizeof(MemoKey) + payload_bytes(value);
  if (memo_bytes_ + bytes <= kMemoBudgetBytes &&
      memo.try_emplace(key, value).second) {
    memo_bytes_ += bytes;
    owner_->memo_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
}

std::shared_ptr<const lp::LoweredProblem::AnchorState>
SolverCache::Entry::anchor(int k, double x, lp::LoweredProblem::Cursor& cur) {
  // Warm path: any published anchor whose stability zone covers x selects
  // the dense solve's critical path and replays bitwise identically to it
  // (see the class contract), so the first covering anchor found is as
  // good as any other — overlapping zones cannot make the served bytes
  // depend on scan order.
  {
    const std::lock_guard<std::mutex> lock(anchor_mutex_);
    for (const auto& a : anchors_) {
      if (a->covers(k, x)) {
        owner_->replays_.fetch_add(1, std::memory_order_relaxed);
        return a;
      }
    }
  }

  // Cold path: dense solve, then publish the anchor so later queries in
  // this basis piece (from any thread) replay instead.
  (void)prob_->solve(k, x, cur);
  owner_->anchor_solves_.fetch_add(1, std::memory_order_relaxed);
  auto fresh = std::make_shared<lp::LoweredProblem::AnchorState>();
  prob_->save_anchor(cur, *fresh);
  const std::lock_guard<std::mutex> lock(anchor_mutex_);
  if (anchors_.size() < kMaxAnchors) {
    const auto pos = std::lower_bound(
        anchors_.begin(), anchors_.end(), fresh,
        [](const auto& a, const auto& b) {
          if (a->solution.active != b->solution.active) {
            return a->solution.active < b->solution.active;
          }
          return a->solution.at < b->solution.at;
        });
    if (pos == anchors_.end() ||
        (*pos)->solution.active != fresh->solution.active ||
        (*pos)->solution.at != fresh->solution.at) {
      // Payload accounting by element size, not vector capacity —
      // capacities depend on the allocator's growth history, sizes only
      // on the published anchor set (deterministic per request sequence).
      owner_->anchor_bytes_.fetch_add(
          sizeof(lp::LoweredProblem::AnchorState) +
              fresh->chain.size() * sizeof(std::uint32_t) +
              fresh->solution.gradient.size() * sizeof(double),
          std::memory_order_relaxed);
      anchors_.insert(pos, fresh);
    }
  }
  return fresh;
}

lp::LoweredProblem::SweepEval SolverCache::Entry::eval(
    int k, double x, lp::LoweredProblem::Cursor& cur) {
  // At a fresh anchor's own point the replay returns the stored solve.
  return prob_->replay_anchor(*anchor(k, x, cur), k, x);
}

std::vector<double> SolverCache::Entry::critical_values_algorithm2(
    int k, double lo, double hi, double step, double eps) {
  return memoized(algorithm2_memo_, memo_key(k, {lo, hi, step, eps}), [&] {
    return prob_->critical_values_algorithm2(k, lo, hi, step, eps);
  });
}

double SolverCache::Entry::max_param_for_budget_from(
    int k, double from, double budget, lp::LoweredProblem::Cursor& cur) {
  return memoized(budget_memo_, memo_key(k, {from, budget}), [&] {
    return prob_->max_param_for_budget_from(k, from, budget, cur);
  });
}

void SolverCache::Entry::max_param_for_budget_from_batch(
    int k, const double* from, const double* budget, std::size_t n,
    lp::LoweredProblem::Cursor& cur, double* out,
    const lp::LoweredProblem::BatchPoint* at_from) {
  lp::LoweredProblem::Cursor::LaneGather& miss = cur.gather;
  if (miss.lane.size() < n) {
    miss.lane.resize(n);
    miss.from.resize(n);
    miss.budget.resize(n);
    miss.at.resize(n);
    miss.out.resize(n);
  }
  std::size_t m = 0;
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = budget_memo_.find(memo_key(k, {from[i], budget[i]}));
      if (it != budget_memo_.end()) {
        out[i] = it->second;
        continue;
      }
      miss.lane[m] = static_cast<std::uint32_t>(i);
      miss.from[m] = from[i];
      miss.budget[m] = budget[i];
      if (at_from != nullptr) miss.at[m] = at_from[i];
      ++m;
    }
  }
  owner_->memo_hits_.fetch_add(n - m, std::memory_order_relaxed);
  if (m == 0) return;
  owner_->memo_misses_.fetch_add(m, std::memory_order_relaxed);
  // Hits never throw (throws are not stored), so the pooled call's
  // lowest-lane-first error is the whole call's.
  prob_->max_param_for_budget_from_batch(
      k, miss.from.data(), miss.budget.data(), m, cur, miss.out.data(),
      at_from != nullptr ? miss.at.data() : nullptr);
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  for (std::size_t j = 0; j < m; ++j) {
    out[miss.lane[j]] = miss.out[j];
    store(budget_memo_, memo_key(k, {miss.from[j], miss.budget[j]}),
          miss.out[j]);
  }
}

std::size_t SolverCache::Entry::anchor_count() const {
  const std::lock_guard<std::mutex> lock(anchor_mutex_);
  return anchors_.size();
}

std::shared_ptr<SolverCache::Entry> SolverCache::entry_for(
    const SolverKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& entry = entries_[key];
  if (!entry) {
    entry = std::shared_ptr<Entry>(new Entry());
    entry->owner_ = this;
  }
  return entry;
}

std::shared_ptr<SolverCache::Entry> SolverCache::latency(
    const GraphKey& key, const graph::Graph& g, const loggops::Params& p) {
  const std::shared_ptr<Entry> entry = entry_for({key, latency_fingerprint(p)});
  // Per-key lock, GraphCache-style: concurrent first touches of one key
  // lower it once; lowerings of distinct keys proceed in parallel (the map
  // mutex is never held across a lowering).
  const std::lock_guard<std::mutex> lock(entry->build_mutex_);
  if (entry->prob_) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    entry->prob_ = std::make_shared<const lp::LoweredProblem>(
        g, std::make_shared<lp::LatencyParamSpace>(p));
    built_.fetch_add(1, std::memory_order_relaxed);
  }
  return entry;
}

SolverCache::Stats SolverCache::stats() const {
  return {built_.load(std::memory_order_relaxed),
          hits_.load(std::memory_order_relaxed),
          anchor_solves_.load(std::memory_order_relaxed),
          replays_.load(std::memory_order_relaxed),
          anchor_bytes_.load(std::memory_order_relaxed),
          memo_hits_.load(std::memory_order_relaxed),
          memo_misses_.load(std::memory_order_relaxed),
          memo_bytes_.load(std::memory_order_relaxed)};
}

std::string SolverCache::stats_string() const {
  const Stats s = stats();
  return obs::stats_line("solvers", {{"built", s.built},
                                     {"hits", s.hits},
                                     {"anchor_solves", s.anchor_solves},
                                     {"replays", s.replays},
                                     {"anchor_bytes", s.anchor_bytes},
                                     {"memo_hits", s.memo_hits},
                                     {"memo_misses", s.memo_misses},
                                     {"memo_bytes", s.memo_bytes}});
}

}  // namespace llamp::core
