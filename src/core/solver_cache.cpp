#include "core/solver_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <tuple>
#include <utility>

#include "lp/param_space.hpp"
#include "obs/metrics.hpp"

namespace llamp::core {
namespace {

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

template <typename V, std::size_t N, typename Compute>
V SolverCache::Entry::memoized(Memo<V, N>& memo, const Key<N>& key,
                               Compute&& compute) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
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
  const std::lock_guard<std::mutex> lock(mutex_);
  store(memo, key, value);
  return value;
}

bool SolverCache::Entry::charge(std::size_t bytes) {
  if (bytes_ + bytes > kMemoBudgetBytes) {
    owner_->budget_refused_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  bytes_ += bytes;
  return true;
}

template <typename V, std::size_t N>
void SolverCache::Entry::store(Memo<V, N>& memo, const Key<N>& key,
                               const V& value) {
  const std::size_t bytes = sizeof(key) + payload_bytes(value);
  if (memo.find(key) == memo.end() && charge(bytes)) {
    memo.emplace(key, value);
    owner_->memo_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
}

namespace {
/// (active, at) order of the entry's anchor vector.
bool anchor_before(int ka, double xa, int kb, double xb) {
  return ka != kb ? ka < kb : xa < xb;
}
}  // namespace

const SolverCache::Entry::AnchorPtr* SolverCache::Entry::covering(
    int k, double x) const {
  const auto it = std::upper_bound(
      anchors_.begin(), anchors_.end(), x, [k](double v, const AnchorPtr& a) {
        return anchor_before(k, v, a->solution.active, a->solution.at);
      });
  if (it == anchors_.begin()) return nullptr;
  const AnchorPtr& a = *std::prev(it);
  return a->covers(k, x) ? &a : nullptr;
}

bool SolverCache::Entry::publish(const AnchorPtr& a) {
  const lp::LoweredProblem::Solution& s = a->solution;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto pos = std::lower_bound(
      anchors_.begin(), anchors_.end(), a, [](const AnchorPtr& l,
                                              const AnchorPtr& r) {
        return anchor_before(l->solution.active, l->solution.at,
                             r->solution.active, r->solution.at);
      });
  if (pos != anchors_.end() && (*pos)->solution.active == s.active &&
      (*pos)->solution.at == s.at) {
    return true;  // another thread published this point first
  }
  // Payload accounting by element size, not vector capacity — capacities
  // depend on the allocator's growth history, sizes only on the published
  // anchor set (deterministic per request sequence).
  const std::size_t bytes = sizeof(lp::LoweredProblem::AnchorState) +
                            a->chain.size() * sizeof(std::uint32_t) +
                            s.gradient.size() * sizeof(double);
  if (!charge(bytes)) return false;
  owner_->anchor_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  anchors_.insert(pos, a);
  return true;
}

std::pair<SolverCache::Entry::AnchorPtr, bool>
SolverCache::Entry::solve_anchor(int k, double x,
                                 lp::LoweredProblem::Cursor& cur) {
  // Dense solve, then publish the anchor so later queries in this basis
  // piece (from any thread) replay instead.
  (void)prob_->solve(k, x, cur);
  owner_->anchor_solves_.fetch_add(1, std::memory_order_relaxed);
  auto fresh = std::make_shared<lp::LoweredProblem::AnchorState>();
  prob_->save_anchor(cur, *fresh);
  const bool stored = std::isfinite(fresh->solution.value) && publish(fresh);
  return {std::move(fresh), stored};
}

std::shared_ptr<const lp::LoweredProblem::AnchorState>
SolverCache::Entry::anchor(int k, double x, lp::LoweredProblem::Cursor& cur) {
  // Warm path: a published anchor whose stability zone covers x selects
  // the dense solve's critical path and replays bitwise identically to it
  // (see the class contract), so which of several overlapping anchors
  // serves x cannot change the served bytes.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const AnchorPtr* a = covering(k, x)) {
      owner_->replays_.fetch_add(1, std::memory_order_relaxed);
      return *a;
    }
  }
  return solve_anchor(k, x, cur).first;
}

void SolverCache::Entry::eval_batch(int k, const double* xs, std::size_t n,
                                    lp::LoweredProblem::Cursor& cur,
                                    lp::LoweredProblem::BatchPoint* out) {
  lp::LoweredProblem::Cursor::LaneGather& gather = cur.gather;
  gather.grow(n);
  // Covered lanes keep a raw pointer past the lock: anchors are never
  // dropped, so the published state outlives the call.
  std::size_t m = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < n; ++i) {
      const AnchorPtr* a = covering(k, xs[i]);
      gather.anchor[i] = a != nullptr ? a->get() : nullptr;
      if (a == nullptr) gather.lane[m++] = static_cast<std::uint32_t>(i);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (gather.anchor[i] != nullptr) {
      out[i] = prob_->replay_anchor(*gather.anchor[i], k, xs[i]);
    }
  }
  std::size_t replays = n - m;

  // Uncovered lanes in ascending x (NaN last, keeping the order strict),
  // so each dense solve's zone serves the lanes above it.  Once an anchor
  // is not stored, the rest of the lanes are solve_batch's own.
  std::uint32_t* const lane = gather.lane.data();
  std::sort(lane, lane + m, [&](std::uint32_t a, std::uint32_t b) {
    return xs[a] < xs[b] || (std::isnan(xs[b]) && !std::isnan(xs[a]));
  });
  AnchorPtr fresh;
  std::size_t j = 0;
  while (j < m) {
    const double x = xs[lane[j]];
    if (fresh && fresh->covers(k, x)) {
      out[lane[j++]] = prob_->replay_anchor(*fresh, k, x);
      ++replays;
      continue;
    }
    bool stored = false;
    std::tie(fresh, stored) = solve_anchor(k, x, cur);
    const lp::LoweredProblem::Solution& s = fresh->solution;
    out[lane[j++]] = {s.value, s.gradient[static_cast<std::size_t>(k)]};
    if (!stored) break;
  }
  owner_->replays_.fetch_add(replays, std::memory_order_relaxed);
  std::size_t rest = 0;
  for (; j < m; ++j, ++rest) {
    lane[rest] = lane[j];
    gather.from[rest] = xs[lane[j]];
  }
  if (rest == 0) return;
  prob_->solve_batch(k, gather.from.data(), rest, cur, gather.at.data());
  for (std::size_t r = 0; r < rest; ++r) out[lane[r]] = gather.at[r];
}

std::vector<double> SolverCache::Entry::critical_values_algorithm2(
    int k, double lo, double hi, double step, double eps) {
  return memoized(algorithm2_memo_, memo_key(k, {lo, hi, step, eps}), [&] {
    return prob_->critical_values_algorithm2(k, lo, hi, step, eps);
  });
}

void SolverCache::Entry::max_param_for_budget_from_batch(
    int k, const double* from, const double* budget, std::size_t n,
    lp::LoweredProblem::Cursor& cur, double* out) {
  lp::LoweredProblem::Cursor::LaneGather& miss = cur.gather;
  miss.grow(n);
  std::size_t m = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = budget_memo_.find(memo_key(k, {from[i], budget[i]}));
      if (it != budget_memo_.end()) {
        out[i] = it->second;
        continue;
      }
      miss.lane[m] = static_cast<std::uint32_t>(i);
      miss.from[m] = from[i];
      miss.budget[m] = budget[i];
      ++m;
    }
  }
  owner_->memo_hits_.fetch_add(n - m, std::memory_order_relaxed);
  if (m == 0) return;
  owner_->memo_misses_.fetch_add(m, std::memory_order_relaxed);
  // Adjacent misses sharing a `from` (mc's bands of one sample) share one
  // point there: the opening the search would run per lane.  Run u's
  // point lands in at[u], then is copied down its run from the back, where
  // run u never reads a slot a later run has overwritten.
  const auto run_start = [&](std::size_t j) {
    return j == 0 || std::bit_cast<std::uint64_t>(miss.from[j]) !=
                         std::bit_cast<std::uint64_t>(miss.from[j - 1]);
  };
  std::size_t u = 0;
  for (std::size_t j = 0; j < m; ++j) {
    if (run_start(j)) miss.out[u++] = miss.from[j];
  }
  prob_->solve_batch_points(k, miss.out.data(), u, cur, miss.at.data());
  for (std::size_t j = m; j-- > 0;) {
    miss.at[j] = miss.at[u - 1];
    if (run_start(j)) --u;
  }
  // Hits never throw (throws are not stored), so the pooled call's
  // lowest-lane-first error is the whole call's.
  prob_->max_param_for_budget_from_batch(k, miss.from.data(),
                                         miss.budget.data(), m, cur,
                                         miss.out.data(), miss.at.data());
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t j = 0; j < m; ++j) {
    out[miss.lane[j]] = miss.out[j];
    store(budget_memo_, memo_key(k, {miss.from[j], miss.budget[j]}),
          miss.out[j]);
  }
}

std::vector<double> SolverCache::Entry::rows(
    RowOp op, std::initializer_list<double> inputs,
    const std::function<std::vector<double>()>& compute) {
  RowKey key{static_cast<std::uint64_t>(op)};
  std::size_t slot = 1;
  for (const double x : inputs) {
    key.at(slot++) = std::bit_cast<std::uint64_t>(x);
  }
  return memoized(row_memo_, key, compute);
}

std::size_t SolverCache::Entry::anchor_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return anchors_.size();
}

std::shared_ptr<SolverCache::Entry> SolverCache::entry(
    const GraphKey& key, const loggops::Params& p) {
  SolverKey skey{key,
                 {std::bit_cast<std::uint64_t>(p.L),
                  std::bit_cast<std::uint64_t>(p.o),
                  std::bit_cast<std::uint64_t>(p.g),
                  std::bit_cast<std::uint64_t>(p.G),
                  std::bit_cast<std::uint64_t>(p.O), p.S}};
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& entry = entries_[std::move(skey)];
  if (!entry) {
    entry = std::shared_ptr<Entry>(new Entry());
    entry->owner_ = this;
  }
  return entry;
}

std::shared_ptr<SolverCache::Entry> SolverCache::latency(
    const GraphKey& key, const graph::Graph& g, const loggops::Params& p) {
  const std::shared_ptr<Entry> entry = this->entry(key, p);
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
          memo_bytes_.load(std::memory_order_relaxed),
          budget_refused_.load(std::memory_order_relaxed)};
}

std::vector<std::pair<std::string, std::uint64_t>>
SolverCache::Stats::fields() const {
  return {{"built", built},
          {"hits", hits},
          {"anchor_solves", anchor_solves},
          {"replays", replays},
          {"anchor_bytes", anchor_bytes},
          {"memo_hits", memo_hits},
          {"memo_misses", memo_misses},
          {"memo_bytes", memo_bytes},
          {"budget_refused", budget_refused}};
}

std::string SolverCache::stats_string() const {
  return obs::stats_line("solvers", stats().fields());
}

}  // namespace llamp::core
