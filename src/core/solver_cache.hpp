#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/graph_cache.hpp"
#include "loggops/params.hpp"
#include "lp/parametric.hpp"

namespace llamp::core {

/// The key under which a lowered parametric LP is shared: the execution
/// graph's key plus a fingerprint of its LatencyParamSpace — the exact
/// value of every parameter that enters the lowering (L/o/g/G/O/S),
/// formatted round-trip exact.  Two requests whose resolved scenarios
/// print the same fingerprint lower bit-identical cost arrays, so they may
/// share one LoweredProblem.
struct SolverKey {
  GraphKey graph;
  std::string space;

  friend bool operator<(const SolverKey& a, const SolverKey& b) {
    if (a.graph < b.graph) return true;
    if (b.graph < a.graph) return false;
    return a.space < b.space;
  }
  friend bool operator==(const SolverKey& a, const SolverKey& b) {
    return a.graph == b.graph && a.space == b.space;
  }
};

/// Thread-safe build-once cache of lowered parametric LPs plus their
/// reusable anchor state, living beside GraphCache in an api::Engine
/// session (DESIGN.md §4e).  Three levels of reuse:
///
///  * the **lowering** — the immutable lp::LoweredProblem (the flat
///    latency lowering; one space kind, so one lowering per scenario) is
///    built once per key and shared by every later request and every
///    thread;
///  * the **anchor state** — each entry keeps a bounded set of
///    AnchorState snapshots published by past dense solves, so a point
///    query landing inside a known stability zone (or repeating an anchor
///    point, like the base-L anchor whose critical path λ_G sums) is
///    served by critical-path replay (microseconds) instead of a full
///    forward pass;
///  * the **memos** — exact-input results of the calls replay cannot
///    serve: Algorithm 2 and the tolerance search, so a repeated report
///    costs lookups only.  One tolerance memo serves the scalar search
///    (analyze, campaign cells) and the pooled one (mc's band searches):
///    both compute the same bits on an entry's integer-coefficient space,
///    so a key stored by either is a hit for both.  Both memos of an entry
///    share one byte budget, kMemoBudgetBytes.
///
/// Determinism contract: replay from *any* covering anchor is bitwise
/// identical to a dense solve at that point (the PR 3 segment-walk
/// equivalence, pinned by the hot-path test wall), and a memo hit returns
/// the stored result of the very same computation (keys are the inputs'
/// bit patterns), so an entry's answers can never depend on the cache
/// being cold, warm, shared across threads, or on which of several
/// overlapping anchors serves the query.  Response bytes must never
/// include the cache's counters.
///
/// Invalidation: there is none, by construction.  Graphs are immutable and
/// never evicted from GraphCache, and the fingerprint pins every input of
/// the lowering, so a key fully determines its problem forever.  Entries
/// hold no back-reference to the graph beyond the one the caller passed;
/// the caller must pass the graph cached under `key.graph` (the GraphCache
/// contract keeps it alive for the session).  Entries must not outlive the
/// cache that created them.
class SolverCache {
 public:
  SolverCache() = default;
  SolverCache(const SolverCache&) = delete;
  SolverCache& operator=(const SolverCache&) = delete;

  /// One cached lowering plus its anchors and memos.  Handles are shared
  /// pointers so a request can hold its entry across the whole analysis
  /// without touching the cache map again.
  class Entry {
   public:
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;

    /// The shared immutable lowering (never null once handed out).
    const std::shared_ptr<const lp::LoweredProblem>& problem() const {
      return prob_;
    }

    /// The anchor serving parameter `k` at `x`: a published anchor whose
    /// stability zone covers `x` (counted as a replay; no forward pass, no
    /// allocation), otherwise a dense solve at `x` through `cur` (an anchor
    /// solve), published for later queries while the anchor set has room.
    /// Either way its critical path is the one problem()->solve(k, x)
    /// selects, so a sum along its chain (λ_G's payload bytes) equals the
    /// dense solve's.  Safe to call concurrently from any number of
    /// threads, each with its own cursor.
    std::shared_ptr<const lp::LoweredProblem::AnchorState> anchor(
        int k, double x, lp::LoweredProblem::Cursor& cur);

    /// T and λ at `x` for parameter `k`: anchor(k, x, cur) replayed at `x`,
    /// bitwise identical to problem()->solve(k, x).
    lp::LoweredProblem::SweepEval eval(int k, double x,
                                       lp::LoweredProblem::Cursor& cur);

    /// problem()->critical_values_algorithm2(k, lo, hi, step, eps) through
    /// the entry's exact-input memo.  A hit allocates only the returned
    /// vector.
    std::vector<double> critical_values_algorithm2(int k, double lo,
                                                   double hi, double step,
                                                   double eps = 1e-6);

    /// problem()->max_param_for_budget_from(k, from, budget, cur) through
    /// the entry's exact-input memo.  A hit never touches `cur` and
    /// allocates nothing.
    double max_param_for_budget_from(int k, double from, double budget,
                                     lp::LoweredProblem::Cursor& cur);

    /// problem()->max_param_for_budget_from_batch(k, from, budget, n, cur,
    /// out, at_from) through the same memo as the scalar form: all n lanes
    /// are looked up under one lock, the misses (in lane order, with their
    /// at_from rows) run as one pooled call over cur.gather's rows, and
    /// their results are stored.  Bitwise identical to the direct pooled
    /// call and to n scalar calls.  A throwing call stores nothing and
    /// raises the lowest infeasible lane's error (hits never throw).  An
    /// all-hit call never touches the problem and allocates nothing.
    void max_param_for_budget_from_batch(
        int k, const double* from, const double* budget, std::size_t n,
        lp::LoweredProblem::Cursor& cur, double* out,
        const lp::LoweredProblem::BatchPoint* at_from = nullptr);

    /// Published anchors (observability/tests).
    std::size_t anchor_count() const;

    /// Byte budget shared by the entry's two memos, counted as
    /// Stats::memo_bytes counts them (key plus payload per stored result),
    /// with the anchor policy: results are stored first come while they
    /// fit, later ones are computed and returned but not stored, and
    /// nothing is evicted.  1 MiB holds about 21,800 tolerance results.
    static constexpr std::size_t kMemoBudgetBytes = std::size_t{1} << 20;

   private:
    friend class SolverCache;
    Entry() = default;

    /// Memo key: the parameter index followed by the bit patterns of the
    /// call's double inputs (unused slots zero).  Bits, not ==, so a hit is
    /// the same computation by construction (-0.0 and 0.0 stay distinct,
    /// and NaN cannot break the map's ordering).
    using MemoKey = std::array<std::uint64_t, 5>;
    static MemoKey memo_key(int k, std::initializer_list<double> xs);
    template <typename V>
    using Memo = std::map<MemoKey, V>;

    /// The memo protocol shared by both memos: serve a hit, or run
    /// `compute` outside the lock and store its result while the byte
    /// budget has room.  A call that throws stores nothing and throws again
    /// on the next identical call.
    template <typename V, typename Compute>
    V memoized(Memo<V>& memo, const MemoKey& key, Compute&& compute);
    /// Store `value` under `key` if it is new and fits the byte budget;
    /// memo_mutex_ must be held.
    template <typename V>
    void store(Memo<V>& memo, const MemoKey& key, const V& value);

    /// Bound on published anchors per entry: enough to blanket every CLI
    /// grid's basis pieces, small enough that the linear covering scan
    /// stays trivially cheap.  Once full, new anchors are dropped (never
    /// evicted — eviction order could vary across runs, and although
    /// replay-vs-dense bytes are identical by contract, a fixed set keeps
    /// the served path itself reproducible).
    static constexpr std::size_t kMaxAnchors = 64;

    std::mutex build_mutex_;
    std::shared_ptr<const lp::LoweredProblem> prob_;
    mutable std::mutex anchor_mutex_;
    /// Sorted by (active, at), deduplicated on exact (active, at).
    std::vector<std::shared_ptr<const lp::LoweredProblem::AnchorState>>
        anchors_;
    std::mutex memo_mutex_;  ///< guards the two memos and their bytes
    Memo<std::vector<double>> algorithm2_memo_;
    Memo<double> budget_memo_;
    std::size_t memo_bytes_ = 0;  ///< both memos, against kMemoBudgetBytes
    SolverCache* owner_ = nullptr;
  };

  /// The cached LatencyParamSpace lowering of (key, p) over `g` — `g` MUST
  /// be the graph cached under `key` (same object for the session).  Builds
  /// under a per-key lock on first use: concurrent first touches build one
  /// key once, distinct keys build in parallel.
  std::shared_ptr<Entry> latency(const GraphKey& key, const graph::Graph& g,
                                 const loggops::Params& p);

  struct Stats {
    std::size_t built = 0;          ///< lowerings constructed (misses)
    std::size_t hits = 0;           ///< lookups served an existing lowering
    std::size_t anchor_solves = 0;  ///< anchor()/eval() dense solves
    std::size_t replays = 0;        ///< anchor()/eval() served by an anchor
    std::size_t anchor_bytes = 0;   ///< payload bytes of published anchors
    std::size_t memo_hits = 0;      ///< memoized calls served from a memo
    std::size_t memo_misses = 0;    ///< memoized calls that computed
    std::size_t memo_bytes = 0;     ///< payload bytes of stored memo results
  };
  /// Cumulative statistics, GraphCache-style relaxed atomics: monotonic
  /// tallies, not an instantaneous cut across counters.  `anchor_bytes`
  /// and `memo_bytes` count payload sizes (not vector or node capacities)
  /// so the tallies are deterministic for a fixed request sequence.
  Stats stats() const;
  /// One-line human form via the shared obs::stats_line formatter, e.g.
  /// "solvers: built=2 hits=9 anchor_solves=14 replays=180 anchor_bytes=...
  /// memo_hits=... memo_misses=... memo_bytes=...".
  std::string stats_string() const;

 private:
  std::shared_ptr<Entry> entry_for(const SolverKey& key);

  std::mutex mutex_;  ///< guards entries_ only
  std::map<SolverKey, std::shared_ptr<Entry>> entries_;
  std::atomic<std::size_t> built_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> anchor_solves_{0};
  std::atomic<std::size_t> replays_{0};
  std::atomic<std::size_t> anchor_bytes_{0};
  std::atomic<std::size_t> memo_hits_{0};
  std::atomic<std::size_t> memo_misses_{0};
  std::atomic<std::size_t> memo_bytes_{0};
};

}  // namespace llamp::core
