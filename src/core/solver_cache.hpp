#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/graph_cache.hpp"
#include "loggops/params.hpp"
#include "lp/parametric.hpp"

namespace llamp::core {

/// The key under which a lowered parametric LP is shared: the execution
/// graph's key plus the bit patterns of every parameter that enters its
/// LatencyParamSpace's lowering (L/o/g/G/O, then S), as the memo keys
/// hold theirs.  Two requests whose resolved scenarios carry the same bits
/// lower bit-identical cost arrays, so they may share one LoweredProblem.
struct SolverKey {
  GraphKey graph;
  std::array<std::uint64_t, 6> space;

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
///  * the **anchor state** — each entry keeps the AnchorState snapshots
///    published by past dense solves, so a point query landing inside a
///    known stability zone (or repeating an anchor point, like the base-L
///    anchor whose critical path λ_G sums) is served by critical-path
///    replay (microseconds) instead of a full forward pass;
///  * the **memos** — exact-input results of the calls replay cannot
///    serve: Algorithm 2 and the tolerance search, so a repeated report
///    costs lookups only.  The tolerance memo is keyed per lane of the
///    pooled search, so a band stored by one caller (analyze's one-lane
///    reads, campaign cells, mc's band searches) is a hit for all of
///    them.  A third memo holds the numeric rows of whole topo and place
///    results, keyed by the inputs those ops read beyond the entry key; it
///    reads no lowering, so those ops look their entry up with entry() and
///    never build one.
///
/// An entry's anchors and its three memos share one byte budget,
/// kMemoBudgetBytes.
///
/// Determinism contract: replay from *any* covering anchor is bitwise
/// identical to a dense solve at that point (the replay equivalence,
/// pinned by the hot-path test wall), and a memo hit returns
/// the stored result of the very same computation (keys are the inputs'
/// bit patterns), so an entry's answers can never depend on the cache
/// being cold, warm, shared across threads, or on which of several
/// overlapping anchors serves the query.  Response bytes must never
/// include the cache's counters.
///
/// Invalidation: there is none, by construction.  Graphs are immutable and
/// never evicted from GraphCache, and the key's bits pin every input of
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

    /// The shared immutable lowering: never null on a handle latency()
    /// returned.  A handle from entry() may not have one yet (another
    /// thread's latency() may be building it), so only the row memo may be
    /// used through such a handle.
    const std::shared_ptr<const lp::LoweredProblem>& problem() const {
      return prob_;
    }

    /// The anchor serving parameter `k` at `x`: a published anchor whose
    /// stability zone covers `x` (counted as a replay; no forward pass, no
    /// allocation), otherwise a dense solve at `x` through `cur` (an anchor
    /// solve), published for later queries while the byte budget has room.
    /// Either way its critical path is the one problem()->solve(k, x)
    /// selects, so a sum along its chain (λ_G's payload bytes) equals the
    /// dense solve's.  Safe to call concurrently from any number of
    /// threads, each with its own cursor.
    std::shared_ptr<const lp::LoweredProblem::AnchorState> anchor(
        int k, double x, lp::LoweredProblem::Cursor& cur);

    /// problem()->solve_batch(k, xs, n, cur, out) through the entry's
    /// anchors: value and slope of every lane are bitwise solve_batch's,
    /// which on the entry's integer-coefficient lowering are
    /// problem()->solve(k, xs[i])'s too (lo/hi are left at -inf/+inf).  A
    /// lane inside a published anchor's zone is replayed from it.  The
    /// other lanes are walked in ascending x: each dense solve publishes an
    /// anchor, which also serves the lanes above it in its zone.  Once an
    /// anchor is not stored (the budget refused it, or its value is not
    /// finite), the remaining lanes run as one solve_batch.  A one-lane
    /// call is the entry's point read: one replay or one anchor solve.  An
    /// all-replay call allocates nothing once cur.gather has grown to n.
    void eval_batch(int k, const double* xs, std::size_t n,
                    lp::LoweredProblem::Cursor& cur,
                    lp::LoweredProblem::BatchPoint* out);

    /// problem()->critical_values_algorithm2(k, lo, hi, step, eps) through
    /// the entry's exact-input memo.  A hit allocates only the returned
    /// vector.
    std::vector<double> critical_values_algorithm2(int k, double lo,
                                                   double hi, double step,
                                                   double eps = 1e-6);

    /// problem()->max_param_for_budget_from_batch(k, from, budget, n, cur,
    /// out) through the entry's exact-input tolerance memo: all n lanes are
    /// looked up under one lock, each counted as one memo hit or miss; the
    /// misses (in lane order) run as one pooled call over cur.gather's
    /// rows, and their results are stored.  Adjacent misses that share a
    /// `from` share one opening point (solve_batch_points), which the
    /// pooled call takes as its at_from.  Bitwise identical to the direct
    /// pooled call and to n one-lane direct calls.
    /// A throwing call stores nothing and raises the lowest infeasible
    /// lane's error (hits never throw).  An all-hit call never touches the
    /// problem and allocates nothing once cur.gather has grown to n.
    void max_param_for_budget_from_batch(int k, const double* from,
                                         const double* budget, std::size_t n,
                                         lp::LoweredProblem::Cursor& cur,
                                         double* out);

    /// The op whose rows a row-memo key holds.
    enum class RowOp : std::uint32_t { kTopo, kPlace };

    /// The numeric rows of one whole `op` result through the entry's row
    /// memo, keyed by `op` and the bit patterns of `inputs`, the op's
    /// inputs beyond the entry key (at most six; ints pass exactly as
    /// doubles).  `compute` runs only on a miss, outside the lock; a throw
    /// stores nothing.  Reads no lowering, so any handle may call it.
    std::vector<double> rows(
        RowOp op, std::initializer_list<double> inputs,
        const std::function<std::vector<double>()>& compute);

    /// Published anchors (observability/tests).
    std::size_t anchor_count() const;

    /// Byte budget shared by the entry's anchors and three memos, each
    /// counted as Stats::anchor_bytes or Stats::memo_bytes counts it
    /// (payload per anchor; key plus payload per stored result).  Anchors
    /// and results are stored first come while they fit; later ones are
    /// computed and returned but not stored (Stats::budget_refused), and
    /// nothing is evicted — eviction order could vary across runs, and
    /// although replay-vs-dense bytes are identical by contract, a fixed
    /// set keeps the served path itself reproducible.  1 MiB holds about
    /// 21,800 tolerance results, or about 820 hpcg-64 anchors.
    static constexpr std::size_t kMemoBudgetBytes = std::size_t{1} << 20;

   private:
    friend class SolverCache;
    Entry() = default;

    /// Memo key: the parameter index followed by the bit patterns of the
    /// call's double inputs (unused slots zero).  Bits, not ==, so a hit is
    /// the same computation by construction (-0.0 and 0.0 stay distinct,
    /// and NaN cannot break the map's ordering).
    template <std::size_t N>
    using Key = std::array<std::uint64_t, N>;
    using MemoKey = Key<5>;
    using RowKey = Key<7>;  ///< the op, then up to six inputs
    static MemoKey memo_key(int k, std::initializer_list<double> xs);
    template <typename V, std::size_t N = 5>
    using Memo = std::map<Key<N>, V>;

    /// The memo protocol shared by all three memos: serve a hit, or run
    /// `compute` outside the lock and store its result while the byte
    /// budget has room.  A call that throws stores nothing and throws again
    /// on the next identical call.
    template <typename V, std::size_t N, typename Compute>
    V memoized(Memo<V, N>& memo, const Key<N>& key, Compute&& compute);
    /// Store `value` under `key` if it is new and fits the byte budget;
    /// mutex_ must be held.
    template <typename V, std::size_t N>
    void store(Memo<V, N>& memo, const Key<N>& key, const V& value);
    /// Charge `bytes` to the budget if they fit; mutex_ must be held.
    /// Counts a refusal otherwise.
    bool charge(std::size_t bytes);

    using AnchorPtr = std::shared_ptr<const lp::LoweredProblem::AnchorState>;
    /// The anchor covering (k, x) found by binary search: the last one at
    /// or below (k, x) in (active, at) order, if it covers x.  An earlier
    /// anchor whose zone reaches x is not searched for: any covering anchor
    /// replays the same bits, so a miss costs one dense solve, never a
    /// byte.  Null when none covers.  mutex_ must be held.
    const AnchorPtr* covering(int k, double x) const;
    /// Publish `a` (a finite solve) unless an anchor at its exact point is
    /// already published.  Returns false when the budget refused it.
    bool publish(const AnchorPtr& a);
    /// The cold path of anchor() and eval_batch(): a dense solve of `k` at
    /// `x` through `cur` (counted as an anchor solve), snapshotted and
    /// published when its value is finite.  Returns the snapshot and
    /// whether the entry now holds an anchor at that point.
    std::pair<AnchorPtr, bool> solve_anchor(int k, double x,
                                            lp::LoweredProblem::Cursor& cur);

    std::mutex build_mutex_;
    std::shared_ptr<const lp::LoweredProblem> prob_;
    mutable std::mutex mutex_;  ///< guards anchors_, the memos and bytes_
    /// Sorted by (active, at), deduplicated on exact (active, at).
    std::vector<AnchorPtr> anchors_;
    Memo<std::vector<double>> algorithm2_memo_;
    Memo<double> budget_memo_;
    Memo<std::vector<double>, 7> row_memo_;
    std::size_t bytes_ = 0;  ///< anchors and memos, against kMemoBudgetBytes
    SolverCache* owner_ = nullptr;
  };

  /// The entry of (key, p), created empty on first use, without building
  /// its lowering.  Counts neither a build nor a hit.
  std::shared_ptr<Entry> entry(const GraphKey& key, const loggops::Params& p);

  /// entry(key, p) with its LatencyParamSpace lowering over `g` — `g` MUST
  /// be the graph cached under `key` (same object for the session).  Builds
  /// under a per-key lock on first use: concurrent first touches build one
  /// key once, distinct keys build in parallel.
  std::shared_ptr<Entry> latency(const GraphKey& key, const graph::Graph& g,
                                 const loggops::Params& p);

  struct Stats {
    std::size_t built = 0;          ///< lowerings constructed (misses)
    std::size_t hits = 0;           ///< latency() served an existing lowering
    /// Dense solves and anchor replays of anchor() and eval_batch()
    /// (eval_batch's batched remainder counts as neither).
    std::size_t anchor_solves = 0;
    std::size_t replays = 0;
    std::size_t anchor_bytes = 0;   ///< payload bytes of published anchors
    std::size_t memo_hits = 0;      ///< memoized calls served from a memo
    std::size_t memo_misses = 0;    ///< memoized calls that computed
    std::size_t memo_bytes = 0;     ///< payload bytes of stored memo results
    /// Anchor publishes and memo stores a full entry budget turned away.
    std::size_t budget_refused = 0;

    /// The fields above as (name, value), in their one published order:
    /// stats_string(), /healthz and the solver_cache.* metrics read it.
    std::vector<std::pair<std::string, std::uint64_t>> fields() const;
  };
  /// Cumulative statistics, GraphCache-style relaxed atomics: monotonic
  /// tallies, not an instantaneous cut across counters.  `anchor_bytes`
  /// and `memo_bytes` count payload sizes (not vector or node capacities).
  /// The tallies repeat for a fixed request sequence only when every
  /// request runs on one thread.  Within a multi-threaded request,
  /// concurrent sweep workers race to publish overlapping anchors and
  /// concurrent mc lane groups race to store the same memo keys, so
  /// `anchor_solves`, `replays`, `memo_hits` and `memo_misses` can differ
  /// between runs (and `anchor_bytes` with the anchors published).
  /// Response bytes never do.
  Stats stats() const;
  /// One-line human form via the shared obs::stats_line formatter, e.g.
  /// "solvers: built=2 hits=9 anchor_solves=14 replays=180 anchor_bytes=...
  /// memo_hits=... memo_misses=... memo_bytes=... budget_refused=...".
  std::string stats_string() const;

 private:
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
  std::atomic<std::size_t> budget_refused_{0};
};

}  // namespace llamp::core
