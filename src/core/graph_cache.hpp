#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "graph/graph.hpp"

namespace llamp::core {

/// The key under which an execution graph is shared: a graph depends only
/// on the trace (app, ranks, scale) and the rendezvous threshold S baked
/// into the schedule — never on L/o/G or the topology.  This is the same
/// key the campaign engine has always cached under; extracting it lets an
/// api::Engine session share one cache across requests.
struct GraphKey {
  std::string app;
  int ranks = 0;
  double scale = 0.0;
  std::uint64_t S = 0;

  friend bool operator<(const GraphKey& a, const GraphKey& b) {
    return std::tie(a.app, a.ranks, a.scale, a.S) <
           std::tie(b.app, b.ranks, b.scale, b.S);
  }
  friend bool operator==(const GraphKey& a, const GraphKey& b) {
    return std::tie(a.app, a.ranks, a.scale, a.S) ==
           std::tie(b.app, b.ranks, b.scale, b.S);
  }
};

/// Thread-safe build-once cache of execution graphs.  Graphs are owned by
/// the cache and never evicted, so returned references stay valid for the
/// cache's lifetime (requests, campaigns, and solvers hold plain
/// references).  `ranks` must already be clamped to an app-supported value
/// — two spellings of one scenario must share one key.
class GraphCache {
 public:
  GraphCache() = default;
  GraphCache(const GraphCache&) = delete;
  GraphCache& operator=(const GraphCache&) = delete;

  /// The cached graph for `key`, building it (schedgen over the proxy
  /// trace, rendezvous threshold from the key) on first use.  Concurrent
  /// callers are safe: a miss builds under a per-key lock, so two callers
  /// never build one key twice and a slow build never blocks lookups or
  /// builds of other keys (a cold parallel batch builds its distinct
  /// graphs concurrently).
  const graph::Graph& get(const GraphKey& key);

  /// Ensure every key is cached, building the misses in parallel on
  /// `threads` workers (<= 0 = hardware concurrency) without counting
  /// hits.  Subsequent get() calls for these keys are pure lookups.
  void warm(const std::vector<GraphKey>& keys, int threads);

  struct Stats {
    std::size_t built = 0;  ///< graphs constructed (cache misses)
    std::size_t hits = 0;   ///< get() calls served already-built graphs
    std::size_t bytes = 0;  ///< summed memory_bytes() of the built graphs
  };
  /// Cumulative statistics; the repeated-request engine tests pin that a
  /// second identical request re-lowers nothing.  The counters are plain
  /// monotonic tallies kept as atomics (bumping them used to re-take the
  /// map mutex inside the per-key build lock — benign-looking, but a lock
  /// the hot hit path does not need and a pattern TSan-grade review
  /// rejects); a stats() snapshot is therefore monotonic but not an
  /// instantaneous cut across both counters.
  Stats stats() const;

 private:
  /// One cache entry: the graph plus the lock its first-touch build runs
  /// under.  Slots are created under the map mutex but built outside it.
  struct Slot {
    std::mutex build_mutex;
    std::unique_ptr<graph::Graph> graph;
  };

  std::shared_ptr<Slot> slot_for(const GraphKey& key);
  /// Build the slot's graph if still absent (per-key lock); returns
  /// whether this call built it.  slot.graph is set once it returns.
  bool build_in(Slot& slot, const GraphKey& key);
  static std::unique_ptr<graph::Graph> build(const GraphKey& key);

  std::mutex mutex_;  ///< guards graphs_ only
  std::map<GraphKey, std::shared_ptr<Slot>> graphs_;
  std::atomic<std::size_t> built_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace llamp::core
