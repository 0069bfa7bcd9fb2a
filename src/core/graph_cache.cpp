#include "core/graph_cache.hpp"

#include <set>
#include <utility>

#include "apps/registry.hpp"
#include "schedgen/schedgen.hpp"
#include "util/parallel.hpp"

namespace llamp::core {

std::unique_ptr<graph::Graph> GraphCache::build(const GraphKey& key) {
  schedgen::Options opt;
  opt.rendezvous_threshold = key.S;
  return std::make_unique<graph::Graph>(schedgen::build_graph(
      apps::make_app_trace(key.app, key.ranks, key.scale), opt));
}

std::shared_ptr<GraphCache::Slot> GraphCache::slot_for(const GraphKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = graphs_[key];
  if (!slot) slot = std::make_shared<Slot>();
  return slot;
}

const graph::Graph& GraphCache::build_in(Slot& slot, const GraphKey& key) {
  // Per-key lock: concurrent first touches of one key build it once;
  // builds of distinct keys proceed in parallel (the map mutex is never
  // held across a build, and the atomic tallies never re-enter it).
  const std::lock_guard<std::mutex> lock(slot.build_mutex);
  if (!slot.graph) {
    slot.graph = build(key);
    built_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(slot.graph->memory_bytes(), std::memory_order_relaxed);
  }
  return *slot.graph;
}

const graph::Graph& GraphCache::get(const GraphKey& key) {
  const std::shared_ptr<Slot> slot = slot_for(key);
  const std::lock_guard<std::mutex> lock(slot->build_mutex);
  if (slot->graph) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return *slot->graph;
  }
  slot->graph = build(key);
  built_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(slot->graph->memory_bytes(), std::memory_order_relaxed);
  return *slot->graph;
}

void GraphCache::warm(const std::vector<GraphKey>& keys, int threads) {
  // First-appearance order of the distinct keys is preserved so the
  // parallel build's work distribution is deterministic for a given input.
  std::vector<std::pair<GraphKey, std::shared_ptr<Slot>>> todo;
  std::set<GraphKey> seen;
  for (const GraphKey& key : keys) {
    if (seen.insert(key).second) todo.push_back({key, slot_for(key)});
  }
  parallel_for_workers(todo.size(), threads, [&](int, std::size_t i) {
    (void)build_in(*todo[i].second, todo[i].first);
  });
}

GraphCache::Stats GraphCache::stats() const {
  return {built_.load(std::memory_order_relaxed),
          hits_.load(std::memory_order_relaxed),
          bytes_.load(std::memory_order_relaxed)};
}

}  // namespace llamp::core
