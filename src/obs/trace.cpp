#include "obs/trace.hpp"

#include "util/json.hpp"
#include "util/strings.hpp"

namespace llamp::obs {
namespace {

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread lane cache.  Keyed by tracer id, not pointer: engines (and
/// their tracers) are created and destroyed while the threads that
/// recorded into them live on, and a recycled allocation must never
/// revive a stale lane.
struct LaneCache {
  std::uint64_t tracer_id = 0;
  Tracer::Lane* lane = nullptr;
};
thread_local LaneCache t_lane_cache;

}  // namespace

Tracer::Tracer() : id_(next_tracer_id()) {}

void Tracer::enable() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) {
    origin_.store(monotonic_now(), std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_release);
  }
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& lane : lanes_) {
    lane->spans.clear();
    lane->open.clear();
  }
}

std::size_t Tracer::span_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane->spans.size();
  return n;
}

Tracer::Lane* Tracer::lane() {
  if (t_lane_cache.tracer_id == id_) return t_lane_cache.lane;
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::thread::id self = std::this_thread::get_id();
  Lane* found = nullptr;
  for (std::size_t i = 0; i < lane_threads_.size(); ++i) {
    if (lane_threads_[i] == self) {
      found = lanes_[i].get();
      break;
    }
  }
  if (found == nullptr) {
    lanes_.push_back(std::make_unique<Lane>());
    found = lanes_.back().get();
    found->tid = static_cast<int>(lanes_.size()) - 1;
    lane_threads_.push_back(self);
  }
  t_lane_cache = {id_, found};
  return found;
}

std::string Tracer::to_chrome_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane->spans) {
      // An unclosed span (emission mid-request would violate the class
      // contract, but a crash-path emit should still parse) gets zero
      // duration rather than a negative one.
      const TimeNs end = s.end >= s.begin ? s.end : s.begin;
      out += strformat(
          "%s{\"name\": \"%s\", \"cat\": \"llamp\", \"ph\": \"X\", "
          "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
          "\"args\": {\"parent\": %lld}}",
          first ? "" : ", ",
          json_escape_string(s.name != nullptr ? s.name : "").c_str(),
          lane->tid, to_us(s.begin), to_us(end - s.begin),
          static_cast<long long>(s.parent));
      first = false;
    }
  }
  out += "], \"displayTimeUnit\": \"ms\"}";
  return out;
}

SpanScope::SpanScope(Tracer& tracer, const char* name) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  lane_ = tracer.lane();
  index_ = lane_->spans.size();
  Tracer::Span span;
  span.name = name;
  span.begin =
      monotonic_now() - tracer.origin_.load(std::memory_order_relaxed);
  span.parent = lane_->open.empty()
                    ? -1
                    : static_cast<std::int64_t>(lane_->open.back());
  lane_->spans.push_back(span);
  lane_->open.push_back(index_);
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) return;
  lane_->spans[index_].end =
      monotonic_now() - tracer_->origin_.load(std::memory_order_relaxed);
  // Scopes unwind LIFO per thread, so the top of the open stack is this
  // span (destructors run in reverse construction order).
  if (!lane_->open.empty() && lane_->open.back() == index_) {
    lane_->open.pop_back();
  }
}

}  // namespace llamp::obs
