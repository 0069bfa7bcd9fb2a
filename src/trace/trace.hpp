#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace llamp::trace {

/// MPI operations the tracer records.  This mirrors the subset of MPI that
/// liballprof traces and Schedgen understands; collectives are recorded as
/// single events and expanded into point-to-point algorithms later.
enum class Op : std::uint8_t {
  kInit,
  kFinalize,
  kSend,      // blocking eager/rendezvous send
  kRecv,      // blocking receive
  kIsend,     // nonblocking send; completion via kWait
  kIrecv,     // nonblocking receive; completion via kWait
  kWait,      // waits on one request
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kAllgather,
  kReduceScatter,
  kGather,
  kScatter,
  kAlltoall,
};

/// True for the collective operations (expanded by schedgen).
bool is_collective(Op op);
/// True for kSend / kIsend.
bool is_send(Op op);
/// True for kRecv / kIrecv.
bool is_recv(Op op);

std::string_view op_name(Op op);
/// Inverse of op_name; throws TraceError for unknown names.
Op op_from_name(std::string_view name);

/// One traced MPI call on one rank.  Timestamps are absolute per-rank clock
/// values in nanoseconds; the gap between one event's `end` and the next
/// event's `start` is the compute Schedgen infers (Fig. 3 of the paper).
struct Event {
  Op op = Op::kInit;
  TimeNs start = 0.0;
  TimeNs end = 0.0;
  std::int32_t peer = -1;      ///< p2p partner rank; -1 for collectives/init
  std::int32_t tag = 0;        ///< p2p tag
  std::uint64_t bytes = 0;     ///< message or per-rank collective payload
  std::int32_t root = 0;       ///< collective root where applicable
  std::int64_t request = -1;   ///< request id linking Isend/Irecv to Wait

  bool operator==(const Event&) const = default;
};

/// A full program trace: one event sequence per rank.
class Trace {
 public:
  Trace() = default;
  explicit Trace(int nranks) : per_rank_(static_cast<std::size_t>(nranks)) {}

  int nranks() const { return static_cast<int>(per_rank_.size()); }
  std::vector<Event>& rank(int r) { return per_rank_.at(static_cast<std::size_t>(r)); }
  const std::vector<Event>& rank(int r) const {
    return per_rank_.at(static_cast<std::size_t>(r));
  }

  /// Total number of recorded events across ranks.
  std::size_t total_events() const;

  /// Validates structural invariants and throws TraceError on violation:
  /// monotone non-overlapping timestamps per rank, peers and the roots of
  /// bcast/reduce/gather/scatter in range, every Isend/Irecv matched by
  /// exactly one Wait with the same request id (a waited id may be reused),
  /// and collective sequences identical across ranks (op, bytes, root).
  void validate() const;

  bool operator==(const Trace&) const = default;

 private:
  std::vector<std::vector<Event>> per_rank_;
};

}  // namespace llamp::trace
