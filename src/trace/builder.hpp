#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"
#include "util/time.hpp"

namespace llamp::trace {

/// Records traces the way an application linked against liballprof would:
/// every MPI call becomes an event with start/end timestamps on a per-rank
/// clock, and compute shows up as gaps between events.  The proxy
/// applications in `src/apps` drive this builder through an MPI-like facade.
///
/// Timestamps only need to be consistent *per rank* (Schedgen infers compute
/// from per-rank gaps, never from cross-rank differences), so the builder
/// does not simulate message timing: each MPI call occupies a fixed nominal
/// duration on the local clock.
class TraceBuilder {
 public:
  /// `op_duration` is the nominal per-call cost stamped on recorded events;
  /// it models the CPU time each MPI call took while tracing.
  explicit TraceBuilder(int nranks, TimeNs op_duration = 1'000.0);

  int nranks() const { return trace_.nranks(); }

  /// Local computation: advances the rank clock without recording an event.
  void compute(int rank, TimeNs duration);

  // --- point-to-point ------------------------------------------------------
  void send(int rank, int peer, std::uint64_t bytes, int tag = 0);
  void recv(int rank, int peer, std::uint64_t bytes, int tag = 0);
  /// Returns the request id to pass to wait().
  std::int64_t isend(int rank, int peer, std::uint64_t bytes, int tag = 0);
  std::int64_t irecv(int rank, int peer, std::uint64_t bytes, int tag = 0);
  void wait(int rank, std::int64_t request);
  /// Convenience: wait on several requests in order (MPI_Waitall analogue;
  /// recorded as individual MPI_Wait events, which is how liballprof's
  /// Schedgen path handles it too).
  void waitall(int rank, const std::vector<std::int64_t>& requests);

  // --- collectives (recorded on one rank; must be called for all ranks in
  // the same order, which the whole-communicator helpers guarantee) ---------
  void collective(int rank, Op op, std::uint64_t bytes, int root = 0);
  void barrier_all();
  void bcast_all(std::uint64_t bytes, int root = 0);
  void reduce_all(std::uint64_t bytes, int root = 0);
  void allreduce_all(std::uint64_t bytes);
  void allgather_all(std::uint64_t bytes);
  void alltoall_all(std::uint64_t bytes);

  /// Current per-rank clock (end of the last recorded activity).
  TimeNs now(int rank) const;

  /// Appends MPI_Finalize on every rank, validates, and returns the trace.
  /// The builder must not be used afterwards.
  Trace finish();

 private:
  Event& push(int rank, Op op);

  Trace trace_;
  std::vector<TimeNs> clock_;
  std::vector<std::int64_t> next_request_;
  TimeNs op_duration_;
  bool finished_ = false;
};

}  // namespace llamp::trace
