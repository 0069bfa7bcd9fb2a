#pragma once

#include <vector>

#include "loggops/params.hpp"
#include "loggops/wire_model.hpp"
#include "schedgen/midop.hpp"
#include "schedgen/options.hpp"
#include "trace/trace.hpp"

namespace llamp::sim {

/// Operational (trace-driven) simulator: executes per-rank operation
/// streams directly under LogGPS protocol rules — per-rank CPU clocks,
/// blocking semantics, MPI non-overtaking message matching, eager delivery,
/// and the rendezvous REQ / RDMA-read / FIN handshake — with a cooperative
/// round-robin scheduler that suspends ranks blocked on their peers.
///
/// This is an *independent* implementation of the LogGOPSim semantics: it
/// never looks at an execution graph or its edge-cost annotations.  Its
/// makespan agreeing exactly with the graph replay (sim::Simulator) and the
/// LP optimum (lp::LoweredProblem) on arbitrary programs is therefore an
/// end-to-end validation of Schedgen's graph construction *and* of
/// Algorithm 1 — the strongest property test in the repository.
class TraceSimulator {
 public:
  /// Simulate an MPI trace: collectives are expanded with the same options
  /// Schedgen uses, then the streams are executed.
  explicit TraceSimulator(const trace::Trace& t,
                          const schedgen::Options& opts = {});
  /// Simulate pre-expanded streams (shares Options::rendezvous_threshold).
  TraceSimulator(std::vector<schedgen::MidStream> streams,
                 const schedgen::Options& opts);

  struct Result {
    TimeNs makespan = 0.0;
    std::vector<TimeNs> rank_finish;  ///< completion time per rank
    std::size_t scheduler_passes = 0; ///< round-robin sweeps used
  };

  Result run(const loggops::Params& p) const;
  Result run(const loggops::Params& p, const loggops::WireModel& wire) const;

 private:
  std::vector<schedgen::MidStream> streams_;
  std::uint64_t rendezvous_threshold_;
};

}  // namespace llamp::sim
