#pragma once

#include <cstdint>
#include <string>

#include "util/time.hpp"

namespace llamp::loggops {

/// Message protocol selected by the rendezvous threshold S of LogGPS.
enum class Protocol : std::uint8_t {
  kEager,       ///< messages smaller than S: sent immediately
  kRendezvous,  ///< messages >= S: REQ / RDMA-read / FIN handshake
};

/// The LogGPS parameter vector (a configuration θ in the paper's notation).
///
/// * L — maximum network latency between two processes [ns]
/// * o — CPU overhead per message [ns]
/// * g — gap between consecutive message injections on the NIC [ns]
/// * G — gap per byte, i.e. inverse bandwidth [ns/byte]
/// * O — CPU overhead per byte [ns/byte]; negligible in practice (§II-A),
///       retained for completeness and defaulted to 0
/// * S — rendezvous threshold [bytes]
///
/// The process count P of LogGOPS lives with the trace/graph, not here.
struct Params {
  TimeNs L = 3'000.0;       // 3.0 us, the paper's testbed measurement
  TimeNs o = 5'000.0;       // app-dependent; see NetworkConfig presets
  TimeNs g = 0.0;           // paper omits g because o > g on its systems
  double G = 0.018;         // ns per byte (~56 Gbit/s ConnectX-3)
  double O = 0.0;           // ns per byte of CPU overhead
  std::uint64_t S = 256 * 1024;  // 256 KiB

  /// Protocol for a message of `bytes` payload.
  Protocol protocol(std::uint64_t bytes) const {
    return bytes < S ? Protocol::kEager : Protocol::kRendezvous;
  }

  /// Serialization cost of the payload on the wire: (s-1)·G for s >= 1,
  /// matching LogGP where the first byte is accounted to L.
  TimeNs bytes_cost(std::uint64_t bytes) const {
    return bytes == 0 ? 0.0 : static_cast<double>(bytes - 1) * G;
  }

  /// CPU cost of handling one message end (o + s·O).
  TimeNs cpu_cost(std::uint64_t bytes) const {
    return o + static_cast<double>(bytes) * O;
  }

  /// Throws llamp::Error if any parameter is negative or S is zero.
  void validate() const;

  std::string to_string() const;

  bool operator==(const Params&) const = default;
};

/// Named parameter presets matching the clusters in the paper.
struct NetworkConfig {
  /// CSCS 188-node testbed (§III-B): L = 3.0 us, G = 0.018 ns/B, S = 256 KiB.
  /// `o` defaults to 5 us (LULESH/HPCG-class value from Table II); callers
  /// override per application.
  static Params cscs_testbed(TimeNs o = 5'000.0);

  /// Piz Daint (§IV): L = 1.4 us, G = 0.013 ns/B, S = 256 KiB.  The per-scale
  /// o values in the paper are 8.5/7.4/6.03 us for 32/64/256 nodes.
  static Params piz_daint(TimeNs o = 8'500.0);

  /// Per-application o values measured in the paper's validation (Table II),
  /// keyed by app name ("lulesh", "hpcg", "milc", "icon", "lammps",
  /// "openmx", "cloverleaf") and node count (8/27/32/64); falls back to the
  /// 8-node value for unknown scales.
  static TimeNs table2_overhead(const std::string& app, int nodes);
};

/// Rendezvous completion formulas (Appendix B, Fig. 14/15).
///
/// With ts/tr the times the send/recv are issued and
/// tm = max(ts + o + L, tr + o) the handshake match instant, the receiver
/// completes after the RDMA read round-trip plus payload streaming and the
/// sender completes one overhead later (FIN processing):
///
///   t_r' = tm + 2L + (s-1)G + o
///   t_s' = t_r' + o
///
/// so a rendezvous message places up to three L terms on the critical path
/// (REQ + read-request + data), versus one for an eager message.
struct RendezvousCost {
  /// Latency hops contributed after the match point (read request + data).
  static constexpr int kPostMatchHops = 2;
  /// Latency hops on the sender-side path into the match point (the REQ).
  static constexpr int kReqHops = 1;
};

}  // namespace llamp::loggops
