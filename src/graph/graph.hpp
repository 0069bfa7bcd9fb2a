#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace llamp::graph {

using VertexId = std::uint32_t;
constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// Vertex types of an MPI execution graph (§II-A of the paper, extended with
/// an explicit "post" vertex for nonblocking receives, Fig. 13).
enum class VertexKind : std::uint8_t {
  kCalc,  ///< local computation with a fixed duration
  kSend,  ///< point-to-point send initiation (costs o on the CPU)
  kRecv,  ///< point-to-point receive completion point (costs o on the CPU)
  kPost,  ///< nonblocking-receive posting point (costs o on the CPU)
};

/// Edge classification.  Every edge carries an affine *cost specification*
/// o_mult·o + l_mult·L(src,dst) + (bytes-1)·G(src,dst); the LogGPS values
/// are substituted at analysis time, which is what lets the LP layer treat L
/// and G as decision variables.
enum class EdgeKind : std::uint8_t {
  kLocal,           ///< same-rank program order (cost usually zero)
  kComm,            ///< send -> recv message edge
                    ///<   eager:      l_mult=1, bytes=s
                    ///<   rendezvous: l_mult=3, bytes=s (REQ + read-req + data)
  kIssue,           ///< rendezvous receive-issue edge: from the local
                    ///< predecessor (blocking recv; o_mult=1) or the post
                    ///< vertex (nonblocking; o_mult=0) into the recv vertex,
                    ///< with l_mult=2, bytes=s — the handshake path that does
                    ///< not include the REQ hop
  kSendCompletion,  ///< rendezvous sender completion: matched recv -> the
                    ///< send's wait vertex / program successor, o_mult=1
};

struct Vertex {
  VertexKind kind = VertexKind::kCalc;
  std::int32_t rank = 0;
  std::int32_t peer = -1;       ///< partner rank for send/recv
  std::int32_t tag = 0;
  std::uint64_t bytes = 0;      ///< message size for send/recv
  TimeNs duration = 0.0;        ///< cost of calc vertices
};

struct Edge {
  VertexId from = kInvalidVertex;
  VertexId to = kInvalidVertex;
  EdgeKind kind = EdgeKind::kLocal;
  std::uint8_t o_mult = 0;    ///< multiplier on the per-message overhead o
  std::uint8_t l_mult = 0;    ///< multiplier on the network latency L
  std::uint64_t bytes = 0;    ///< payload for the (bytes-1)·G term; 0 = none
};

/// A directed acyclic execution graph.  Built incrementally (add_* +
/// add_edge), then `finalize()` freezes it: invariants are checked, a
/// topological order is computed, and adjacency becomes CSR (out-edges by
/// vertex id; in-edges by topo position, the TopoSlots every lowering
/// reads).  Analysis components (simulator, LP builders, parametric
/// solver) require a finalized graph.
class Graph {
 public:
  explicit Graph(int nranks);

  int nranks() const { return nranks_; }

  // --- construction --------------------------------------------------------
  /// Room for `vertices` vertices and `edges` edges: a builder that knows
  /// its final sizes allocates each list once, and finalize() then has no
  /// slack to trim.
  void reserve(std::size_t vertices, std::size_t edges);
  VertexId add_calc(int rank, TimeNs duration);
  /// `peer` is the sending rank of the message the post belongs to; it only
  /// matters for wire attribution of handshake-completion edges.
  VertexId add_post(int rank, int peer = -1);
  VertexId add_send(int rank, int peer, std::uint64_t bytes, int tag = 0);
  VertexId add_recv(int rank, int peer, std::uint64_t bytes, int tag = 0);

  /// Same-rank precedence edge with zero cost.
  void add_local_edge(VertexId from, VertexId to);
  /// Communication edge; `from` must be a send, `to` the matching recv.
  /// `rendezvous` selects the l_mult=3 handshake cost over the eager l_mult=1.
  void add_comm_edge(VertexId send, VertexId recv, bool rendezvous);
  /// Rendezvous receive-issue edge into `recv`; `through_post` distinguishes
  /// the nonblocking (post vertex already paid its o) from the blocking form.
  void add_issue_edge(VertexId from, VertexId recv, bool through_post);
  /// Rendezvous sender-completion edge for a *blocking* receiver: the recv
  /// vertex's completion is exactly the handshake completion t_r', so the
  /// waiter follows it by one overhead (t_s' = t_r' + o).
  void add_send_completion_edge(VertexId recv, VertexId waiter);
  /// Rendezvous sender completion for a *nonblocking* receiver: the
  /// handshake finishes once the request is posted and the data streamed,
  /// independent of where the receiver's wait lands, so t_s' =
  /// max(ts + 2o + 3L + B, t_post + 2o + 2L + B) + o is anchored on the
  /// send and post vertices instead of the receiver's wait.
  void add_handshake_completion_edges(VertexId send, VertexId post,
                                      VertexId waiter);
  /// Freezes the graph.  Throws GraphError on cycles, comm edges with
  /// mismatched endpoints, or send/recv vertices without exactly one comm
  /// edge.
  void finalize();
  bool finalized() const { return finalized_; }

  // --- finalized accessors --------------------------------------------------
  std::size_t num_vertices() const { return vertices_.size(); }
  std::size_t num_edges() const { return edges_.size(); }
  std::size_t num_comm_edges() const { return num_comm_edges_; }
  const Vertex& vertex(VertexId v) const { return vertices_[v]; }

  /// Out-edge reference: index into edges() plus the far endpoint.
  struct Adj {
    VertexId other;
    std::uint32_t edge;
  };
  std::span<const Adj> out_edges(VertexId v) const;
  const Edge& edge(std::uint32_t e) const { return edges_[e]; }

  /// Vertices in a topological order (every edge goes forward in it).
  std::span<const VertexId> topo_order() const;

  /// The in-adjacency by topo position, the slot index space of every
  /// LoweredProblem (DESIGN.md §4b): position i's in-edges are the slots
  /// [offsets[i], offsets[i+1]), in ascending edge id.
  struct TopoSlots {
    std::vector<std::uint32_t> offsets;  ///< topo pos -> slot range (V+1)
    std::vector<std::uint32_t> pred;     ///< slot -> predecessor topo pos
    std::vector<std::uint32_t> edge;     ///< slot -> edge id
    std::vector<std::uint32_t> slot_of;  ///< edge id -> slot
    std::vector<std::uint32_t> pos_of;   ///< vertex id -> topo pos
    std::vector<std::uint32_t> sinks;    ///< sink topo pos, by vertex id
    std::uint32_t max_in_degree = 0;
  };
  const TopoSlots& topo_slots() const;

  /// For a recv vertex: the matching send; for a send vertex: the matching
  /// recv; kInvalidVertex otherwise.
  VertexId comm_partner(VertexId v) const { return comm_partner_[v]; }

  /// The (src_rank, dst_rank) pair whose network parameters an edge's
  /// l_mult/bytes terms refer to.  For local edges this is (rank, rank).
  std::pair<int, int> edge_wire_pair(const Edge& e) const;

  /// Raw edge list (stable order of insertion).
  std::span<const Edge> edges() const { return edges_; }

  /// Heap bytes held by this graph (vertex/edge lists, out-CSR, topo
  /// order and slots, partner table).  finalize() trims construction slack,
  /// so this is the steady-state footprint a graph cache pays per entry.
  std::size_t memory_bytes() const;

  std::string stats_string() const;

 private:
  void require_finalized() const;
  void require_building() const;
  VertexId add_vertex(Vertex v);
  void add_completion_edge_raw(VertexId from, VertexId to, int o_mult,
                               int l_mult, std::uint64_t bytes);

  int nranks_;
  std::vector<Vertex> vertices_;
  std::vector<Edge> edges_;
  std::size_t num_comm_edges_ = 0;
  bool finalized_ = false;

  // Out-CSR, topo order and topo slots, valid after finalize().
  std::vector<std::uint64_t> out_offsets_;
  std::vector<Adj> out_adj_;
  std::vector<VertexId> topo_;
  TopoSlots slots_;
  std::vector<VertexId> comm_partner_;
};

}  // namespace llamp::graph
