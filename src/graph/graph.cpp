#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp::graph {

Graph::Graph(int nranks) : nranks_(nranks) {
  if (nranks <= 0) throw GraphError("need at least one rank");
}

void Graph::require_finalized() const {
  if (!finalized_) throw GraphError("operation requires a finalized graph");
}

void Graph::require_building() const {
  if (finalized_) throw GraphError("graph is already finalized");
}

void Graph::reserve(std::size_t vertices, std::size_t edges) {
  require_building();
  vertices_.reserve(vertices);
  edges_.reserve(edges);
}

VertexId Graph::add_vertex(Vertex v) {
  require_building();
  if (v.rank < 0 || v.rank >= nranks_) {
    throw GraphError(strformat("vertex rank %d out of range", v.rank));
  }
  if (vertices_.size() >= kInvalidVertex) {
    throw GraphError("vertex count overflow");
  }
  vertices_.push_back(v);
  return static_cast<VertexId>(vertices_.size() - 1);
}

VertexId Graph::add_calc(int rank, TimeNs duration) {
  if (duration < 0) throw GraphError("negative calc duration");
  Vertex v;
  v.kind = VertexKind::kCalc;
  v.rank = rank;
  v.duration = duration;
  return add_vertex(v);
}

VertexId Graph::add_post(int rank, int peer) {
  Vertex v;
  v.kind = VertexKind::kPost;
  v.rank = rank;
  v.peer = peer;
  return add_vertex(v);
}

VertexId Graph::add_send(int rank, int peer, std::uint64_t bytes, int tag) {
  if (peer < 0 || peer >= nranks_ || peer == rank) {
    throw GraphError(strformat("send %d->%d invalid", rank, peer));
  }
  Vertex v;
  v.kind = VertexKind::kSend;
  v.rank = rank;
  v.peer = peer;
  v.bytes = bytes;
  v.tag = tag;
  return add_vertex(v);
}

VertexId Graph::add_recv(int rank, int peer, std::uint64_t bytes, int tag) {
  if (peer < 0 || peer >= nranks_ || peer == rank) {
    throw GraphError(strformat("recv %d<-%d invalid", rank, peer));
  }
  Vertex v;
  v.kind = VertexKind::kRecv;
  v.rank = rank;
  v.peer = peer;
  v.bytes = bytes;
  v.tag = tag;
  return add_vertex(v);
}

void Graph::add_local_edge(VertexId from, VertexId to) {
  require_building();
  if (from >= vertices_.size() || to >= vertices_.size()) {
    throw GraphError("edge endpoint out of range");
  }
  if (from == to) throw GraphError("self-loop edge");
  if (vertices_[from].rank != vertices_[to].rank) {
    throw GraphError("local edge must stay within one rank");
  }
  edges_.push_back({from, to, EdgeKind::kLocal, 0, 0, 0});
}

void Graph::add_comm_edge(VertexId send, VertexId recv, bool rendezvous) {
  require_building();
  if (send >= vertices_.size() || recv >= vertices_.size()) {
    throw GraphError("comm edge endpoint out of range");
  }
  const Vertex& s = vertices_[send];
  const Vertex& r = vertices_[recv];
  if (s.kind != VertexKind::kSend || r.kind != VertexKind::kRecv) {
    throw GraphError("comm edge must connect a send to a recv");
  }
  if (s.peer != r.rank || r.peer != s.rank) {
    throw GraphError(strformat("comm edge rank mismatch: send %d->%d vs recv "
                               "%d<-%d", s.rank, s.peer, r.rank, r.peer));
  }
  if (s.bytes != r.bytes) {
    throw GraphError("comm edge size mismatch between send and recv");
  }
  Edge e{send, recv, EdgeKind::kComm, 0,
         static_cast<std::uint8_t>(rendezvous ? 3 : 1), s.bytes};
  edges_.push_back(e);
  ++num_comm_edges_;
}

void Graph::add_issue_edge(VertexId from, VertexId recv, bool through_post) {
  require_building();
  if (from >= vertices_.size() || recv >= vertices_.size()) {
    throw GraphError("issue edge endpoint out of range");
  }
  const Vertex& r = vertices_[recv];
  if (r.kind != VertexKind::kRecv) {
    throw GraphError("issue edge must target a recv vertex");
  }
  if (vertices_[from].rank != r.rank) {
    throw GraphError("issue edge must stay within the receiver's rank");
  }
  Edge e{from, recv, EdgeKind::kIssue,
         static_cast<std::uint8_t>(through_post ? 0 : 1), 2, r.bytes};
  edges_.push_back(e);
}

void Graph::add_send_completion_edge(VertexId recv, VertexId waiter) {
  require_building();
  if (recv >= vertices_.size() || waiter >= vertices_.size()) {
    throw GraphError("completion edge endpoint out of range");
  }
  if (vertices_[recv].kind != VertexKind::kRecv) {
    throw GraphError("completion edge must originate at a recv vertex");
  }
  edges_.push_back({recv, waiter, EdgeKind::kSendCompletion, 1, 0, 0});
}

void Graph::add_handshake_completion_edges(VertexId send, VertexId post,
                                           VertexId waiter) {
  require_building();
  if (send >= vertices_.size() || post >= vertices_.size() ||
      waiter >= vertices_.size()) {
    throw GraphError("completion edge endpoint out of range");
  }
  if (vertices_[send].kind != VertexKind::kSend) {
    throw GraphError("handshake completion needs a send vertex");
  }
  if (vertices_[post].kind != VertexKind::kPost) {
    throw GraphError("handshake completion needs a post vertex");
  }
  // From the send's completion (ts + o): + o + 3L + B + o.
  add_completion_edge_raw(send, waiter, 2, 3, vertices_[send].bytes);
  // From the post's completion (t_post + o): + o + 2L + B + o.
  add_completion_edge_raw(post, waiter, 2, 2, vertices_[send].bytes);
}

void Graph::add_completion_edge_raw(VertexId from, VertexId to, int o_mult,
                                    int l_mult, std::uint64_t bytes) {
  // Endpoints and kinds are checked by add_handshake_completion_edges.
  edges_.push_back({from, to, EdgeKind::kSendCompletion,
                    static_cast<std::uint8_t>(o_mult),
                    static_cast<std::uint8_t>(l_mult), bytes});
}

void Graph::finalize() {
  require_building();
  const std::size_t n = vertices_.size();

  // Campaigns cache finalized graphs for their whole run, so trim any
  // construction slack (up to ~2x after geometric growth) now.  A builder
  // that reserved the final sizes (schedgen does) leaves none, and then
  // nothing is copied.
  vertices_.shrink_to_fit();
  edges_.shrink_to_fit();

  // CSR adjacency by counting sort: count into offsets[key], prefix-sum to
  // range ends, then fill back to front so every range ascends by edge id
  // and ends on its start.  assign/resize size every array exactly.
  const std::uint32_t ne = static_cast<std::uint32_t>(edges_.size());
  out_offsets_.assign(n + 1, 0);
  for (const Edge& e : edges_) ++out_offsets_[e.from];
  std::partial_sum(out_offsets_.begin(), out_offsets_.end(),
                   out_offsets_.begin());
  out_adj_.resize(ne);
  for (std::uint32_t idx = ne; idx-- > 0;) {
    out_adj_[--out_offsets_[edges_[idx].from]] = {edges_[idx].to, idx};
  }

  // Comm-edge pairing invariants + partner table.
  comm_partner_.assign(n, kInvalidVertex);
  for (const Edge& e : edges_) {
    if (e.kind != EdgeKind::kComm) continue;
    if (comm_partner_[e.from] != kInvalidVertex) {
      throw GraphError(strformat("send vertex %u has multiple comm edges",
                                 e.from));
    }
    if (comm_partner_[e.to] != kInvalidVertex) {
      throw GraphError(strformat("recv vertex %u has multiple comm edges",
                                 e.to));
    }
    comm_partner_[e.from] = e.to;
    comm_partner_[e.to] = e.from;
  }
  for (VertexId v = 0; v < n; ++v) {
    const VertexKind k = vertices_[v].kind;
    if ((k == VertexKind::kSend || k == VertexKind::kRecv) &&
        comm_partner_[v] == kInvalidVertex) {
      throw GraphError(strformat("%s vertex %u has no comm edge",
                                 k == VertexKind::kSend ? "send" : "recv", v));
    }
  }

  // Kahn topological sort; detects cycles (a cycle through rendezvous
  // completion edges corresponds to a real MPI deadlock).
  topo_.clear();
  topo_.reserve(n);
  std::vector<std::uint32_t> indeg(n, 0);
  for (const Edge& e : edges_) ++indeg[e.to];
  std::vector<VertexId> frontier;
  for (VertexId v = 0; v < n; ++v) {
    if (indeg[v] == 0) frontier.push_back(v);
  }
  while (!frontier.empty()) {
    const VertexId v = frontier.back();
    frontier.pop_back();
    topo_.push_back(v);
    const auto oes = std::span(out_adj_).subspan(
        out_offsets_[v], out_offsets_[v + 1] - out_offsets_[v]);
    for (const Adj& a : oes) {
      if (--indeg[a.other] == 0) frontier.push_back(a.other);
    }
  }
  if (topo_.size() != n) {
    throw GraphError(strformat("cycle detected (deadlock?): %zu of %zu "
                               "vertices sorted", topo_.size(), n));
  }

  // Topo slots: the in-edge CSR keyed by the head's topo position.
  TopoSlots& ts = slots_;
  ts.pos_of.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) ts.pos_of[topo_[i]] = i;
  ts.offsets.assign(n + 1, 0);
  for (const Edge& e : edges_) ++ts.offsets[ts.pos_of[e.to]];
  ts.max_in_degree = *std::max_element(ts.offsets.begin(), ts.offsets.end());
  std::partial_sum(ts.offsets.begin(), ts.offsets.end(), ts.offsets.begin());
  ts.pred.resize(ne);
  ts.edge.resize(ne);
  ts.slot_of.resize(ne);
  for (std::uint32_t idx = ne; idx-- > 0;) {
    const Edge& e = edges_[idx];
    const std::uint32_t j = --ts.offsets[ts.pos_of[e.to]];
    ts.pred[j] = ts.pos_of[e.from];
    ts.edge[j] = idx;
    ts.slot_of[idx] = j;
  }
  for (VertexId v = 0; v < n; ++v) {
    if (out_offsets_[v] == out_offsets_[v + 1]) {
      ts.sinks.push_back(ts.pos_of[v]);
    }
  }
  ts.sinks.shrink_to_fit();
  finalized_ = true;
}

std::span<const Graph::Adj> Graph::out_edges(VertexId v) const {
  require_finalized();
  return std::span(out_adj_).subspan(out_offsets_[v],
                                     out_offsets_[v + 1] - out_offsets_[v]);
}

std::span<const VertexId> Graph::topo_order() const {
  require_finalized();
  return topo_;
}

const Graph::TopoSlots& Graph::topo_slots() const {
  require_finalized();
  return slots_;
}

std::pair<int, int> Graph::edge_wire_pair(const Edge& e) const {
  switch (e.kind) {
    case EdgeKind::kComm:
      return {vertices_[e.from].rank, vertices_[e.to].rank};
    case EdgeKind::kIssue:
      // Target is the recv; the wire belongs to (sender, receiver).
      return {vertices_[e.to].peer, vertices_[e.to].rank};
    case EdgeKind::kSendCompletion:
      // Source may be the matched recv (blocking), the send itself, or the
      // receiver's post vertex; all attribute to (sender, receiver).
      switch (vertices_[e.from].kind) {
        case VertexKind::kSend:
          return {vertices_[e.from].rank, vertices_[e.from].peer};
        case VertexKind::kRecv:
        case VertexKind::kPost:
        default:
          return {vertices_[e.from].peer, vertices_[e.from].rank};
      }
    case EdgeKind::kLocal:
    default:
      return {vertices_[e.from].rank, vertices_[e.from].rank};
  }
}

std::size_t Graph::memory_bytes() const {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  const TopoSlots& ts = slots_;
  return bytes(vertices_) + bytes(edges_) + bytes(out_offsets_) +
         bytes(out_adj_) + bytes(topo_) + bytes(ts.offsets) + bytes(ts.pred) +
         bytes(ts.edge) + bytes(ts.slot_of) + bytes(ts.pos_of) +
         bytes(ts.sinks) + bytes(comm_partner_);
}

std::string Graph::stats_string() const {
  std::size_t calc = 0, send = 0, recv = 0, post = 0;
  for (const Vertex& v : vertices_) {
    switch (v.kind) {
      case VertexKind::kCalc: ++calc; break;
      case VertexKind::kSend: ++send; break;
      case VertexKind::kRecv: ++recv; break;
      case VertexKind::kPost: ++post; break;
    }
  }
  return strformat("graph{ranks=%d vertices=%zu (calc=%zu send=%zu recv=%zu "
                   "post=%zu) edges=%zu comm=%zu bytes=%zu}",
                   nranks_, vertices_.size(), calc, send, recv, post,
                   edges_.size(), num_comm_edges_, memory_bytes());
}

}  // namespace llamp::graph
