#include "schedgen/schedgen.hpp"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "schedgen/collectives.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp::schedgen {

namespace {

/// Request ids generated for collective expansions live far above any id a
/// tracer would produce, so they can share the per-rank id space.
constexpr std::int64_t kCollectiveReqBase = std::int64_t{1} << 40;

}  // namespace

std::vector<MidStream> expand_trace(const trace::Trace& t,
                                    const Options& opts) {
  t.validate();
  const int P = t.nranks();
  std::vector<MidStream> streams(static_cast<std::size_t>(P));
  std::vector<std::int64_t> next_req(static_cast<std::size_t>(P),
                                     kCollectiveReqBase);
  for (int r = 0; r < P; ++r) {
    MidStream& out = streams[static_cast<std::size_t>(r)];
    TimeNs prev_end = 0.0;
    bool first = true;
    for (const trace::Event& e : t.rank(r)) {
      if (!first) {
        const TimeNs gap = (e.start - prev_end) * opts.compute_scale;
        if (gap > 0.0) out.push_back(MidOp::calc(gap));
      }
      first = false;
      prev_end = e.end;
      switch (e.op) {
        case trace::Op::kInit:
        case trace::Op::kFinalize:
          break;
        case trace::Op::kSend:
          out.push_back(MidOp::send(e.peer, e.bytes, e.tag));
          break;
        case trace::Op::kRecv:
          out.push_back(MidOp::recv(e.peer, e.bytes, e.tag));
          break;
        case trace::Op::kIsend:
          out.push_back(MidOp::isend(e.peer, e.bytes, e.tag, e.request));
          break;
        case trace::Op::kIrecv:
          out.push_back(MidOp::irecv(e.peer, e.bytes, e.tag, e.request));
          break;
        case trace::Op::kWait:
          out.push_back(MidOp::wait(e.request));
          break;
        case trace::Op::kBarrier:
          expand_barrier({out, r, P, next_req[static_cast<std::size_t>(r)]},
                         opts.barrier);
          break;
        case trace::Op::kBcast:
          expand_bcast({out, r, P, next_req[static_cast<std::size_t>(r)]},
                       e.bytes, e.root, opts.bcast);
          break;
        case trace::Op::kReduce:
          expand_reduce({out, r, P, next_req[static_cast<std::size_t>(r)]},
                        e.bytes, e.root, opts.reduce);
          break;
        case trace::Op::kAllreduce:
          expand_allreduce({out, r, P, next_req[static_cast<std::size_t>(r)]},
                           e.bytes, opts.allreduce);
          break;
        case trace::Op::kAllgather:
          expand_allgather({out, r, P, next_req[static_cast<std::size_t>(r)]},
                           e.bytes, opts.allgather);
          break;
        case trace::Op::kReduceScatter:
          expand_reduce_scatter(
              {out, r, P, next_req[static_cast<std::size_t>(r)]}, e.bytes,
              opts.reduce_scatter);
          break;
        case trace::Op::kGather:
          expand_gather({out, r, P, next_req[static_cast<std::size_t>(r)]},
                        e.bytes, e.root, opts.gather);
          break;
        case trace::Op::kScatter:
          expand_scatter({out, r, P, next_req[static_cast<std::size_t>(r)]},
                         e.bytes, e.root, opts.scatter);
          break;
        case trace::Op::kAlltoall:
          expand_alltoall({out, r, P, next_req[static_cast<std::size_t>(r)]},
                          e.bytes, opts.alltoall);
          break;
      }
    }
  }
  return streams;
}

namespace {

/// State tracked while materializing one rank's stream into graph vertices.
struct RequestInfo {
  bool is_recv = false;
  graph::VertexId vertex = graph::kInvalidVertex;  // send vertex / post vertex
  std::int32_t peer = -1;
  std::uint64_t bytes = 0;
  std::int32_t tag = 0;
  std::size_t recv_slot = 0;  // index into the recv record array (recvs only)
  bool waited = false;
};

/// A send or posted receive awaiting matching: `vertex` is the send vertex
/// or the receive's completion vertex (invalid until an irecv's wait lands),
/// `post` an irecv's post vertex (invalid for sends and blocking receives).
struct MsgRecord {
  int src = 0;
  int dst = 0;
  int tag = 0;
  graph::VertexId vertex = graph::kInvalidVertex;
  graph::VertexId post = graph::kInvalidVertex;
};

bool key_less(const MsgRecord& a, const MsgRecord& b) {
  return std::tie(a.src, a.dst, a.tag) < std::tie(b.src, b.dst, b.tag);
}

/// End of the run of `key` in key-sorted `records` starting at `from`,
/// where records[from..] hold no key below `key`.
std::size_t key_run_end(const std::vector<MsgRecord>& records,
                        std::size_t from, const MsgRecord& key) {
  while (from < records.size() && !key_less(key, records[from])) ++from;
  return from;
}

/// Adds comm and rendezvous-completion edges; the k-th send of a (src, dst,
/// tag) key pairs with the k-th receive posted for it (non-overtaking).  The
/// stable sorts keep program order within a key and the merge visits keys in
/// ascending order, so edge ids match a key-ordered walk.  Recv-only keys are
/// reported once every send key has matched.  The state is taken by value so
/// it is freed before the caller's Graph::finalize() allocates.
void match_messages(
    graph::Graph& g, std::vector<MsgRecord> sends,
    std::vector<MsgRecord> recvs,
    std::unordered_map<graph::VertexId, graph::VertexId> completion_target,
    const Options& opts) {
  std::stable_sort(sends.begin(), sends.end(), key_less);
  std::stable_sort(recvs.begin(), recvs.end(), key_less);
  const MsgRecord* orphan = nullptr;  // smallest recv-only key
  std::size_t orphan_count = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < sends.size() || j < recvs.size()) {
    if (i == sends.size() ||
        (j < recvs.size() && key_less(recvs[j], sends[i]))) {
      const std::size_t j_end = key_run_end(recvs, j, recvs[j]);
      if (orphan == nullptr) {
        orphan = &recvs[j];
        orphan_count = j_end - j;
      }
      j = j_end;
      continue;
    }
    const MsgRecord& key = sends[i];
    const std::size_t i_end = key_run_end(sends, i, key);
    const std::size_t j_end = key_run_end(recvs, j, key);
    if (j_end - j != i_end - i) {
      throw SchedError(strformat("unmatched messages %d->%d tag %d: %zu "
                                 "send(s) vs %zu recv(s)",
                                 key.src, key.dst, key.tag, i_end - i,
                                 j_end - j));
    }
    for (std::size_t k = 0; i + k < i_end; ++k) {
      const graph::VertexId s = sends[i + k].vertex;
      const MsgRecord& recv = recvs[j + k];
      if (recv.vertex == graph::kInvalidVertex) {
        throw SchedError(strformat("recv %d<-%d tag %d slot %zu never "
                                   "completed by a wait",
                                   key.dst, key.src, key.tag, k));
      }
      const bool is_rdzv = g.vertex(s).bytes >= opts.rendezvous_threshold;
      g.add_comm_edge(s, recv.vertex, is_rdzv);
      if (is_rdzv) {
        const auto ct = completion_target.find(s);
        if (ct != completion_target.end()) {
          if (recv.post == graph::kInvalidVertex) {
            // Blocking receiver: its recv vertex completes exactly at t_r'.
            g.add_send_completion_edge(recv.vertex, ct->second);
          } else {
            // Nonblocking receiver: the handshake does not wait for the
            // receiver's MPI_Wait, only for the posting.
            g.add_handshake_completion_edges(s, recv.post, ct->second);
          }
        }
      }
    }
    i = i_end;
    j = j_end;
  }
  if (orphan != nullptr) {
    throw SchedError(strformat("%zu recv(s) %d<-%d tag %d have no sender",
                               orphan_count, orphan->dst, orphan->src,
                               orphan->tag));
  }
}

}  // namespace

graph::Graph build_graph_from_streams(const std::vector<MidStream>& streams,
                                      const Options& opts) {
  const int P = static_cast<int>(streams.size());
  if (P == 0) throw SchedError("no ranks");
  graph::Graph g(P);

  const auto rdzv = [&](std::uint64_t bytes) {
    return bytes >= opts.rendezvous_threshold;
  };

  // Every send and posted receive, in program order per rank.
  std::vector<MsgRecord> sends;
  std::vector<MsgRecord> recvs;
  // For rendezvous sends: where the sender-completion edge must point
  // (the wait vertex for isend, the program successor for blocking send).
  std::unordered_map<graph::VertexId, graph::VertexId> completion_target;

  for (int r = 0; r < P; ++r) {
    std::unordered_map<std::int64_t, RequestInfo> requests;
    // Every rank starts and ends with a zero-cost calc sentinel so that all
    // chains (and rendezvous completion edges) have anchors.
    graph::VertexId prev = g.add_calc(r, 0.0);

    const auto chain = [&](graph::VertexId v, bool add_local = true) {
      if (add_local) g.add_local_edge(prev, v);
      prev = v;
    };

    for (const MidOp& op : streams[static_cast<std::size_t>(r)]) {
      switch (op.kind) {
        case MidOp::Kind::kCalc: {
          chain(g.add_calc(r, op.duration));
          break;
        }
        case MidOp::Kind::kSend: {
          const graph::VertexId v = g.add_send(r, op.peer, op.bytes, op.tag);
          chain(v);
          sends.push_back({r, op.peer, op.tag, v});
          if (rdzv(op.bytes)) {
            // A blocking rendezvous send is an isend plus an implicit wait:
            // materialize the completion point as a zero-cost anchor so that
            // everything downstream (including a following rendezvous
            // receive's issue time) starts from t_s', not from the send
            // initiation.
            const graph::VertexId anchor = g.add_calc(r, 0.0);
            chain(anchor);
            completion_target[v] = anchor;
          }
          break;
        }
        case MidOp::Kind::kIsend: {
          const graph::VertexId v = g.add_send(r, op.peer, op.bytes, op.tag);
          chain(v);
          sends.push_back({r, op.peer, op.tag, v});
          RequestInfo info;
          info.is_recv = false;
          info.vertex = v;
          info.peer = op.peer;
          info.bytes = op.bytes;
          info.tag = op.tag;
          if (!requests.emplace(op.request, info).second) {
            throw SchedError(strformat("rank %d: duplicate request %lld", r,
                                       static_cast<long long>(op.request)));
          }
          break;
        }
        case MidOp::Kind::kRecv: {
          const graph::VertexId v = g.add_recv(r, op.peer, op.bytes, op.tag);
          if (rdzv(op.bytes)) {
            // The issue edge subsumes the plain program-order dependency.
            g.add_issue_edge(prev, v, /*through_post=*/false);
            chain(v, /*add_local=*/false);
          } else {
            chain(v);
          }
          recvs.push_back({op.peer, r, op.tag, v});
          break;
        }
        case MidOp::Kind::kIrecv: {
          const graph::VertexId post = g.add_post(r, op.peer);
          chain(post);
          RequestInfo info;
          info.is_recv = true;
          info.vertex = post;
          info.peer = op.peer;
          info.bytes = op.bytes;
          info.tag = op.tag;
          // Record the receive now: MPI matches receives in *posting*
          // order, not wait order.
          info.recv_slot = recvs.size();
          recvs.push_back({op.peer, r, op.tag, graph::kInvalidVertex, post});
          if (!requests.emplace(op.request, info).second) {
            throw SchedError(strformat("rank %d: duplicate request %lld", r,
                                       static_cast<long long>(op.request)));
          }
          break;
        }
        case MidOp::Kind::kWait: {
          const auto it = requests.find(op.request);
          if (it == requests.end() || it->second.waited) {
            throw SchedError(strformat("rank %d: wait on unknown or already "
                                       "completed request %lld", r,
                                       static_cast<long long>(op.request)));
          }
          RequestInfo& info = it->second;
          info.waited = true;
          if (info.is_recv) {
            const graph::VertexId w =
                g.add_recv(r, info.peer, info.bytes, info.tag);
            chain(w);
            if (rdzv(info.bytes)) {
              g.add_issue_edge(info.vertex, w, /*through_post=*/true);
            }
            recvs[info.recv_slot].vertex = w;
          } else {
            const graph::VertexId w = g.add_calc(r, 0.0);
            chain(w);
            if (rdzv(info.bytes)) completion_target[info.vertex] = w;
          }
          break;
        }
      }
    }
    // Closing sentinel.
    chain(g.add_calc(r, 0.0));
    for (const auto& [req, info] : requests) {
      if (!info.waited) {
        throw SchedError(strformat("rank %d: request %lld never waited on", r,
                                   static_cast<long long>(req)));
      }
    }
  }

  match_messages(g, std::move(sends), std::move(recvs),
                 std::move(completion_target), opts);
  g.finalize();
  return g;
}

graph::Graph build_graph(const trace::Trace& t, const Options& opts) {
  return build_graph_from_streams(expand_trace(t, opts), opts);
}

std::string to_string(AllreduceAlgo a) {
  switch (a) {
    case AllreduceAlgo::kRecursiveDoubling: return "recursive-doubling";
    case AllreduceAlgo::kRing: return "ring";
    case AllreduceAlgo::kReduceBcast: return "reduce+bcast";
  }
  return "?";
}

}  // namespace llamp::schedgen
