#include "schedgen/schedgen.hpp"

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <utility>

#include "schedgen/collectives.hpp"
#include "util/error.hpp"
#include "util/id_table.hpp"
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

/// A nonblocking request while its rank's stream is walked; its peer, tag
/// and send or post vertex are on its record.
struct RequestInfo {
  std::uint64_t bytes = 0;
  std::uint32_t record = 0;  // its index in the send or recv records
  bool is_recv = false;
  bool waited = false;
};

/// A send or posted receive awaiting matching: `vertex` is the send vertex
/// or the receive's completion vertex (invalid until an irecv's wait lands),
/// `post` an irecv's post vertex, and `completion` a rendezvous send's
/// completion vertex: the anchor after a blocking send, the wait of an
/// isend (invalid until that wait lands, and for eager sends).
struct MsgRecord {
  int src = 0;
  int dst = 0;
  int tag = 0;
  graph::VertexId vertex = graph::kInvalidVertex;
  graph::VertexId post = graph::kInvalidVertex;
  graph::VertexId completion = graph::kInvalidVertex;
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

/// One stable counting pass: `out` gets `in` ordered by rank(record), a
/// rank in [0, P), in input order within a rank.
template <typename Rank>
void counting_pass(const std::vector<MsgRecord>& in,
                   std::vector<MsgRecord>& out,
                   std::vector<std::size_t>& start, int P, Rank rank) {
  start.assign(static_cast<std::size_t>(P) + 1, 0);
  const auto bucket = [&](const MsgRecord& m) {
    return static_cast<std::size_t>(rank(m));
  };
  for (const MsgRecord& m : in) ++start[bucket(m) + 1];
  for (std::size_t r = 1; r < start.size(); ++r) start[r] += start[r - 1];
  out.resize(in.size());
  for (const MsgRecord& m : in) out[start[bucket(m)]++] = m;
}

/// Stable-sorts records already ordered by (src, dst) by tag within each
/// (src, dst) run; a run already in tag order is left as it is.
void order_tags(std::vector<MsgRecord>& records) {
  for (std::size_t b = 0; b < records.size();) {
    std::size_t e = b + 1;
    bool ordered = true;
    while (e < records.size() && records[e].src == records[b].src &&
           records[e].dst == records[b].dst) {
      ordered = ordered && records[e - 1].tag <= records[e].tag;
      ++e;
    }
    if (!ordered) {
      std::stable_sort(
          records.begin() + static_cast<std::ptrdiff_t>(b),
          records.begin() + static_cast<std::ptrdiff_t>(e),
          [](const MsgRecord& x, const MsgRecord& y) { return x.tag < y.tag; });
    }
    b = e;
  }
}

/// Adds comm and rendezvous-completion edges; the k-th send of a (src, dst,
/// tag) key pairs with the k-th receive posted for it (non-overtaking).
/// The walk emits sends grouped by src and receives grouped by dst, each in
/// program order, so stable counting passes (sends by dst, then both by src)
/// and a tag sort inside the (src, dst) runs that need one give the records
/// in key order with program order kept within a key, as a stable sort by
/// key would.  The merge visits keys in ascending order, so edge ids match
/// a key-ordered walk.  Recv-only keys are reported once every send key has
/// matched.  The records are taken by value so they are freed before the
/// caller's Graph::finalize() allocates.
void match_messages(graph::Graph& g, std::vector<MsgRecord> sends,
                    std::vector<MsgRecord> recvs, const Options& opts) {
  const int P = g.nranks();
  std::vector<MsgRecord> tmp;
  std::vector<std::size_t> start;
  const auto by_src = [](const MsgRecord& m) { return m.src; };
  counting_pass(sends, tmp, start, P,
                [](const MsgRecord& m) { return m.dst; });
  counting_pass(tmp, sends, start, P, by_src);
  counting_pass(recvs, tmp, start, P, by_src);
  recvs.swap(tmp);
  order_tags(sends);
  order_tags(recvs);

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
      const MsgRecord& send = sends[i + k];
      const MsgRecord& recv = recvs[j + k];
      if (recv.vertex == graph::kInvalidVertex) {
        throw SchedError(strformat("recv %d<-%d tag %d slot %zu never "
                                   "completed by a wait",
                                   key.dst, key.src, key.tag, k));
      }
      const bool is_rdzv =
          g.vertex(send.vertex).bytes >= opts.rendezvous_threshold;
      g.add_comm_edge(send.vertex, recv.vertex, is_rdzv);
      if (is_rdzv && send.completion != graph::kInvalidVertex) {
        if (recv.post == graph::kInvalidVertex) {
          // Blocking receiver: its recv vertex completes exactly at t_r'.
          g.add_send_completion_edge(recv.vertex, send.completion);
        } else {
          // Nonblocking receiver: the handshake does not wait for the
          // receiver's MPI_Wait, only for the posting.
          g.add_handshake_completion_edges(send.vertex, recv.post,
                                           send.completion);
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

/// The final sizes of the graph build_graph_from_streams makes, so every
/// array is allocated once at its final length and finalize() trims
/// nothing.  Each op makes one vertex and one in-rank edge (program order
/// or a rendezvous issue edge), a blocking rendezvous send one more of each
/// (its completion anchor), and every rank two sentinels and one closing
/// edge.  Each send adds a comm edge; a matched rendezvous receive adds one
/// completion edge when blocking, and an issue edge at its wait plus two
/// handshake edges when nonblocking (a send and its receive carry the same
/// bytes once the build succeeds).
struct BuildSizes {
  std::size_t vertices = 0;
  std::size_t edges = 0;
  std::size_t sends = 0;
  std::size_t recvs = 0;
};

BuildSizes build_sizes(const std::vector<MidStream>& streams,
                       const Options& opts) {
  BuildSizes n;
  std::size_t rdzv_recvs = 0;
  std::size_t rdzv_irecvs = 0;
  for (const MidStream& stream : streams) {
    n.vertices += 2 + stream.size();
    for (const MidOp& op : stream) {
      const bool rdzv = op.bytes >= opts.rendezvous_threshold;
      switch (op.kind) {
        case MidOp::Kind::kSend:
          n.vertices += rdzv;
          [[fallthrough]];
        case MidOp::Kind::kIsend:
          ++n.sends;
          break;
        case MidOp::Kind::kRecv:
          rdzv_recvs += rdzv;
          ++n.recvs;
          break;
        case MidOp::Kind::kIrecv:
          rdzv_irecvs += rdzv;
          ++n.recvs;
          break;
        case MidOp::Kind::kCalc:
        case MidOp::Kind::kWait:
          break;
      }
    }
  }
  n.edges = n.vertices - streams.size() + n.sends + rdzv_recvs +
            3 * rdzv_irecvs;
  return n;
}

}  // namespace

graph::Graph build_graph_from_streams(const std::vector<MidStream>& streams,
                                      const Options& opts) {
  const int P = static_cast<int>(streams.size());
  if (P == 0) throw SchedError("no ranks");
  graph::Graph g(P);
  const BuildSizes sizes = build_sizes(streams, opts);
  g.reserve(sizes.vertices, sizes.edges);

  const auto rdzv = [&](std::uint64_t bytes) {
    return bytes >= opts.rendezvous_threshold;
  };

  // Every send and posted receive, in program order per rank.
  std::vector<MsgRecord> sends;
  std::vector<MsgRecord> recvs;
  sends.reserve(sizes.sends);
  recvs.reserve(sizes.recvs);
  // The walked rank's requests; cleared, not freed, between ranks.
  IdTable<RequestInfo> requests;

  for (int r = 0; r < P; ++r) {
    const MidStream& stream = streams[static_cast<std::size_t>(r)];
    requests.clear();
    std::size_t unwaited = 0;
    // Every rank starts and ends with a zero-cost calc sentinel so that all
    // chains (and rendezvous completion edges) have anchors.
    graph::VertexId prev = g.add_calc(r, 0.0);

    const auto chain = [&](graph::VertexId v, bool add_local = true) {
      if (add_local) g.add_local_edge(prev, v);
      prev = v;
    };
    // An id is free again once its request was waited on, as in
    // Trace::validate.
    const auto open_request = [&](const MidOp& op, const RequestInfo& info) {
      const auto [slot, fresh] = requests.insert(op.request);
      if (!fresh && !slot->waited) {
        throw SchedError(strformat("rank %d: duplicate request %lld", r,
                                   static_cast<long long>(op.request)));
      }
      *slot = info;
      ++unwaited;
    };

    for (const MidOp& op : stream) {
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
            sends.back().completion = anchor;
          }
          break;
        }
        case MidOp::Kind::kIsend: {
          const graph::VertexId v = g.add_send(r, op.peer, op.bytes, op.tag);
          chain(v);
          open_request(op, {op.bytes, static_cast<std::uint32_t>(sends.size()),
                            /*is_recv=*/false});
          sends.push_back({r, op.peer, op.tag, v});
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
          // Record the receive now: MPI matches receives in *posting*
          // order, not wait order.
          open_request(op, {op.bytes, static_cast<std::uint32_t>(recvs.size()),
                            /*is_recv=*/true});
          recvs.push_back({op.peer, r, op.tag, graph::kInvalidVertex, post});
          break;
        }
        case MidOp::Kind::kWait: {
          RequestInfo* info = requests.find(op.request);
          if (info == nullptr || info->waited) {
            throw SchedError(strformat("rank %d: wait on unknown or already "
                                       "completed request %lld", r,
                                       static_cast<long long>(op.request)));
          }
          info->waited = true;
          --unwaited;
          if (info->is_recv) {
            MsgRecord& recv = recvs[info->record];
            const graph::VertexId w =
                g.add_recv(r, recv.src, info->bytes, recv.tag);
            chain(w);
            if (rdzv(info->bytes)) {
              g.add_issue_edge(recv.post, w, /*through_post=*/true);
            }
            recv.vertex = w;
          } else {
            const graph::VertexId w = g.add_calc(r, 0.0);
            chain(w);
            if (rdzv(info->bytes)) sends[info->record].completion = w;
          }
          break;
        }
      }
    }
    // Closing sentinel.
    chain(g.add_calc(r, 0.0));
    if (unwaited != 0) {
      // Name the first request the rank posted and never waited on.  Only
      // an id's last posting can still be open (a repost needs a wait), so
      // walk back closing each open id at its last posting: the last id
      // closed is the one posted first.
      std::int64_t first = -1;
      for (auto op = stream.rbegin(); op != stream.rend(); ++op) {
        if (op->kind != MidOp::Kind::kIsend &&
            op->kind != MidOp::Kind::kIrecv) {
          continue;
        }
        RequestInfo& info = *requests.find(op->request);
        if (!info.waited) {
          info.waited = true;
          first = op->request;
        }
      }
      throw SchedError(strformat("rank %d: request %lld never waited on", r,
                                 static_cast<long long>(first)));
    }
  }

  match_messages(g, std::move(sends), std::move(recvs), opts);
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
