#include "trace/trace.hpp"

#include <map>

#include "util/error.hpp"
#include "util/id_table.hpp"
#include "util/strings.hpp"

namespace llamp::trace {

bool is_collective(Op op) {
  switch (op) {
    case Op::kBarrier:
    case Op::kBcast:
    case Op::kReduce:
    case Op::kAllreduce:
    case Op::kAllgather:
    case Op::kReduceScatter:
    case Op::kGather:
    case Op::kScatter:
    case Op::kAlltoall:
      return true;
    default:
      return false;
  }
}

bool is_send(Op op) { return op == Op::kSend || op == Op::kIsend; }
bool is_recv(Op op) { return op == Op::kRecv || op == Op::kIrecv; }

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kInit: return "MPI_Init";
    case Op::kFinalize: return "MPI_Finalize";
    case Op::kSend: return "MPI_Send";
    case Op::kRecv: return "MPI_Recv";
    case Op::kIsend: return "MPI_Isend";
    case Op::kIrecv: return "MPI_Irecv";
    case Op::kWait: return "MPI_Wait";
    case Op::kBarrier: return "MPI_Barrier";
    case Op::kBcast: return "MPI_Bcast";
    case Op::kReduce: return "MPI_Reduce";
    case Op::kAllreduce: return "MPI_Allreduce";
    case Op::kAllgather: return "MPI_Allgather";
    case Op::kReduceScatter: return "MPI_Reduce_scatter";
    case Op::kGather: return "MPI_Gather";
    case Op::kScatter: return "MPI_Scatter";
    case Op::kAlltoall: return "MPI_Alltoall";
  }
  return "MPI_Unknown";
}

Op op_from_name(std::string_view name) {
  static const std::map<std::string_view, Op> kMap = {
      {"MPI_Init", Op::kInit},
      {"MPI_Finalize", Op::kFinalize},
      {"MPI_Send", Op::kSend},
      {"MPI_Recv", Op::kRecv},
      {"MPI_Isend", Op::kIsend},
      {"MPI_Irecv", Op::kIrecv},
      {"MPI_Wait", Op::kWait},
      {"MPI_Barrier", Op::kBarrier},
      {"MPI_Bcast", Op::kBcast},
      {"MPI_Reduce", Op::kReduce},
      {"MPI_Allreduce", Op::kAllreduce},
      {"MPI_Allgather", Op::kAllgather},
      {"MPI_Reduce_scatter", Op::kReduceScatter},
      {"MPI_Gather", Op::kGather},
      {"MPI_Scatter", Op::kScatter},
      {"MPI_Alltoall", Op::kAlltoall},
  };
  const auto it = kMap.find(name);
  if (it == kMap.end()) {
    throw TraceError("unknown operation '" + std::string(name) + "'");
  }
  return it->second;
}

std::size_t Trace::total_events() const {
  std::size_t n = 0;
  for (int r = 0; r < nranks(); ++r) n += rank(r).size();
  return n;
}

void Trace::validate() const {
  if (nranks() == 0) throw TraceError("trace has zero ranks");
  // Collective sequence seen by rank 0 is the reference for all ranks.
  std::vector<Event> coll_ref;
  std::vector<Event> coll_seq;
  // The walked rank's requests, true while open; a waited id may be
  // reused.  Cleared, not freed, between ranks.
  IdTable<bool> requests;
  for (int r = 0; r < nranks(); ++r) {
    const auto& evs = rank(r);
    TimeNs prev_end = 0.0;
    requests.clear();
    std::size_t open = 0;
    coll_seq.clear();
    for (std::size_t i = 0; i < evs.size(); ++i) {
      const Event& e = evs[i];
      if (e.end < e.start) {
        throw TraceError(strformat("rank %d event %zu: end before start", r, i));
      }
      if (e.start < prev_end) {
        throw TraceError(strformat("rank %d event %zu: overlaps predecessor", r, i));
      }
      prev_end = e.end;
      if (is_send(e.op) || is_recv(e.op)) {
        if (e.peer < 0 || e.peer >= nranks()) {
          throw TraceError(strformat("rank %d event %zu: peer %d out of range",
                                     r, i, e.peer));
        }
        if (e.peer == r) {
          throw TraceError(strformat("rank %d event %zu: self-message", r, i));
        }
      }
      if (e.op == Op::kIsend || e.op == Op::kIrecv) {
        if (e.request < 0) {
          throw TraceError(strformat("rank %d event %zu: nonblocking op without "
                                     "request id", r, i));
        }
        bool& is_open = *requests.insert(e.request).first;
        if (is_open) {
          throw TraceError(strformat("rank %d event %zu: duplicate request %lld",
                                     r, i, static_cast<long long>(e.request)));
        }
        is_open = true;
        ++open;
      }
      if (e.op == Op::kWait) {
        bool* is_open = requests.find(e.request);
        if (is_open == nullptr || !*is_open) {
          throw TraceError(strformat("rank %d event %zu: wait on unknown request "
                                     "%lld", r, i,
                                     static_cast<long long>(e.request)));
        }
        *is_open = false;
        --open;
      }
      if (is_collective(e.op)) {
        const bool rooted = e.op == Op::kBcast || e.op == Op::kReduce ||
                            e.op == Op::kGather || e.op == Op::kScatter;
        if (rooted && (e.root < 0 || e.root >= nranks())) {
          throw TraceError(strformat("rank %d event %zu: root %d out of range",
                                     r, i, e.root));
        }
        Event key = e;  // normalize fields that may differ across ranks
        key.start = key.end = 0.0;
        key.request = -1;
        key.peer = -1;
        coll_seq.push_back(key);
      }
    }
    if (open != 0) {
      throw TraceError(strformat("rank %d: %zu request(s) never waited on", r,
                                 open));
    }
    if (r == 0) {
      coll_ref.swap(coll_seq);
    } else if (coll_seq != coll_ref) {
      throw TraceError(strformat("rank %d: collective sequence diverges from "
                                 "rank 0", r));
    }
  }
}

}  // namespace llamp::trace
