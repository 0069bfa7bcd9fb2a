#include "trace/builder.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp::trace {

TraceBuilder::TraceBuilder(int nranks, TimeNs op_duration)
    : trace_(nranks),
      clock_(static_cast<std::size_t>(nranks), 0.0),
      next_request_(static_cast<std::size_t>(nranks), 0),
      op_duration_(op_duration) {
  if (nranks <= 0) throw TraceError("builder: need at least one rank");
  if (op_duration < 0) throw TraceError("builder: negative op duration");
  for (int r = 0; r < nranks; ++r) push(r, Op::kInit);
}

Event& TraceBuilder::push(int rank, Op op) {
  if (finished_) throw TraceError("builder: already finished");
  auto& events = trace_.rank(rank);
  Event e;
  e.op = op;
  e.start = clock_.at(static_cast<std::size_t>(rank));
  e.end = e.start + op_duration_;
  clock_[static_cast<std::size_t>(rank)] = e.end;
  events.push_back(e);
  return events.back();
}

void TraceBuilder::compute(int rank, TimeNs duration) {
  if (finished_) throw TraceError("builder: already finished");
  if (duration < 0) throw TraceError("builder: negative compute duration");
  clock_.at(static_cast<std::size_t>(rank)) += duration;
}

void TraceBuilder::send(int rank, int peer, std::uint64_t bytes, int tag) {
  Event& e = push(rank, Op::kSend);
  e.peer = peer;
  e.bytes = bytes;
  e.tag = tag;
}

void TraceBuilder::recv(int rank, int peer, std::uint64_t bytes, int tag) {
  Event& e = push(rank, Op::kRecv);
  e.peer = peer;
  e.bytes = bytes;
  e.tag = tag;
}

std::int64_t TraceBuilder::isend(int rank, int peer, std::uint64_t bytes,
                                 int tag) {
  Event& e = push(rank, Op::kIsend);
  e.peer = peer;
  e.bytes = bytes;
  e.tag = tag;
  e.request = next_request_.at(static_cast<std::size_t>(rank))++;
  return e.request;
}

std::int64_t TraceBuilder::irecv(int rank, int peer, std::uint64_t bytes,
                                 int tag) {
  Event& e = push(rank, Op::kIrecv);
  e.peer = peer;
  e.bytes = bytes;
  e.tag = tag;
  e.request = next_request_.at(static_cast<std::size_t>(rank))++;
  return e.request;
}

void TraceBuilder::wait(int rank, std::int64_t request) {
  Event& e = push(rank, Op::kWait);
  e.request = request;
}

void TraceBuilder::waitall(int rank, const std::vector<std::int64_t>& requests) {
  for (const auto req : requests) wait(rank, req);
}

void TraceBuilder::collective(int rank, Op op, std::uint64_t bytes, int root) {
  if (!is_collective(op)) {
    throw TraceError(strformat("builder: %s is not a collective",
                               std::string(op_name(op)).c_str()));
  }
  Event& e = push(rank, op);
  e.bytes = bytes;
  e.root = root;
}

void TraceBuilder::barrier_all() {
  for (int r = 0; r < nranks(); ++r) collective(r, Op::kBarrier, 0);
}

void TraceBuilder::bcast_all(std::uint64_t bytes, int root) {
  for (int r = 0; r < nranks(); ++r) collective(r, Op::kBcast, bytes, root);
}

void TraceBuilder::reduce_all(std::uint64_t bytes, int root) {
  for (int r = 0; r < nranks(); ++r) collective(r, Op::kReduce, bytes, root);
}

void TraceBuilder::allreduce_all(std::uint64_t bytes) {
  for (int r = 0; r < nranks(); ++r) collective(r, Op::kAllreduce, bytes);
}

void TraceBuilder::allgather_all(std::uint64_t bytes) {
  for (int r = 0; r < nranks(); ++r) collective(r, Op::kAllgather, bytes);
}

void TraceBuilder::alltoall_all(std::uint64_t bytes) {
  for (int r = 0; r < nranks(); ++r) collective(r, Op::kAlltoall, bytes);
}

TimeNs TraceBuilder::now(int rank) const {
  return clock_.at(static_cast<std::size_t>(rank));
}

Trace TraceBuilder::finish() {
  if (finished_) throw TraceError("builder: finish() called twice");
  for (int r = 0; r < nranks(); ++r) push(r, Op::kFinalize);
  finished_ = true;
  Trace out = std::move(trace_);
  out.validate();
  return out;
}

}  // namespace llamp::trace
