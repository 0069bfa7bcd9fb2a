#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "loggops/params.hpp"
#include "lp/param_space.hpp"
#include "lp/parametric.hpp"
#include "trace/builder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

// Reference parameter spaces.  The library lowers neither: they are the
// tests' independent references for what it computes another way.
namespace llamp::lp {

/// Two decision variables: latency L (param 0) and gap-per-byte G (param 1).
/// Its dense solve's gradient[1] at G is λ_G by definition: the reference
/// for the critical-path sum the analyzer reports, and a multi-term
/// (CSR-lowered) space.
class LatencyBandwidthParamSpace final : public ParamSpace {
 public:
  explicit LatencyBandwidthParamSpace(loggops::Params p) : p_(p) {
    p_.validate();
  }

  int num_params() const override { return 2; }
  std::string param_name(int k) const override { return k == 0 ? "l" : "G"; }
  double base_value(int k) const override { return k == 0 ? p_.L : p_.G; }
  Affine edge_cost(const graph::Graph&, const graph::Edge& e) const override {
    Affine a;
    a.constant = static_cast<double>(e.o_mult) * p_.o;
    if (e.l_mult != 0) {
      a.terms.push_back({0, static_cast<double>(e.l_mult)});
    }
    if (e.bytes > 1) {
      a.terms.push_back({1, static_cast<double>(e.bytes - 1)});
    }
    return a;
  }
  const loggops::Params& params() const override { return p_; }

 private:
  loggops::Params p_;
};

/// Wraps another space and scales every edge's whole affine cost, constant
/// and parametric terms alike, by a per-edge factor indexed by edge id
/// (finite, >= 0).  A multiplicative factor keeps the cost affine, so one
/// problem lowered over it is one perturbed LP evaluation, and a factor of
/// exactly 1.0 leaves an edge's terms bitwise unchanged.  The bitwise
/// reference for LoweredProblem::relower, the Monte Carlo general path's
/// in-place re-lowering.
class PerturbedParamSpace final : public ParamSpace {
 public:
  PerturbedParamSpace(std::shared_ptr<const ParamSpace> base,
                      std::vector<double> edge_factor)
      : base_(std::move(base)), edge_factor_(std::move(edge_factor)) {
    if (!base_) throw LpError("perturbed space: null base space");
    for (const double f : edge_factor_) {
      if (!std::isfinite(f) || f < 0.0) {
        throw LpError(strformat(
            "perturbed space: edge factors must be finite and >= 0 (got %g)",
            f));
      }
    }
  }

  int num_params() const override { return base_->num_params(); }
  std::string param_name(int k) const override {
    return base_->param_name(k);
  }
  double base_value(int k) const override { return base_->base_value(k); }
  Affine edge_cost(const graph::Graph& g,
                   const graph::Edge& e) const override {
    if (edge_factor_.size() != g.num_edges()) {
      throw LpError(strformat(
          "perturbed space: %zu edge factors for a graph with %zu edges",
          edge_factor_.size(), g.num_edges()));
    }
    const auto edges = g.edges();
    const std::size_t id = static_cast<std::size_t>(&e - edges.data());
    if (id >= edges.size()) {
      throw LpError("perturbed space: edge does not belong to this graph");
    }
    Affine a = base_->edge_cost(g, e);
    const double f = edge_factor_[id];
    a.constant *= f;
    for (ParamTerm& t : a.terms) t.coeff *= f;
    return a;
  }
  const loggops::Params& params() const override { return base_->params(); }

 private:
  std::shared_ptr<const ParamSpace> base_;
  std::vector<double> edge_factor_;
};

}  // namespace llamp::lp

namespace llamp::testing {

/// One tolerance search as a one-lane pooled call: the largest value of
/// parameter k, from `from` up, keeping T <= budget.  `at`, when given,
/// is solve(k, from).point() and opens the search without a re-solve.
inline double tolerance(const lp::LoweredProblem& prob, int k, double from,
                        double budget, lp::LoweredProblem::Cursor& cur,
                        const lp::LoweredProblem::BatchPoint* at = nullptr) {
  double out = 0.0;
  prob.max_param_for_budget_from_batch(k, &from, &budget, 1, cur, &out, at);
  return out;
}

/// The same search from parameter k's base value on a fresh cursor.
inline double tolerance(const lp::LoweredProblem& prob, int k, double budget) {
  lp::LoweredProblem::Cursor cur;
  return tolerance(prob, k, prob.space().base_value(k), budget, cur);
}

/// Deterministic random MPI program generator for property tests.  Programs
/// are generated causally (every operation depends only on operations
/// generated earlier), so the resulting execution graphs are acyclic by
/// construction for any rendezvous threshold.
struct RandomProgramConfig {
  int nranks = 6;
  int steps = 120;
  std::uint64_t seed = 1;
  bool collectives = true;
  bool nonblocking = true;
  /// Probability that a message is rendezvous-sized (>= 256 KiB).
  double large_message_prob = 0.15;
  double max_compute_ns = 50'000.0;
};

inline trace::Trace random_trace(const RandomProgramConfig& cfg) {
  Rng rng(cfg.seed);
  trace::TraceBuilder tb(cfg.nranks);
  // Pending nonblocking requests.  A send's wait must never be issued while
  // its matching receive's wait is still pending: under the rendezvous
  // protocol that ordering is a real MPI deadlock (the send completes only
  // after the receive does), and this generator only produces deadlock-free
  // programs.  Deadlock *detection* is tested separately in test_schedgen.
  struct Pending {
    int rank;
    std::int64_t req;
    int pair_id;
    bool is_recv;
  };
  std::vector<Pending> pending;

  const auto flush_index = [&](std::size_t i) {
    const Pending p = pending[i];
    if (!p.is_recv) {
      // Flush the matching receive's wait first if it is still open.
      for (std::size_t j = 0; j < pending.size(); ++j) {
        if (pending[j].is_recv && pending[j].pair_id == p.pair_id) {
          tb.wait(pending[j].rank, pending[j].req);
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(j));
          break;
        }
      }
      for (std::size_t j = 0; j < pending.size(); ++j) {
        if (!pending[j].is_recv && pending[j].pair_id == p.pair_id) {
          i = j;
          break;
        }
      }
    }
    tb.wait(pending[i].rank, pending[i].req);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
  };

  const auto flush_one = [&] {
    if (pending.empty()) return;
    flush_index(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1)));
  };

  for (int s = 0; s < cfg.steps; ++s) {
    const double dice = rng.uniform();
    const int a = static_cast<int>(rng.uniform_int(0, cfg.nranks - 1));
    int b = static_cast<int>(rng.uniform_int(0, cfg.nranks - 2));
    if (b >= a) ++b;
    const bool large = rng.bernoulli(cfg.large_message_prob);
    const std::uint64_t bytes =
        large ? static_cast<std::uint64_t>(rng.uniform_int(256 * 1024, 400 * 1024))
              : static_cast<std::uint64_t>(rng.uniform_int(8, 32 * 1024));
    const int tag = static_cast<int>(rng.uniform_int(0, 3));

    if (dice < 0.35) {
      tb.compute(a, rng.uniform(0.0, cfg.max_compute_ns));
    } else if (dice < 0.6 || !cfg.nonblocking) {
      tb.send(a, b, bytes, tag);
      tb.recv(b, a, bytes, tag);
    } else if (dice < 0.85) {
      pending.push_back({a, tb.isend(a, b, bytes, tag), s, false});
      pending.push_back({b, tb.irecv(b, a, bytes, tag), s, true});
      while (pending.size() > 12) flush_one();
    } else if (cfg.collectives) {
      switch (rng.uniform_int(0, 4)) {
        case 0: tb.allreduce_all(static_cast<std::uint64_t>(rng.uniform_int(8, 4096))); break;
        case 1: tb.barrier_all(); break;
        case 2: tb.bcast_all(1024, static_cast<int>(rng.uniform_int(0, cfg.nranks - 1))); break;
        case 3: tb.allgather_all(512); break;
        default: tb.reduce_all(2048, 0); break;
      }
    } else {
      tb.compute(b, rng.uniform(0.0, cfg.max_compute_ns));
    }
  }
  while (!pending.empty()) flush_one();
  return tb.finish();
}

/// The paper's running example (Fig. 4c): two ranks, one eager 4-byte
/// message, o = 0, G = 5 ns/B, computes 0.1 / 1 / 0.5 / 1 us.
/// Known results: T(L) = max(L + 1115 ns, 1500 ns), L_c = 385 ns,
/// T(500 ns) = 1615 ns, 2 us-budget tolerance = 885 ns.
inline graph::Graph running_example_graph() {
  graph::Graph g(2);
  const auto c0 = g.add_calc(0, 100.0);
  const auto s = g.add_send(0, 1, 4);
  const auto c1 = g.add_calc(0, 1000.0);
  const auto c2 = g.add_calc(1, 500.0);
  const auto r = g.add_recv(1, 0, 4);
  const auto c3 = g.add_calc(1, 1000.0);
  g.add_local_edge(c0, s);
  g.add_local_edge(s, c1);
  g.add_local_edge(c2, r);
  g.add_local_edge(r, c3);
  g.add_comm_edge(s, r, /*rendezvous=*/false);
  g.finalize();
  return g;
}

inline loggops::Params running_example_params() {
  loggops::Params p;
  p.L = 0.0;
  p.o = 0.0;
  p.G = 5.0;
  p.S = 1 << 20;
  return p;
}

}  // namespace llamp::testing
