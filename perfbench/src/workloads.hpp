#pragma once
// The benchmark workloads and the two measured phases every run is made of.
//
// Every workload measures every end-to-end metric, so each run interleaves
// two phases with the workload's own inputs:
//   * solve rounds — one NPB solve of each of the six variants (sac,
//     direct, f77, omp, mpi over msg::World, mpi over loopback TCP) at the
//     workload's class and thread count, in an order shuffled per round
//     from the seed, the four single-process solves in lockstep;
//   * serve blocks — open-loop Poisson arrivals of class-S requests into a
//     SolverService: a stretch at the fixed 100 req/s, then one probe of the
//     search for the highest rate that meets the latency limit.
// Rounds and blocks alternate in proportion to the workload's split of
// --seconds, so both phases see the same spread of host conditions.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sacpp/mg/spec.hpp"
#include "sacpp/msg/msg.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  sacpp::mg::MgClass cls = sacpp::mg::MgClass::W;
  unsigned threads = 1;      // sac/direct implicit MT and OpenMP team size
  // Share of --seconds spent in solve rounds when the run also serves
  // (traced runs); untraced runs spend all of it in solve rounds.
  double solve_share = 0.5;
  // Solves per round of each message-passing variant.  They cannot join
  // the lockstep, and their times spread most within a run (every message
  // is a thread wake-up), so they are sampled more often than once a round.
  int mp_solves = 1;
};

// Outcome bookkeeping shared by all phases.
struct RunState {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;        // wrong answers and solver exceptions
  bool inject_wrong_norm = false; // self-test: corrupt the first solve's norm
  std::vector<double> setup_passes;  // seconds of each solve round's set-up
  // The serve phase's set-up: reference solves plus one service start.
  double serve_setup_s = 0.0;
  // Every sample behind a median, by metric name, for the run record.
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> diagnostics;

  void fail(const std::string& why, bool wrong_answer);
};

// Relative agreement used for every cross-check of norms.
inline bool agrees(double got, double want, double rel = 1e-12) {
  const double scale = want < 0 ? -want : want;
  const double diff = got > want ? got - want : want - got;
  return diff <= rel * scale;
}

// Run `fn` on both ranks of a two-rank world, in process or over loopback
// TCP (one transport and one rank thread per rank).  Returns the summed
// traffic of both ranks; `rendezvous_s` (TCP only) receives the slower
// rank's transport construction time.
sacpp::msg::WorldStats run_two_ranks(
    bool tcp, const std::function<void(sacpp::msg::Comm&)>& fn,
    double* rendezvous_s);

class SolvePhase {
 public:
  SolvePhase(const Workload& w, RunState& st);
  ~SolvePhase();
  SolvePhase(const SolvePhase&) = delete;
  SolvePhase& operator=(const SolvePhase&) = delete;

  void round(Rng& rng);
  void finish();

 private:
  struct State;
  std::unique_ptr<State> s_;
};

class ServePhase {
 public:
  explicit ServePhase(RunState& st);  // the serial reference solves
  ~ServePhase();
  ServePhase(const ServePhase&) = delete;
  ServePhase& operator=(const ServePhase&) = delete;

  // Blocks that make one full rotation of the generator over the cores.
  int rotation() const;
  void block(double seconds, Rng& rng);
  // Set-up only: one service start and stop, with no traffic.
  void time_start();
  void finish();

 private:
  struct State;
  std::unique_ptr<State> s_;
};

// Per-layer measurements that only the traced run makes.
void run_layer_sweeps(const Workload& w, RunState& st);

}  // namespace perfbench
