// ThrottledBackendSim: a deliberately concurrency-sensitive backend for
// DES tests of the knob plane, the readahead window and SLO burn rates.
//
// The production backend models (ext3/Lustre/NFS) are faithful but heavy;
// this one isolates one effect — the paper's §IV observation that pushing
// more concurrent IO at a saturated backend makes every call slower.
// Service is one FCFS station whose effective bandwidth at service start
// degrades with the number of calls concurrently pending:
//
//   bw_eff = bw / (1 + alpha * (pending - 1))
//
// A purely linear server would make submission concurrency irrelevant to
// residency (Little's law: halve the concurrency, double the per-call
// wait, same residency); the interference term makes lower submission
// concurrency genuinely drain the station faster. Everything is
// deterministic on virtual time.
#pragma once

#include <cstdint>

#include "sim/backend_sim.h"

namespace crfs::sim {

class ThrottledBackendSim : public BackendSim {
 public:
  struct Options {
    /// Service bandwidth (bytes/s) with a single pending call.
    double bw = 64.0 * 1024 * 1024;
    /// Interference: fractional bandwidth loss per extra pending call.
    double alpha = 0.75;
    /// Fixed per-call cost (seconds) on top of the transfer.
    double per_call = 200e-6;
  };

  explicit ThrottledBackendSim(Simulation& sim) : ThrottledBackendSim(sim, Options{}) {}
  ThrottledBackendSim(Simulation& sim, Options opts)
      : sim_(sim), opts_(opts), station_(sim, 1) {}

  Task write_call(unsigned, FileId, std::uint64_t, std::uint64_t len,
                  bool) override {
    const double arrival = sim_.now();
    pending_ += 1;
    co_await station_.acquire();
    // Interference is sampled once at service start: the crowd that is
    // pending *now* is what degrades this call's transfer.
    const double eff_bw =
        opts_.bw / (1.0 + opts_.alpha * static_cast<double>(pending_ - 1));
    co_await sim_.delay(opts_.per_call + static_cast<double>(len) / eff_bw);
    station_.release();
    pending_ -= 1;
    calls_ += 1;
    bytes_ += len;
    residency_sum_s_ += sim_.now() - arrival;
    if (sim_.now() - arrival > residency_max_s_) {
      residency_max_s_ = sim_.now() - arrival;
    }
  }

  Task close_file(unsigned, FileId, bool) override { co_return; }

  /// Reads share the station (and its interference) with writes: a
  /// restore scan competes with checkpoint traffic exactly where the
  /// shed_readahead policy expects it to.
  Task read_call(unsigned, FileId, std::uint64_t, std::uint64_t len, bool) override {
    pending_ += 1;
    co_await station_.acquire();
    const double eff_bw =
        opts_.bw / (1.0 + opts_.alpha * static_cast<double>(pending_ - 1));
    co_await sim_.delay(opts_.per_call + static_cast<double>(len) / eff_bw);
    station_.release();
    pending_ -= 1;
    read_calls_ += 1;
    read_bytes_ += len;
  }

  void stop() override {}

  // -- Station-side measurements (arrival -> completion) --------------------
  std::uint64_t calls() const { return calls_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t read_calls() const { return read_calls_; }
  std::uint64_t read_bytes() const { return read_bytes_; }
  double mean_residency_s() const {
    return calls_ > 0 ? residency_sum_s_ / static_cast<double>(calls_) : 0.0;
  }
  double max_residency_s() const { return residency_max_s_; }

 private:
  Simulation& sim_;
  const Options opts_;
  Resource station_;
  unsigned pending_ = 0;  ///< calls arrived but not completed

  std::uint64_t calls_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t read_calls_ = 0;
  std::uint64_t read_bytes_ = 0;
  double residency_sum_s_ = 0.0;
  double residency_max_s_ = 0.0;
};

}  // namespace crfs::sim
