// The benchmark's three workloads (see perfbench/README.md for why each
// exists and which layer metric should move which end-to-end metric).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;    ///< root for backend directories
  std::string trace_out;  ///< Chrome trace JSON path (traced runs)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  /// The metrics printed in the result object: the gated end-to-end set
  /// (untraced run) or the per-layer set (traced run).
  std::vector<Metric> metrics;
  /// Everything else worth reading, printed as a table above the result.
  std::vector<Metric> details;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
};

/// Runs `opt.workload`; false with `*error` set when the name is unknown or
/// set-up fails before anything is measured.
bool run_workload(const Options& opt, Outcome* out, std::string* error);

}  // namespace perfbench
