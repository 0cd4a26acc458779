// perfbench: the CRFS benchmark executable.
//
//   perfbench --workload <ckpt_blcr|restore_blcr|tier_burst> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir> [--trace-out <file>]
//
// Prints a readable report, then as its last line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// Exit code 0 only when every call and every verification succeeded.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <ckpt_blcr|restore_blcr|tier_burst> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir> [--trace-out <file>]\n",
               why);
  return 64;
}

double json_number(double v) { return std::isfinite(v) ? v : 0; }

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 120) {
        return usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return usage("--trace takes 0 or 1");
      opt.trace = v[0] == '1';
    } else if (flag == "--workdir") {
      opt.workdir = v;
    } else if (flag == "--trace-out") {
      opt.trace_out = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty() || opt.workdir.empty()) return usage("--workload and --workdir are required");

  perfbench::Outcome out;
  std::string error;
  if (!perfbench::run_workload(opt, &out, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  for (const auto& n : out.notes) std::printf("  %s\n", n.c_str());
  auto row = [](const perfbench::Metric& m, const char* mark) {
    std::printf("  %-36s %16.6g %-6s %s\n", m.name.c_str(), json_number(m.value), m.unit.c_str(), mark);
  };
  for (const auto& m : out.metrics) row(m, opt.trace ? "[per-layer]" : "[end-to-end]");
  for (const auto& m : out.details) row(m, "");

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", out.metrics[i].name.c_str(), json_number(out.metrics[i].value),
                  out.metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct && out.failed == 0 ? 0 : 1;
}
