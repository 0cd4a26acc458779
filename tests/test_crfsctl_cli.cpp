// End-to-end tests for the crfsctl binary: each subcommand (stats, trace,
// watch, prom, report, postmortem) runs against a temp directory and must
// exit 0 with output matching its schema — JSON that parses
// (stats/trace/report), Prometheus exposition whose cumulative buckets
// check out (prom), greppable WATCH/EPOCH frames (watch/report), and the
// postmortem pretty-printer against a real flight-recorder dump. The
// binary path is injected by CMake as CRFSCTL_BIN.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "backend/mem_backend.h"
#include "crfs/crfs.h"
#include "obs/json_lite.h"

namespace crfs {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

RunResult run_crfsctl(const std::string& args) {
  const std::string cmd = std::string(CRFSCTL_BIN) + " " + args + " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  RunResult res;
  if (pipe == nullptr) return res;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) res.output.append(buf, n);
  const int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "crfsctl_cli_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(CrfsctlCli, NoArgsPrintsUsageAndFails) {
  const RunResult res = run_crfsctl("");
  EXPECT_NE(res.exit_code, 0);
  EXPECT_NE(res.output.find("usage:"), std::string::npos);
  EXPECT_NE(res.output.find("watch"), std::string::npos);
  EXPECT_NE(res.output.find("prom"), std::string::npos);
}

TEST(CrfsctlCli, StatsEmitsParsableJson) {
  const RunResult res = run_crfsctl("stats " + fresh_dir("stats") + " --json");
  ASSERT_EQ(res.exit_code, 0) << res.output;
  auto parsed = obs::json::parse(res.output);
  ASSERT_TRUE(parsed.has_value()) << res.output;
  ASSERT_NE(parsed->get("mount"), nullptr);
  EXPECT_GT(parsed->get("mount")->get("app_bytes")->number, 0.0);
  ASSERT_NE(parsed->get("pipeline"), nullptr);
  ASSERT_NE(parsed->get("events"), nullptr);
  EXPECT_TRUE(parsed->get("events")->is_array());
}

TEST(CrfsctlCli, StatsHumanReportMentionsPipelineStages) {
  const RunResult res = run_crfsctl("stats " + fresh_dir("statsh"));
  ASSERT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("app_writes"), std::string::npos);
  EXPECT_NE(res.output.find("crfs.io.pwrite_ns"), std::string::npos);
}

TEST(CrfsctlCli, TraceWritesChromeJson) {
  const std::string dir = fresh_dir("trace");
  const std::string out = dir + "/trace.json";
  const RunResult res = run_crfsctl("trace " + dir + " " + out);
  ASSERT_EQ(res.exit_code, 0) << res.output;
  std::FILE* f = std::fopen(out.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  auto parsed = obs::json::parse(content);
  ASSERT_TRUE(parsed.has_value());
  const auto* events = parsed->get("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->array->size(), 0u);
}

TEST(CrfsctlCli, PromEmitsValidExposition) {
  const RunResult res = run_crfsctl("prom " + fresh_dir("prom"));
  ASSERT_EQ(res.exit_code, 0) << res.output;
  // Counter with data, _total suffix.
  EXPECT_NE(res.output.find("crfs_io_pwrite_bytes_total 67108864"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("# TYPE crfs_io_pwrite_ns histogram"), std::string::npos);
  // Cumulative bucket series must be monotone and +Inf must equal _count.
  double prev = 0.0, inf = -1.0, count = -1.0;
  std::size_t pos = 0;
  while (pos < res.output.size()) {
    std::size_t eol = res.output.find('\n', pos);
    if (eol == std::string::npos) eol = res.output.size();
    const std::string line = res.output.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("crfs_io_pwrite_ns_bucket{", 0) == 0) {
      const double v = std::stod(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(v, prev) << line;
      prev = v;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf = v;
    } else if (line.rfind("crfs_io_pwrite_ns_count ", 0) == 0) {
      count = std::stod(line.substr(line.rfind(' ') + 1));
    }
  }
  EXPECT_GT(inf, 0.0);
  EXPECT_EQ(inf, count);
}

TEST(CrfsctlCli, WatchRendersFramesAndSummary) {
  // Piped stdout -> !isatty -> plain WATCH lines, one per sample frame.
  const RunResult res = run_crfsctl("watch " + fresh_dir("watch") + " sample_ms=20");
  ASSERT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("crfsctl watch: 4 ranks"), std::string::npos);
  EXPECT_NE(res.output.find("WATCH t="), std::string::npos);
  EXPECT_NE(res.output.find("MB/s"), std::string::npos);
  EXPECT_NE(res.output.find("free_chunks="), std::string::npos);
  EXPECT_NE(res.output.find("queue="), std::string::npos);
  EXPECT_NE(res.output.find("in_flight="), std::string::npos);
  EXPECT_NE(res.output.find("samples="), std::string::npos);
  // Final report follows the live frames.
  EXPECT_NE(res.output.find("app_writes"), std::string::npos);
}

std::vector<std::string> object_keys(const obs::json::Value& v) {
  std::vector<std::string> keys;
  if (v.is_object()) {
    for (const auto& [k, member] : *v.object) keys.push_back(k);
  }
  return keys;  // std::map iteration -> already sorted
}

// The ONE list of sections shared by stats_json and the postmortem. Both
// golden tests assert against it, so the two documents cannot silently
// drift apart: adding a section means adding it to both emitters AND here.
const std::vector<std::string>& shared_section_keys() {
  static const std::vector<std::string> keys = {
      "controller", "epochs", "epochs_completed", "events",          "journal",
      "mount",      "pipeline", "schema_version", "slo",             "slow",
      "tier"};
  return keys;
}

constexpr double kSchemaVersion = 4.0;

// Golden key-set check: the stats --json schema is a contract consumed by
// dashboards; adding a key means updating this list deliberately, and
// removing or renaming one is a breaking change this test catches.
TEST(CrfsctlCli, StatsJsonGoldenKeySet) {
  const RunResult res = run_crfsctl("stats " + fresh_dir("golden") + " --json");
  ASSERT_EQ(res.exit_code, 0) << res.output;
  auto parsed = obs::json::parse(res.output);
  ASSERT_TRUE(parsed.has_value()) << res.output;

  // Top-level = the shared sections plus the stats-only extras.
  std::vector<std::string> expected_top = shared_section_keys();
  expected_top.push_back("epoch_open");
  expected_top.push_back("restores");
  std::sort(expected_top.begin(), expected_top.end());
  EXPECT_EQ(object_keys(*parsed), expected_top);
  EXPECT_DOUBLE_EQ(parsed->get("schema_version")->number, kSchemaVersion);

  // schema_version 3 sections: journal/slo are objects even when disabled.
  ASSERT_NE(parsed->get("journal"), nullptr);
  EXPECT_TRUE(parsed->get("journal")->is_object());
  EXPECT_FALSE(parsed->get("journal")->get("enabled")->boolean);
  ASSERT_NE(parsed->get("slo"), nullptr);
  EXPECT_TRUE(parsed->get("slo")->is_object());
  EXPECT_FALSE(parsed->get("slo")->get("enabled")->boolean);
  ASSERT_NE(parsed->get("tier"), nullptr);
  EXPECT_TRUE(parsed->get("tier")->is_object());
  EXPECT_FALSE(parsed->get("tier")->get("enabled")->boolean);

  const std::vector<std::string> expected_controller = {
      "decisions", "decisions_total", "generation", "knob_plane"};
  ASSERT_NE(parsed->get("controller"), nullptr);
  EXPECT_EQ(object_keys(*parsed->get("controller")), expected_controller);

  const std::vector<std::string> expected_mount = {
      "app_bytes",      "app_writes", "bypass_writes", "chunk_steals", "full_flushes",
      "partial_flushes", "read_bytes", "reads",        "reopens"};
  ASSERT_NE(parsed->get("mount"), nullptr);
  EXPECT_EQ(object_keys(*parsed->get("mount")), expected_mount);

  const std::vector<std::string> expected_pipeline = {"counters", "gauges",
                                                      "histograms"};
  ASSERT_NE(parsed->get("pipeline"), nullptr);
  EXPECT_EQ(object_keys(*parsed->get("pipeline")), expected_pipeline);
}

TEST(CrfsctlCli, ReportPrintsGreppableEpochLines) {
  const RunResult res = run_crfsctl("report " + fresh_dir("report"));
  ASSERT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("crfsctl report: 2 epochs x 4 ranks"), std::string::npos);
  // One EPOCH line per checkpoint, exact byte accounting: 4 ranks x 8 MiB.
  EXPECT_NE(res.output.find("EPOCH id=1 label=ckpt-0 files=4 bytes=33554432"),
            std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("EPOCH id=2 label=ckpt-1 files=4 bytes=33554432"),
            std::string::npos);
  EXPECT_NE(res.output.find("durable=33554432"), std::string::npos);
  // The per-epoch table renders the derived columns.
  EXPECT_NE(res.output.find("Agg ratio"), std::string::npos);
  // The restore phase attributes each rank's read-back scan: one RESTORE
  // line per rank image, exact byte accounting.
  EXPECT_NE(res.output.find("RESTORE path=.crfsctl_report_rank0.ckpt.1 "
                            "bytes=8388608"),
            std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("TTFB"), std::string::npos);
  EXPECT_NE(res.output.find("Lag max"), std::string::npos);
}

TEST(CrfsctlCli, ReportJsonIsArrayOfEpochRecords) {
  const RunResult res = run_crfsctl("report " + fresh_dir("reportj") + " --json");
  ASSERT_EQ(res.exit_code, 0) << res.output;
  auto parsed = obs::json::parse(res.output);
  ASSERT_TRUE(parsed.has_value()) << res.output;
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->array->size(), 2u);

  // Golden key set of one EpochRecord (the stats_json/report schema).
  const std::vector<std::string> expected = {"aggregation_ratio",
                                            "app_writes",
                                            "backend_writes",
                                            "barrier_ns",
                                            "bytes",
                                            "chunks",
                                            "copy_ns",
                                            "device_ns",
                                            "drain_bw_bytes_per_sec",
                                            "drain_end_ns",
                                            "drain_ns",
                                            "drained_bytes",
                                            "durability_lag_max_ns",
                                            "durability_lag_mean_ns",
                                            "durability_lag_sum_ns",
                                            "durable_bytes",
                                            "effective_bw_bytes_per_sec",
                                            "end_ns",
                                            "explicit",
                                            "files",
                                            "id",
                                            "io_errors",
                                            "label",
                                            "open",
                                            "pool_stall_ns",
                                            "queue_residency_ns",
                                            "start_ns",
                                            "submit_wait_ns",
                                            "wall_seconds"};
  for (const auto& rec : *parsed->array) {
    EXPECT_EQ(object_keys(rec), expected);
    EXPECT_EQ(rec.get("bytes")->number, 4.0 * 8 * 1024 * 1024);
    EXPECT_EQ(rec.get("durable_bytes")->number, 4.0 * 8 * 1024 * 1024);
    EXPECT_EQ(rec.get("open")->type, obs::json::Value::Type::Bool);
    EXPECT_FALSE(rec.get("open")->boolean);
  }
}

TEST(CrfsctlCli, ReportRefusesWhenEpochsDisabled) {
  const RunResult res = run_crfsctl("report " + fresh_dir("reportoff") + " no_epochs");
  EXPECT_NE(res.exit_code, 0);
  EXPECT_NE(res.output.find("epoch tracking"), std::string::npos);
}

TEST(CrfsctlCli, PostmortemPrettyPrintsARealDump) {
  // Generate a genuine flight-recorder dump in-process, then feed it to
  // the CLI pretty-printer.
  const std::string dump = fresh_dir("pm") + "/dump.json";
  {
    auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                          Config{.chunk_size = 64 * 1024,
                                 .pool_size = 4 * 64 * 1024,
                                 .enable_tracing = true,
                                 .postmortem_path = dump});
    ASSERT_TRUE(fs.ok());
    ASSERT_TRUE(fs.value()->epoch_begin("cli-demo").ok());
    auto h = fs.value()->open("f.ckpt", {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(h.ok());
    std::vector<std::byte> buf(64 * 1024, std::byte{1});
    ASSERT_TRUE(fs.value()->write(h.value(), buf, 0).ok());
    ASSERT_TRUE(fs.value()->close(h.value()).ok());
    ASSERT_TRUE(fs.value()->dump_postmortem().ok());
  }
  // The dump itself is versioned and carries the controller section.
  {
    std::string text;
    std::FILE* f = std::fopen(dump.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
    auto doc = obs::json::parse(text);
    ASSERT_TRUE(doc.has_value());
    ASSERT_NE(doc->get("schema_version"), nullptr);
    EXPECT_DOUBLE_EQ(doc->get("schema_version")->number, kSchemaVersion);
    // Every shared section appears in the postmortem too — same list the
    // stats golden test uses, so the schemas stay in lockstep.
    for (const std::string& key : shared_section_keys()) {
      EXPECT_NE(doc->get(key.c_str()), nullptr) << key;
    }
    const auto* ctl = doc->get("controller");
    ASSERT_TRUE(ctl != nullptr && ctl->is_object());
    ASSERT_NE(ctl->get("knob_plane"), nullptr);
  }

  const RunResult res = run_crfsctl("postmortem " + dump);
  ASSERT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("CRFS postmortem"), std::string::npos);
  EXPECT_NE(res.output.find("OPEN EPOCH id=1 label=cli-demo bytes=65536"),
            std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("SPAN"), std::string::npos);  // trace tail rendered
}

TEST(CrfsctlCli, PostmortemRejectsMissingOrForeignFiles) {
  const std::string dir = fresh_dir("pmbad");
  EXPECT_EQ(run_crfsctl("postmortem " + dir + "/nope.json").exit_code, 2);

  const std::string garbage = dir + "/garbage.json";
  {
    std::FILE* f = std::fopen(garbage.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"not_a_postmortem\":true}", f);
    std::fclose(f);
  }
  const RunResult res = run_crfsctl("postmortem " + garbage);
  EXPECT_EQ(res.exit_code, 2);
  EXPECT_NE(res.output.find("not a CRFS postmortem"), std::string::npos);

  const std::string unparseable = dir + "/broken.json";
  {
    std::FILE* f = std::fopen(unparseable.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"crfs_postmortem\":", f);
    std::fclose(f);
  }
  EXPECT_EQ(run_crfsctl("postmortem " + unparseable).exit_code, 2);
}

TEST(CrfsctlCli, KnobsPrintsTheRuntimeKnobTable) {
  const std::string dir = fresh_dir("knobs");
  const RunResult table = run_crfsctl("knobs " + dir);
  ASSERT_EQ(table.exit_code, 0) << table.output;
  EXPECT_NE(table.output.find("generation=0"), std::string::npos);
  EXPECT_NE(table.output.find("pool_chunks"), std::string::npos);
  EXPECT_NE(table.output.find("io_batch"), std::string::npos);
  EXPECT_NE(table.output.find("journal_fsync_ms"), std::string::npos);
  EXPECT_NE(table.output.find("drain_mbps"), std::string::npos);

  const RunResult res = run_crfsctl("knobs " + dir + " --json");
  ASSERT_EQ(res.exit_code, 0) << res.output;
  auto parsed = obs::json::parse(res.output);
  ASSERT_TRUE(parsed.has_value()) << res.output;
  EXPECT_DOUBLE_EQ(parsed->get("generation")->number, 0.0);
  const auto* knobs = parsed->get("knobs");
  ASSERT_TRUE(knobs != nullptr && knobs->is_array());
  EXPECT_EQ(knobs->array->size(), 11u);
  const std::vector<std::string> knob_keys = {"max", "min", "name", "unit", "value"};
  for (const auto& k : *knobs->array) EXPECT_EQ(object_keys(k), knob_keys);
}

TEST(CrfsctlCli, TuneAppliesTokensAndAuditsCtlfileDecisions) {
  const std::string dir = fresh_dir("tune");
  const RunResult res = run_crfsctl("tune " + dir + " pool_chunks=8,io_batch=2 --json");
  ASSERT_EQ(res.exit_code, 0) << res.output;
  auto parsed = obs::json::parse(res.output);
  ASSERT_TRUE(parsed.has_value()) << res.output;
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->array->size(), 2u);
  EXPECT_EQ((*parsed->array)[0].get("source")->string, "ctlfile");
  EXPECT_EQ((*parsed->array)[0].get("knob")->string, "pool_chunks");
  EXPECT_EQ((*parsed->array)[0].get("outcome")->string, "applied");
  EXPECT_DOUBLE_EQ((*parsed->array)[0].get("to")->number, 8.0);
  EXPECT_EQ((*parsed->array)[1].get("knob")->string, "io_batch");

  // A rejected token names itself in the error and fails the command.
  const RunResult bad = run_crfsctl("tune " + dir + " warp_factor=9");
  EXPECT_NE(bad.exit_code, 0);
  EXPECT_NE(bad.output.find("\"warp_factor=9\""), std::string::npos) << bad.output;
  EXPECT_NE(bad.output.find("unknown knob"), std::string::npos);
}

TEST(CrfsctlCli, BadMountOptionFailsCleanly) {
  const RunResult res = run_crfsctl("prom " + fresh_dir("bad") + " sample_ms=banana");
  EXPECT_EQ(res.exit_code, 1);  // argument error, not unreachable/malformed
  EXPECT_NE(res.output.find("error"), std::string::npos);
}

// Exit-code contract: 3 = mount unreachable, 2 = malformed document,
// 1 = bad arguments, 64 = usage. Scripts branch on these, so each class
// must stay distinct.
TEST(CrfsctlCli, ExitCodesDistinguishFailureClasses) {
  const std::string missing = ::testing::TempDir() + "crfsctl_cli_no_such_dir_xyz";
  std::filesystem::remove_all(missing);
  EXPECT_EQ(run_crfsctl("stats " + missing + " --json").exit_code, 3);
  EXPECT_EQ(run_crfsctl("knobs " + missing).exit_code, 3);
  EXPECT_EQ(run_crfsctl("report " + missing).exit_code, 3);
  EXPECT_EQ(run_crfsctl("slow " + missing).exit_code, 3);
  // Malformed document (the postmortem parser) stays 2 — see
  // PostmortemRejectsMissingOrForeignFiles.
  EXPECT_EQ(run_crfsctl("nonsense-subcommand").exit_code, 64);
  EXPECT_EQ(run_crfsctl("stats").exit_code, 64);
}

// `crfsctl slow --inject-slow` must always produce exemplars: the
// throttled backend makes every chunk pwrite tens of ms while the armed
// threshold is 5 ms. This is the acceptance check that an injected slow
// pwrite yields a causal chain covering copy-in -> durable.
TEST(CrfsctlCli, SlowInjectCapturesExemplarsWithFullChain) {
  const RunResult res = run_crfsctl("slow " + fresh_dir("slow") +
                                    " chunk=1M,pool=4M --inject-slow=64 --json");
  ASSERT_EQ(res.exit_code, 0) << res.output;
  auto parsed = obs::json::parse(res.output);
  ASSERT_TRUE(parsed.has_value()) << res.output;

  const std::vector<std::string> expected_store = {"capacity", "captured",
                                                   "exemplars", "threshold_ms"};
  EXPECT_EQ(object_keys(*parsed), expected_store);
  EXPECT_DOUBLE_EQ(parsed->get("threshold_ms")->number, 5.0);
  const auto* exemplars = parsed->get("exemplars");
  ASSERT_TRUE(exemplars != nullptr && exemplars->is_array());
  ASSERT_GT(exemplars->array->size(), 0u) << res.output;

  const std::vector<std::string> expected_ex = {
      "born_ns",      "dequeue_ns",   "device_ns",        "durable_ns",
      "enqueue_ns",   "fill_ns",          "free_chunks",
      "kind",         "knob_generation", "len",           "offset",
      "path",         "pool_stall_ns", "queue_depth",     "queue_ns",
      "submit_ns",    "submit_wait_ns", "total_lag_ns",   "trace_id"};
  bool saw_write = false;
  bool saw_read = false;
  for (const auto& ex : *exemplars->array) {
    EXPECT_EQ(object_keys(ex), expected_ex);
    // The injected throttle is what made it slow: device dominates.
    EXPECT_GE(ex.get("device_ns")->number, 5e6);
    if (ex.get("kind")->string == "read") {
      // Restore reads have no copy-in chain: the whole duration is the
      // blocking backend read.
      saw_read = true;
      EXPECT_DOUBLE_EQ(ex.get("born_ns")->number, 0.0);
      EXPECT_DOUBLE_EQ(ex.get("device_ns")->number, ex.get("total_lag_ns")->number);
      continue;
    }
    saw_write = true;
    EXPECT_EQ(ex.get("kind")->string, "write");
    // The causal chain covers copy-in -> durable with monotone stamps...
    EXPECT_GT(ex.get("trace_id")->number, 0.0);
    EXPECT_GT(ex.get("born_ns")->number, 0.0);
    EXPECT_GE(ex.get("enqueue_ns")->number, ex.get("born_ns")->number);
    EXPECT_GE(ex.get("dequeue_ns")->number, ex.get("enqueue_ns")->number);
    EXPECT_GE(ex.get("submit_ns")->number, ex.get("dequeue_ns")->number);
    EXPECT_GT(ex.get("durable_ns")->number, ex.get("submit_ns")->number);
    // ...and the disjoint stages reassemble the total lag.
    const double stages = ex.get("fill_ns")->number + ex.get("queue_ns")->number +
                          ex.get("submit_wait_ns")->number +
                          ex.get("device_ns")->number;
    EXPECT_NEAR(stages, ex.get("total_lag_ns")->number,
                ex.get("total_lag_ns")->number * 0.01 + 1000);
  }
  EXPECT_TRUE(saw_write) << res.output;
  EXPECT_TRUE(saw_read) << res.output;

  // The human rendering carries greppable SLOW lines and the chain table.
  const RunResult human =
      run_crfsctl("slow " + fresh_dir("slowh") + " chunk=1M,pool=4M --inject-slow=64");
  ASSERT_EQ(human.exit_code, 0) << human.output;
  EXPECT_NE(human.output.find("SLOW trace_id="), std::string::npos) << human.output;
  EXPECT_NE(human.output.find("kind=write"), std::string::npos) << human.output;
  EXPECT_NE(human.output.find("kind=read"), std::string::npos) << human.output;
  EXPECT_NE(human.output.find("Device"), std::string::npos);
}

TEST(CrfsctlCli, SlowWithoutInjectionReportsEmptyStoreCleanly) {
  // Default threshold is 1 s; a RAM-backed temp dir never crosses it.
  const RunResult res = run_crfsctl("slow " + fresh_dir("slowempty"));
  ASSERT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("no slow exemplars captured"), std::string::npos)
      << res.output;
}

TEST(CrfsctlCli, ReportPrintsCriticalPathStageLines) {
  const RunResult res = run_crfsctl("report " + fresh_dir("stages"));
  ASSERT_EQ(res.exit_code, 0) << res.output;
  // One STAGES line per epoch with every stage field present.
  EXPECT_NE(res.output.find("STAGES id=1 copy_ns="), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("STAGES id=2 copy_ns="), std::string::npos);
  for (const char* field : {"pool_stall_ns=", "queue_ns=", "submit_wait_ns=",
                            "device_ns=", "barrier_ns="}) {
    EXPECT_NE(res.output.find(field), std::string::npos) << field;
  }
  EXPECT_NE(res.output.find("critical path"), std::string::npos);
}

TEST(CrfsctlCli, TraceFiltersNarrowTheExportedDocument) {
  const std::string dir = fresh_dir("tracef");
  const auto span_count = [&](const std::string& args, const std::string& out) {
    const RunResult res = run_crfsctl("trace " + dir + " " + out + " " + args);
    EXPECT_EQ(res.exit_code, 0) << res.output;
    std::string content;
    std::FILE* f = std::fopen(out.c_str(), "r");
    if (f == nullptr) return static_cast<std::size_t>(0);
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
    std::fclose(f);
    auto parsed = obs::json::parse(content);
    if (!parsed.has_value() || parsed->get("traceEvents") == nullptr) {
      return static_cast<std::size_t>(0);
    }
    return parsed->get("traceEvents")->array->size();
  };
  const std::size_t all = span_count("", dir + "/all.json");
  ASSERT_GT(all, 0u);
  // One lane is a strict subset of the whole capture.
  const std::size_t lane = span_count("--thread=0", dir + "/lane.json");
  EXPECT_GT(lane, 0u);
  EXPECT_LT(lane, all);
  // A file-substring filter keeps only tagged spans (IO-side stages carry
  // the interned path; rank3 excludes rank0..2's spans).
  const std::size_t file = span_count("--file=rank3", dir + "/file.json");
  EXPECT_GT(file, 0u);
  EXPECT_LT(file, all);
  // A generous trailing window keeps everything from its own run. Span
  // counts vary slightly across independent runs (pool_wait spans are
  // timing-dependent), so compare with a tolerance rather than exactly.
  const std::size_t recent = span_count("--since-ms=600000", dir + "/recent.json");
  EXPECT_GT(recent, 0u);
  EXPECT_NEAR(static_cast<double>(recent), static_cast<double>(all),
              static_cast<double>(all) * 0.05);
  // A bad filter value is an argument error.
  EXPECT_EQ(run_crfsctl("trace " + dir + " " + dir + "/bad.json --since-ms=banana")
                .exit_code,
            1);
}

// The mount options shared by both journal CLI tests: journal under the
// mount's .crfs/journal dir plus an SLO so tight (1ms lag budget) that the
// synthetic workload is guaranteed to breach it.
std::string journal_mount_opts(const std::string& dir) {
  return "journal=" + dir +
         "/.crfs/journal,sample_ms=5,slo_lag_ms=1,slo_stall_pct=1,"
         "slo_short_s=1,slo_long_s=5";
}

TEST(CrfsctlCli, TimelineReadsJournalAfterUnmount) {
  const std::string dir = fresh_dir("timeline");
  // Produce a journal, then let the writing process exit entirely.
  const RunResult mk = run_crfsctl("stats " + dir + " " + journal_mount_opts(dir) + " --json");
  ASSERT_EQ(mk.exit_code, 0) << mk.output;

  const RunResult res = run_crfsctl("timeline " + dir + " --json");
  ASSERT_EQ(res.exit_code, 0) << res.output;
  auto parsed = obs::json::parse(res.output);
  ASSERT_TRUE(parsed.has_value()) << res.output;
  EXPECT_DOUBLE_EQ(parsed->get("crfs_timeline")->number, 1.0);
  EXPECT_GT(parsed->get("samples")->number, 0.0);
  const auto* buckets = parsed->get("buckets");
  ASSERT_TRUE(buckets != nullptr && buckets->is_array());
  EXPECT_FALSE(buckets->array->empty());
  // The meta frame survives the writer and carries the SLO config.
  const auto* meta = parsed->get("meta");
  ASSERT_TRUE(meta != nullptr && meta->is_object());
  EXPECT_NE(meta->get("slo"), nullptr);

  // The human rendering is greppable bucket-per-line.
  const RunResult human = run_crfsctl("timeline " + dir);
  ASSERT_EQ(human.exit_code, 0) << human.output;
  EXPECT_NE(human.output.find("BUCKET t="), std::string::npos);
  EXPECT_NE(human.output.find("pwrite_bytes="), std::string::npos);

  // --since far in the future empties the buckets but still succeeds.
  const RunResult since = run_crfsctl("timeline " + dir + " --since=999999 --json");
  ASSERT_EQ(since.exit_code, 0) << since.output;
  auto sp = obs::json::parse(since.output);
  ASSERT_TRUE(sp.has_value());
  EXPECT_TRUE(sp->get("buckets")->array->empty());

  // No journal on disk is a malformed-document failure, not a crash.
  EXPECT_EQ(run_crfsctl("timeline " + fresh_dir("timelinebad")).exit_code, 2);
  EXPECT_EQ(run_crfsctl("timeline " + dir + " --bogus-flag").exit_code, 1);
}

TEST(CrfsctlCli, SloReplaysJournalBurnRates) {
  const std::string dir = fresh_dir("sloreplay");
  const RunResult mk = run_crfsctl("stats " + dir + " " + journal_mount_opts(dir) + " --json");
  ASSERT_EQ(mk.exit_code, 0) << mk.output;
  // The live run itself must have breached the 1ms lag objective.
  auto live = obs::json::parse(mk.output);
  ASSERT_TRUE(live.has_value()) << mk.output;
  const auto* live_slo = live->get("slo");
  ASSERT_TRUE(live_slo != nullptr && live_slo->is_object());
  EXPECT_TRUE(live_slo->get("enabled")->boolean);

  // Offline replay of the journal reconstructs the burn-rate state.
  const RunResult res = run_crfsctl("slo " + dir + " --json");
  ASSERT_EQ(res.exit_code, 0) << res.output;
  auto parsed = obs::json::parse(res.output);
  ASSERT_TRUE(parsed.has_value()) << res.output;
  EXPECT_TRUE(parsed->get("enabled")->boolean);
  EXPECT_GE(parsed->get("breaches")->number, 1.0);
  const auto* objectives = parsed->get("objectives");
  ASSERT_TRUE(objectives != nullptr && objectives->is_array());
  EXPECT_GE(objectives->array->size(), 2u);

  const RunResult human = run_crfsctl("slo " + dir);
  ASSERT_EQ(human.exit_code, 0) << human.output;
  EXPECT_NE(human.output.find("SLO name=lag"), std::string::npos);
  EXPECT_NE(human.output.find("slo_breach"), std::string::npos);

  // A directory without a journal fails as a malformed document.
  EXPECT_EQ(run_crfsctl("slo " + fresh_dir("slobad")).exit_code, 2);
}

}  // namespace
}  // namespace crfs
