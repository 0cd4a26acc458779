#include "obs/epoch.h"

#include <algorithm>
#include <cstdio>

#include "obs/json_out.h"
#include "obs/prom.h"

namespace crfs::obs {

namespace {

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string EpochRecord::to_json() const {
  std::string out = "{\"id\":" + std::to_string(id);
  out += ",\"label\":\"";
  append_json_escaped(out, label);
  out += "\",\"explicit\":" + std::string(explicit_marker ? "true" : "false");
  out += ",\"open\":" + std::string(open ? "true" : "false");
  out += ",\"start_ns\":" + std::to_string(start_ns);
  out += ",\"end_ns\":" + std::to_string(end_ns);
  out += ",\"files\":" + std::to_string(files);
  out += ",\"bytes\":" + std::to_string(bytes);
  out += ",\"app_writes\":" + std::to_string(app_writes);
  out += ",\"chunks\":" + std::to_string(chunks);
  out += ",\"backend_writes\":" + std::to_string(backend_writes);
  out += ",\"durable_bytes\":" + std::to_string(durable_bytes);
  out += ",\"pool_stall_ns\":" + std::to_string(pool_stall_ns);
  out += ",\"queue_residency_ns\":" + std::to_string(queue_residency_ns);
  out += ",\"copy_ns\":" + std::to_string(copy_ns);
  out += ",\"submit_wait_ns\":" + std::to_string(submit_wait_ns);
  out += ",\"device_ns\":" + std::to_string(device_ns);
  out += ",\"barrier_ns\":" + std::to_string(barrier_ns);
  out += ",\"durability_lag_sum_ns\":" + std::to_string(durability_lag_sum_ns);
  out += ",\"durability_lag_max_ns\":" + std::to_string(durability_lag_max_ns);
  out += ",\"io_errors\":" + std::to_string(io_errors);
  out += ",\"wall_seconds\":" + format_double(wall_seconds());
  out += ",\"aggregation_ratio\":" + format_double(aggregation_ratio());
  out += ",\"effective_bw_bytes_per_sec\":" + format_double(effective_bw());
  out += ",\"durability_lag_mean_ns\":" + format_double(mean_durability_lag_ns());
  // Tier drain keys append at the end: existing consumers index by name.
  out += ",\"drained_bytes\":" + std::to_string(drained_bytes);
  out += ",\"drain_ns\":" + std::to_string(drain_ns);
  out += ",\"drain_end_ns\":" + std::to_string(drain_end_ns);
  out += ",\"drain_bw_bytes_per_sec\":" + format_double(drain_bw());
  out += "}";
  return out;
}

std::string epochs_to_json(const std::vector<EpochRecord>& records) {
  std::string out = "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out += ",";
    out += records[i].to_json();
  }
  out += "]";
  return out;
}

std::string epochs_to_prometheus(const std::vector<EpochRecord>& records) {
  if (records.empty()) return "";
  std::string out;
  auto emit_family = [&](const char* name, const char* help, auto&& value_of) {
    out += "# HELP " + std::string(name) + " " + help + "\n";
    out += "# TYPE " + std::string(name) + " gauge\n";
    for (const EpochRecord& r : records) {
      out += name;
      out += "{epoch=\"" + std::to_string(r.id) + "\",label=\"" +
             prometheus_label_value(r.label) + "\"} ";
      out += value_of(r);
      out += "\n";
    }
  };
  emit_family("crfs_epoch_bytes", "CRFS per-epoch app bytes",
              [](const EpochRecord& r) { return std::to_string(r.bytes); });
  emit_family("crfs_epoch_files", "CRFS per-epoch distinct files",
              [](const EpochRecord& r) { return std::to_string(r.files); });
  emit_family("crfs_epoch_wall_seconds", "CRFS per-epoch wall time",
              [](const EpochRecord& r) { return format_double(r.wall_seconds()); });
  emit_family("crfs_epoch_aggregation_ratio",
              "CRFS per-epoch app writes per backend write",
              [](const EpochRecord& r) { return format_double(r.aggregation_ratio()); });
  emit_family("crfs_epoch_effective_bw_bytes_per_sec",
              "CRFS per-epoch durable bytes over wall time",
              [](const EpochRecord& r) { return format_double(r.effective_bw()); });
  emit_family("crfs_epoch_durability_lag_max_ns",
              "CRFS per-epoch max app-ack to durable lag",
              [](const EpochRecord& r) { return std::to_string(r.durability_lag_max_ns); });
  return out;
}

EpochTracker::EpochTracker(Options opts, Registry* registry)
    : opts_(opts), gap_ns_(opts.gap_ns) {
  if (registry != nullptr) {
    c_completed_ = &registry->counter("crfs.epoch.completed");
    c_bytes_ = &registry->counter("crfs.epoch.bytes");
    c_files_ = &registry->counter("crfs.epoch.files");
    c_chunks_ = &registry->counter("crfs.epoch.chunks");
    g_open_ = &registry->gauge("crfs.epoch.open");
  }
}

std::string EpochTracker::ckpt_key(const std::string& path) {
  // Digits directly after a "ckpt" token, skipping . _ - separators:
  // "rank0.ckpt.12" -> "ckpt:12", "img_ckpt-7" -> "ckpt:7",
  // "rank0.ckpt" -> "" (no generation; grouping falls back to the gap
  // window). Deliberately narrow — "rank3" must NOT key on the 3, or two
  // ranks of one checkpoint would land in two epochs.
  for (std::size_t pos = path.find("ckpt"); pos != std::string::npos;
       pos = path.find("ckpt", pos + 1)) {
    std::size_t i = pos + 4;
    while (i < path.size() && (path[i] == '.' || path[i] == '_' || path[i] == '-')) ++i;
    std::size_t digits = i;
    while (digits < path.size() && path[digits] >= '0' && path[digits] <= '9') ++digits;
    if (digits > i) return "ckpt:" + path.substr(i, digits - i);
  }
  return "";
}

EpochRecord EpochTracker::snapshot_locked(const EpochState& st, std::uint64_t end_ns,
                                          bool open) const {
  EpochRecord r;
  r.id = st.id;
  r.label = st.label;
  r.explicit_marker = st.explicit_marker;
  r.open = open;
  r.start_ns = st.start_ns;
  r.end_ns = end_ns;
  r.files = st.files.load(std::memory_order_relaxed);
  r.bytes = st.bytes.load(std::memory_order_relaxed);
  r.app_writes = st.app_writes.load(std::memory_order_relaxed);
  r.chunks = st.chunks.load(std::memory_order_relaxed);
  r.backend_writes = st.backend_writes.load(std::memory_order_relaxed);
  r.durable_bytes = st.durable_bytes.load(std::memory_order_relaxed);
  r.pool_stall_ns = st.pool_stall_ns.load(std::memory_order_relaxed);
  r.queue_residency_ns = st.queue_residency_ns.load(std::memory_order_relaxed);
  r.durability_lag_sum_ns = st.durability_lag_sum_ns.load(std::memory_order_relaxed);
  r.durability_lag_max_ns = st.durability_lag_max_ns.load(std::memory_order_relaxed);
  r.io_errors = st.io_errors.load(std::memory_order_relaxed);
  r.copy_ns = st.copy_ns.load(std::memory_order_relaxed);
  r.submit_wait_ns = st.submit_wait_ns.load(std::memory_order_relaxed);
  r.device_ns = st.device_ns.load(std::memory_order_relaxed);
  r.barrier_ns = st.barrier_ns.load(std::memory_order_relaxed);
  return r;
}

void EpochTracker::start_locked(std::string label, std::string key,
                                std::uint64_t now_ns, bool explicit_marker) {
  active_ = std::make_shared<EpochState>(next_id_++, std::move(label), std::move(key),
                                         now_ns, explicit_marker);
  active_paths_.clear();
  open_handles_ = 0;
  if (g_open_ != nullptr) g_open_->set(static_cast<std::int64_t>(active_->id));
}

std::optional<EpochRecord> EpochTracker::finalize_locked(std::uint64_t end_ns) {
  if (active_ == nullptr) return std::nullopt;
  EpochRecord r = snapshot_locked(*active_, end_ns, /*open=*/false);
  if (c_completed_ != nullptr) {
    c_completed_->add(1);
    c_bytes_->add(r.bytes);
    c_files_->add(r.files);
    c_chunks_->add(r.chunks);
  }
  ledger_.push_back(r);
  while (ledger_.size() > opts_.ledger_capacity) ledger_.pop_front();
  finalized_total_ += 1;
  active_.reset();
  active_paths_.clear();
  open_handles_ = 0;
  if (g_open_ != nullptr) g_open_->set(0);
  return r;
}

void EpochTracker::notify_finalized(const std::optional<EpochRecord>& rec) {
  if (!rec.has_value()) return;
  FinalizeFn fn;
  {
    std::lock_guard lock(mu_);
    fn = finalize_listener_;
  }
  if (fn) fn(*rec);
}

void EpochTracker::set_finalize_listener(FinalizeFn fn) {
  std::lock_guard lock(mu_);
  finalize_listener_ = std::move(fn);
}

void EpochTracker::attach_drain(std::uint64_t id, std::uint64_t drained_bytes,
                                std::uint64_t drain_ns, std::uint64_t drain_end_ns) {
  std::lock_guard lock(mu_);
  for (auto it = ledger_.rbegin(); it != ledger_.rend(); ++it) {
    if (it->id != id) continue;
    it->drained_bytes += drained_bytes;
    it->drain_ns += drain_ns;
    it->drain_end_ns = std::max(it->drain_end_ns, drain_end_ns);
    return;
  }
}

std::shared_ptr<EpochState> EpochTracker::on_open(const std::string& path,
                                                  std::uint64_t now_ns) {
  std::optional<EpochRecord> done;
  std::shared_ptr<EpochState> out;
  {
    std::lock_guard lock(mu_);
    const std::string key = ckpt_key(path);
    if (active_ != nullptr && !active_->explicit_marker) {
      // A new .ckpt generation always starts a new epoch; otherwise rotate
      // only after the correlation window has gone quiet with nothing of
      // the current epoch still open.
      const bool generation_changed =
          !key.empty() && !active_->ckpt_key.empty() && key != active_->ckpt_key;
      const bool gap_expired = open_handles_ == 0 && now_ns >= last_event_ns_ &&
                               now_ns - last_event_ns_ > gap_ns();
      if (generation_changed || gap_expired) done = finalize_locked(now_ns);
    }
    if (active_ == nullptr) {
      const std::string label =
          key.empty() ? "epoch-" + std::to_string(next_id_) : key;
      start_locked(label, key, now_ns, /*explicit_marker=*/false);
    }
    if (active_paths_.insert(path).second) {
      active_->files.fetch_add(1, std::memory_order_relaxed);
    }
    open_handles_ += 1;
    last_event_ns_ = now_ns;
    out = active_;
  }
  notify_finalized(done);
  return out;
}

void EpochTracker::on_close(const std::string&, std::uint64_t now_ns) {
  std::lock_guard lock(mu_);
  if (open_handles_ > 0) open_handles_ -= 1;
  last_event_ns_ = now_ns;
}

void EpochTracker::begin(std::string label, std::uint64_t now_ns) {
  std::optional<EpochRecord> done;
  {
    std::lock_guard lock(mu_);
    done = finalize_locked(now_ns);
    if (label.empty()) label = "epoch-" + std::to_string(next_id_);
    start_locked(std::move(label), /*key=*/"", now_ns, /*explicit_marker=*/true);
    last_event_ns_ = now_ns;
  }
  notify_finalized(done);
}

void EpochTracker::end(std::uint64_t now_ns) {
  std::optional<EpochRecord> done;
  {
    std::lock_guard lock(mu_);
    done = finalize_locked(now_ns);
    last_event_ns_ = now_ns;
  }
  notify_finalized(done);
}

void EpochTracker::finalize_open(std::uint64_t now_ns) {
  std::optional<EpochRecord> done;
  {
    std::lock_guard lock(mu_);
    done = finalize_locked(now_ns);
  }
  notify_finalized(done);
}

std::vector<EpochRecord> EpochTracker::records() const {
  std::lock_guard lock(mu_);
  return {ledger_.begin(), ledger_.end()};
}

std::optional<EpochRecord> EpochTracker::open_epoch(std::uint64_t now_ns) const {
  std::lock_guard lock(mu_);
  if (active_ == nullptr) return std::nullopt;
  return snapshot_locked(*active_, now_ns, /*open=*/true);
}

std::uint64_t EpochTracker::total_finalized() const {
  std::lock_guard lock(mu_);
  return finalized_total_;
}

}  // namespace crfs::obs
