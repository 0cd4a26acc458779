#include "obs/plane.h"

#include "crfs/mount_options.h"
#include "obs/json_out.h"

namespace crfs::obs {

namespace {

// Journals the entries a pull-model store finished since the last call.
// `total` is the store's monotonic lifetime count and `items` its bounded
// most-recent window, so index from the tail by how many are still owed
// (older ones were evicted before anyone could journal them).
template <typename T, typename TsFn>
void journal_owed(Journal& journal, FrameType type, std::uint64_t total,
                  std::uint64_t* journaled, const std::vector<T>& items, TsFn ts) {
  std::uint64_t owed = total - *journaled;
  if (owed > items.size()) owed = items.size();
  for (std::size_t i = items.size() - static_cast<std::size_t>(owed); i < items.size(); ++i) {
    journal.append(type, ts(items[i]), items[i].to_json());
  }
  *journaled = total;
}

}  // namespace

Plane::Plane(const Config& cfg, Clock clock, TimeBase base)
    : clock_(std::move(clock)),
      base_(base),
      events_(cfg.event_capacity),
      slow_(cfg.slow_exemplars, static_cast<std::uint64_t>(cfg.slow_capture_ms) * 1'000'000) {
  if (cfg.epoch_tracking) {
    epochs_ = std::make_unique<EpochTracker>(
        EpochTracker::Options{
            .gap_ns = static_cast<std::uint64_t>(cfg.epoch_gap_ms) * 1'000'000,
            .ledger_capacity = cfg.epoch_ledger},
        &metrics_);
  }
  if (!cfg.journal_dir.empty()) {
    journal_ = std::make_unique<Journal>(
        JournalOptions{.dir = cfg.journal_dir,
                       .segment_bytes = cfg.journal_segment_bytes,
                       .max_bytes = cfg.journal_max_bytes,
                       .flush_ms = cfg.journal_flush_ms,
                       .fsync_ms = cfg.journal_fsync_ms},
        &metrics_);
    // Journal head: one meta frame describing the mount, the sampling
    // cadence, and (when set) the SLO targets — enough for an offline
    // `crfsctl slo` replay to rebuild the monitor after the process dies.
    std::string meta = "{\"crfs_journal\":1,\"config\":\"";
    append_json_escaped(meta, cfg.describe());
    meta += "\",\"sample_ms\":" + std::to_string(cfg.sample_ms);
    meta += ",\"slo\":";
    meta += cfg.slo_enabled() ? cfg.slo_config().to_json() : std::string("null");
    meta += "}";
    journal_->set_meta(meta, clock_());
    if (base_ == TimeBase::kWall) journal_->start();
  }
  if (cfg.slo_enabled()) {
    slo_ = std::make_unique<SloMonitor>(cfg.slo_config(), &metrics_, &events_);
  }
  if (journal_ != nullptr || slo_ != nullptr) extract_ = std::make_unique<SloExtractor>();

  // The journal persists every structured event.
  if (journal_ != nullptr) {
    events_.set_listener([this](const Event& ev) {
      journal_->append(FrameType::kEvent, ev.ts_ns, ev.to_json());
    });
  }

  // slow_capture_ms: the tail-latency exemplar threshold (durability lag
  // OR device time); 0 disables capture. Applied as one relaxed store.
  knobs_.define(knob_def("slow_capture_ms", cfg),
                static_cast<double>(cfg.slow_capture_ms),
                [this](double v, double*, std::string*) {
                  slow_.set_threshold_ns(static_cast<std::uint64_t>(v) * 1'000'000);
                  return true;
                });
  // epoch_gap_ms: the auto-rotation quiet window of the epoch tracker.
  knobs_.define(knob_def("epoch_gap_ms", cfg),
                static_cast<double>(cfg.epoch_gap_ms),
                [this](double v, double*, std::string* reason) {
                  if (epochs_ == nullptr) {
                    *reason = "epoch tracking disabled (no_epochs)";
                    return false;
                  }
                  epochs_->set_gap_ns(static_cast<std::uint64_t>(v) * 1'000'000);
                  return true;
                });
}

void Plane::on_sample(const Sample& s) {
  if (extract_ != nullptr) {
    const SloInput in = extract_->extract(s);
    if (slo_ != nullptr) slo_->observe(in);
    if (journal_ != nullptr) {
      journal_->append(FrameType::kSample, s.ts_ns, journal_sample_json(s, in));
    }
  }
  if (journal_ == nullptr) return;
  journal_cold_sinks();
  // Virtual time flushes on the sample's timestamp: frame bytes (and
  // rotation points) depend only on the workload, never on scheduling.
  if (base_ == TimeBase::kVirtual) journal_->tick(s.ts_ns);
}

void Plane::finish(std::uint64_t now, const std::function<void()>& settle) {
  if (epochs_ != nullptr) epochs_->finalize_open(now);
  if (settle) settle();
  if (journal_ == nullptr) return;
  journal_cold_sinks();
  if (base_ == TimeBase::kWall) {
    journal_->stop();
  } else {
    // The final fsync is timed by the wall clock, but every frame already
    // carries its virtual timestamp, so the bytes stay replayable.
    journal_->flush(now, /*force_fsync=*/true);
  }
}

void Plane::journal_cold_sinks() {
  if (epochs_ != nullptr) {
    const std::uint64_t total = epochs_->total_finalized();
    if (total > journaled_epochs_) {
      journal_owed(*journal_, FrameType::kEpoch, total, &journaled_epochs_, epochs_->records(),
                   [](const EpochRecord& r) { return r.end_ns; });
    }
  }
  const std::uint64_t captured = slow_.captured();
  if (captured > journaled_slow_) {
    journal_owed(*journal_, FrameType::kSlow, captured, &journaled_slow_, slow_.snapshot(),
                 [](const SlowExemplar& e) { return e.durable_ns; });
  }
}

std::string Plane::journal_json() const {
  return journal_ != nullptr ? journal_->to_json() : "{\"enabled\":false}";
}

std::string Plane::slo_json() const {
  return slo_ != nullptr ? slo_->to_json() : "{\"enabled\":false}";
}

void Plane::append_sections(std::string& out) const {
  out += ",\"events\":" + events_to_json(events_.snapshot());
  out += ",\"slow\":" + slow_.to_json();
  if (epochs_ != nullptr) {
    out += ",\"epochs\":" + epochs_to_json(epochs_->records());
    const auto open = epochs_->open_epoch(clock_());
    out += ",\"epoch_open\":";
    out += open.has_value() ? open->to_json() : std::string("null");
    out += ",\"epochs_completed\":" + std::to_string(epochs_->total_finalized());
  } else {
    out += ",\"epochs\":[],\"epoch_open\":null,\"epochs_completed\":0";
  }
  out += ",\"journal\":" + journal_json();
  out += ",\"slo\":" + slo_json();
}

}  // namespace crfs::obs
