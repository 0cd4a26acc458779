#include "obs/controller.h"

#include <cstdio>

#include "obs/json_out.h"

namespace crfs::obs {

std::string CtlDecision::to_json() const {
  std::string out = "{\"seq\":";
  append_num(out, static_cast<double>(seq));
  out += ",\"ts_ns\":";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(ts_ns));
  out += buf;
  out += ",\"source\":\"";
  append_json_escaped(out, source);
  out += "\",\"rule\":\"";
  append_json_escaped(out, rule);
  out += "\",\"knob\":\"";
  append_json_escaped(out, knob);
  out += "\",\"requested\":";
  append_num(out, requested);
  out += ",\"from\":";
  append_num(out, from);
  out += ",\"to\":";
  append_num(out, to);
  out += ",\"outcome\":\"";
  append_json_escaped(out, outcome);
  out += "\",\"reason\":\"";
  append_json_escaped(out, reason);
  out += "\",\"generation\":";
  append_num(out, static_cast<double>(generation));
  out += "}";
  return out;
}

std::string decisions_to_json(const std::vector<CtlDecision>& decisions) {
  std::string out = "[";
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (i > 0) out += ',';
    out += decisions[i].to_json();
  }
  out += "]";
  return out;
}

DecisionLog::DecisionLog(std::size_t capacity, Registry* metrics, EventBuffer* events)
    : capacity_(capacity == 0 ? 1 : capacity), metrics_(metrics), events_(events) {}

std::uint64_t DecisionLog::record(CtlDecision d) {
  CtlDecision copy;
  {
    std::lock_guard<std::mutex> lock(mu_);
    total_ += 1;
    d.seq = total_;
    ring_.push_back(d);
    while (ring_.size() > capacity_) ring_.pop_front();
    copy = d;
  }
  if (metrics_ != nullptr) {
    metrics_->counter("crfs.ctl.decisions").add(1);
    if (copy.outcome == "applied") {
      metrics_->counter("crfs.ctl.applied").add(1);
    } else if (copy.outcome == "clamped") {
      metrics_->counter("crfs.ctl.clamped").add(1);
    } else {
      metrics_->counter("crfs.ctl.vetoed").add(1);
    }
  }
  if (events_ != nullptr) {
    Event ev;
    ev.severity = Severity::kInfo;
    ev.rule = "ctl." + copy.rule;
    ev.message = copy.source + " " + copy.knob + " ";
    append_num(ev.message, copy.from);
    ev.message += " -> ";
    append_num(ev.message, copy.to);
    ev.message += " (" + copy.outcome + (copy.reason.empty() ? "" : ": " + copy.reason) + ")";
    ev.value = copy.to;
    ev.threshold = copy.from;
    ev.ts_ns = copy.ts_ns;
    events_->push(std::move(ev));
  }
  if (listener_) listener_(copy);
  return copy.seq;
}

std::vector<CtlDecision> DecisionLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t DecisionLog::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::string DecisionLog::to_json() const { return decisions_to_json(snapshot()); }

Controller::Controller(ControllerConfig cfg, DecisionLog& log, EventBuffer* health_events,
                       Registry* metrics, KnobReadFn read, KnobTuneFn tune)
    : cfg_(cfg),
      log_(log),
      health_events_(health_events),
      metrics_(metrics),
      read_(std::move(read)),
      tune_(std::move(tune)) {
  if (metrics_ != nullptr) {
    c_ticks_ = &metrics_->counter("crfs.ctl.ticks");
    c_fired_[kGrow] = &metrics_->counter("crfs.ctl.fired.grow_pool");
    c_fired_[kWiden] = &metrics_->counter("crfs.ctl.fired.widen_io");
    c_fired_[kShed] = &metrics_->counter("crfs.ctl.fired.shed_io");
    c_fired_[kShedReadahead] = &metrics_->counter("crfs.ctl.fired.shed_readahead");
    c_fired_[kShedDrain] = &metrics_->counter("crfs.ctl.fired.shed_drain");
  }
}

bool Controller::cooled(Rule r, std::uint64_t ts_ns) const {
  if (!fired_once_[r]) return true;
  return ts_ns - last_fire_ns_[r] >= cfg_.cooldown_ns;
}

void Controller::fire(const Sample& s, Rule r, const char* rule_name,
                      std::string_view knob, double requested) {
  CtlDecision d;
  d.ts_ns = s.ts_ns;
  d.source = "controller";
  d.rule = rule_name;
  d.knob = std::string(knob);
  d.requested = requested;
  const TuneOutcome out = tune_(knob, requested);
  d.outcome = out.outcome;
  d.from = out.from;
  d.to = out.to;
  d.reason = out.reason;
  d.generation = out.generation;
  log_.record(std::move(d));
  // The cooldown stamps even on a veto: a knob the plane refuses to move
  // should produce one audited veto per cooldown window, not one per tick.
  last_fire_ns_[r] = s.ts_ns;
  fired_once_[r] = true;
  if (c_fired_[r] != nullptr) c_fired_[r]->add(1);
}

void Controller::tick(const Sample& s) {
  ticks_.fetch_add(1, std::memory_order_relaxed);
  if (c_ticks_ != nullptr) c_ticks_->add(1);

  // HealthMonitor edges arrive as events; replay only the ones pushed
  // since the previous tick (the buffer is bounded, so map ring indices
  // back to global sequence via total() - size()).
  bool starved_edge = false;
  if (health_events_ != nullptr) {
    const auto events = health_events_->snapshot();
    const std::uint64_t total = health_events_->total();
    const std::uint64_t base = total - events.size();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (base + i < seen_events_) continue;
      if (events[i].rule == "pool_starvation") starved_edge = true;
    }
    seen_events_ = total;
  }

  const std::int64_t depth = s.gauge("crfs.queue.depth").value_or(0);
  const HistogramSnapshot* pwrite = s.histogram("crfs.io.pwrite_ns");
  const double p99 = (pwrite != nullptr && pwrite->count > 0) ? pwrite->p99() : 0.0;

  if (have_prev_depth_ && depth > prev_depth_) {
    rising_run_ += 1;
  } else {
    rising_run_ = 0;
  }
  prev_depth_ = depth;
  have_prev_depth_ = true;

  // grow_pool: an epoch burst exhausted the buffer pool.
  if (starved_edge && cooled(kGrow, s.ts_ns)) {
    const double cur = read_("pool_chunks", 0.0);
    if (cur > 0.0) fire(s, kGrow, "grow_pool", "pool_chunks", cur * cfg_.grow_factor);
  }

  // shed_io takes precedence over widen_io: a saturated backend with a
  // standing queue means submit-side concurrency is the throttle (§IV).
  bool shed_now = false;
  if (p99 >= cfg_.shed_min_p99_ns && depth >= cfg_.shed_min_depth &&
      cooled(kShed, s.ts_ns)) {
    shed_now = true;
    const double batch = read_("io_batch", 0.0);
    if (batch > 1.0) {
      fire(s, kShed, "shed_io", "io_batch", batch / 2.0);
    }
  }

  // shed_readahead: restore reads are slow while checkpoint writes also
  // queue — prefetch is competing with checkpoint traffic on a saturated
  // backend, so narrow the restore window (floor 1, enforced by the knob
  // plane's min).
  const HistogramSnapshot* rd = s.histogram("crfs.read.pread_ns");
  const double read_p99 = (rd != nullptr && rd->count > 0) ? rd->p99() : 0.0;
  if (read_p99 >= cfg_.shed_min_p99_ns && depth >= cfg_.shed_min_depth &&
      cooled(kShedReadahead, s.ts_ns)) {
    const double window = read_("readahead_window", 0.0);
    if (window > 1.0) {
      fire(s, kShedReadahead, "shed_readahead", "readahead_window", window / 2.0);
    }
  }

  // shed_drain: the tier's background drain is slow (remote saturated)
  // while checkpoint writes queue — halve drain_mbps so the drain yields
  // the remote to the burst; restore the pre-shed value once an epoch
  // finalizes (the burst's unit is sealed; the drain should catch up).
  std::uint64_t epochs_completed = 0;
  for (const auto& [cname, cval] : s.snap.counters) {
    if (cname == "crfs.epoch.completed") {
      epochs_completed = cval;
      break;
    }
  }
  if (drain_shed_active_ && epochs_completed > drain_shed_epoch_mark_) {
    // Restore edge: deliberately bypasses the cooldown — holding the
    // drain shed past the burst trades durability lag for nothing.
    fire(s, kShedDrain, "shed_drain", "drain_mbps", drain_preshed_);
    drain_shed_active_ = false;
  } else if (!drain_shed_active_) {
    const HistogramSnapshot* dr = s.histogram("crfs.tier.drain_pwrite_ns");
    const double drain_p99 = (dr != nullptr && dr->count > 0) ? dr->p99() : 0.0;
    if (drain_p99 >= cfg_.shed_min_p99_ns && depth >= cfg_.shed_min_depth &&
        cooled(kShedDrain, s.ts_ns)) {
      const double cur = read_("drain_mbps", 0.0);
      if (cur > 0.0) {
        drain_preshed_ = cur;
        drain_shed_epoch_mark_ = epochs_completed;
        drain_shed_active_ = true;
        fire(s, kShedDrain, "shed_drain", "drain_mbps", cur / 2.0);
      }
    }
  }

  // widen_io: work arriving faster than we submit, backend healthy.
  if (!shed_now && rising_run_ >= cfg_.widen_rising_samples &&
      p99 < cfg_.widen_max_p99_ns && cooled(kWiden, s.ts_ns)) {
    const double batch = read_("io_batch", 0.0);
    if (batch > 0.0) {
      fire(s, kWiden, "widen_io", "io_batch", batch * 2.0);
    }
    rising_run_ = 0;
  }
}

}  // namespace crfs::obs
