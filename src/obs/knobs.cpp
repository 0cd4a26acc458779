#include "obs/knobs.h"

#include <algorithm>
#include <cstdio>

#include "obs/json_out.h"

namespace crfs {

double KnobSnapshot::get(std::string_view name, double fallback) const {
  const auto it = std::lower_bound(
      values.begin(), values.end(), name,
      [](const auto& kv, std::string_view n) { return kv.first < n; });
  if (it == values.end() || it->first != name) return fallback;
  return it->second;
}

void KnobPlane::define(KnobDef def, double initial, ApplyFn apply) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::lower_bound(
      defs_.begin(), defs_.end(), def.name,
      [](const KnobDef& d, const std::string& n) { return d.name < n; });
  const auto idx = static_cast<std::size_t>(it - defs_.begin());
  defs_.insert(it, std::move(def));
  applies_.insert(applies_.begin() + static_cast<std::ptrdiff_t>(idx), std::move(apply));
  values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(idx), initial);
  publish_locked();
}

TuneResult KnobPlane::tune(std::string_view name, double requested) {
  std::lock_guard<std::mutex> lock(mu_);
  TuneResult r;
  r.knob = std::string(name);
  r.requested = requested;
  r.generation = generation_;

  const auto it = std::lower_bound(
      defs_.begin(), defs_.end(), name,
      [](const KnobDef& d, std::string_view n) { return d.name < n; });
  if (it == defs_.end() || it->name != name) {
    r.outcome = "vetoed";
    r.reason = "unknown knob '" + std::string(name) + "'";
    return r;
  }
  const auto idx = static_cast<std::size_t>(it - defs_.begin());
  const KnobDef& def = defs_[idx];
  r.from = values_[idx];

  double want = requested;
  bool clamped = false;
  if (want < def.min_value) {
    want = def.min_value;
    clamped = true;
  } else if (want > def.max_value) {
    want = def.max_value;
    clamped = true;
  }
  if (clamped) {
    r.reason = "clamped to [";
    obs::append_num(r.reason, def.min_value);
    r.reason += ", ";
    obs::append_num(r.reason, def.max_value);
    r.reason += "]";
  }

  double achieved = want;
  std::string apply_reason;
  if (applies_[idx] && !applies_[idx](want, &achieved, &apply_reason)) {
    r.outcome = "vetoed";
    r.to = r.from;
    r.reason = apply_reason.empty() ? "apply refused" : apply_reason;
    return r;
  }
  if (achieved != want) {
    clamped = true;
    if (!apply_reason.empty()) {
      if (!r.reason.empty()) r.reason += "; ";
      r.reason += apply_reason;
    }
  }

  values_[idx] = achieved;
  generation_ += 1;
  publish_locked();
  r.to = achieved;
  r.outcome = clamped ? "clamped" : "applied";
  r.generation = generation_;
  return r;
}

const KnobSnapshot* KnobPlane::snapshot() const {
  const KnobSnapshot* s = current_.load(std::memory_order_acquire);
  return s != nullptr ? s : &empty_;
}

std::vector<KnobDef> KnobPlane::defs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return defs_;
}

void KnobPlane::publish_locked() {
  auto snap = std::make_unique<KnobSnapshot>();
  snap->generation = generation_;
  snap->values.reserve(defs_.size());
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    snap->values.emplace_back(defs_[i].name, values_[i]);
  }
  current_.store(snap.get(), std::memory_order_release);
  history_.push_back(std::move(snap));
}

std::string KnobPlane::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"generation\":";
  obs::append_num(out, static_cast<double>(generation_));
  out += ",\"knobs\":[";
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    obs::append_json_escaped(out, defs_[i].name);
    out += "\",\"value\":";
    obs::append_num(out, values_[i]);
    out += ",\"min\":";
    obs::append_num(out, defs_[i].min_value);
    out += ",\"max\":";
    obs::append_num(out, defs_[i].max_value);
    out += ",\"unit\":\"";
    obs::append_json_escaped(out, defs_[i].unit);
    out += "\"}";
  }
  out += "]}";
  return out;
}

namespace obs {

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

}  // namespace obs
}  // namespace crfs
