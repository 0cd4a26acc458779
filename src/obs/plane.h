// obs::Plane: the telemetry plane, wired once for the real mount (Crfs)
// and for its discrete-event twin (sim::CrfsSimNode).
//
// Owns every sink both sides need: the metric registry, the event buffer,
// the epoch ledger, the slow-exemplar store, the durable journal (with its
// meta frame and the event->journal listener), the knob plane with the
// two knobs that tune the plane itself (slow_capture_ms, epoch_gap_ms),
// and the decision log that audits every tune(). With sample_ms > 0 it
// also owns the Sampler, its crfs.obs.sampler_overruns counter and the
// rule engine (health rules and SLO burn rates); every frame the sampler
// captures reaches on_sample(). The owner calls finish() once at
// unmount/stop.
//
// The two sides differ only in the time base. On wall time start() runs
// the sampler thread, the journal runs its own flusher thread (and the
// real mount arms the journal's crash path on it). On virtual time there
// are no threads and no crash path: the simulator ticks the sampler from
// a coroutine, and on_sample() flushes the journal at the sample's
// virtual timestamp, so two replays of one workload produce
// byte-identical segments.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "crfs/config.h"
#include "obs/epoch.h"
#include "obs/events.h"
#include "obs/journal.h"
#include "obs/knobs.h"
#include "obs/metrics.h"
#include "obs/rules.h"
#include "obs/sampler.h"
#include "obs/slow_store.h"

namespace crfs::obs {

class Plane {
 public:
  /// "Now" in nanoseconds: obs::now_ns on a real mount, virtual time in
  /// the DES.
  using Clock = std::function<std::uint64_t()>;
  enum class TimeBase { kWall, kVirtual };

  Plane(const Config& cfg, Clock clock, TimeBase base);

  Plane(const Plane&) = delete;
  Plane& operator=(const Plane&) = delete;

  Registry& metrics() { return metrics_; }
  const Registry& metrics() const { return metrics_; }
  EventBuffer& events() { return events_; }
  const EventBuffer& events() const { return events_; }
  /// nullptr unless Config::epoch_tracking.
  EpochTracker* epochs() { return epochs_.get(); }
  const EpochTracker* epochs() const { return epochs_.get(); }
  SlowStore& slow() { return slow_; }
  const SlowStore& slow() const { return slow_; }
  /// nullptr unless Config::journal_dir is set.
  Journal* journal() { return journal_.get(); }
  const Journal* journal() const { return journal_.get(); }
  /// nullptr unless Config::sample_ms > 0.
  Sampler* sampler() { return sampler_.get(); }
  const Sampler* sampler() const { return sampler_.get(); }
  /// The health rules and SLO burn rates; nullptr unless
  /// Config::sample_ms > 0.
  RuleEngine* rules() { return rules_.get(); }
  const RuleEngine* rules() const { return rules_.get(); }
  KnobPlane& knobs() { return knobs_; }
  const KnobPlane& knobs() const { return knobs_; }
  /// Audit trail of every tune() (bounded ring).
  DecisionLog& decisions() { return decisions_; }
  const DecisionLog& decisions() const { return decisions_; }

  /// Wall time: starts the sampler thread at sample_ms. Call once the
  /// owner's gauges are registered. No-op without a sampler or on
  /// virtual time, where the owner ticks sampler() itself.
  void start();

  /// Runtime-tunes one knob; out-of-bounds requests are clamped,
  /// impossible ones vetoed, and every outcome is recorded in the
  /// decision log (and so in the metrics, events and journal) before it
  /// is returned. `source` tags the audit trail: "manual" or "ctlfile".
  CtlDecision tune(std::string_view knob, double value, std::string source);

  /// One sampler tick (the sampler's tick observer): rule evaluation, the
  /// journal sample frame, and the epochs/slow exemplars finished since
  /// the last tick (plus the journal flush on virtual time). Called from
  /// one thread at a time.
  void on_sample(const Sample& s);

  /// Unmount/stop tail: finalizes the open epoch, runs `settle` (the real
  /// mount drains its tier there, so the last ledger row carries its drain
  /// columns), journals the remaining epochs and slow exemplars, then
  /// stops (wall) or flushes (virtual) the journal.
  void finish(std::uint64_t now, const std::function<void()>& settle = {});

  /// {"enabled":false} without a journal / armed SLO target.
  std::string journal_json() const;
  std::string slo_json() const;

  /// Appends the plane's sections of stats_json (and so of the
  /// postmortem):
  /// ,"events":..,"slow":..,"epochs":..,"epoch_open":..,
  /// "epochs_completed":..,"journal":..,"slo":..
  void append_sections(std::string& out) const;

 private:
  /// Journals epochs and slow exemplars finished since the last call.
  void journal_cold_sinks();

  const Clock clock_;
  const TimeBase base_;
  const unsigned sample_ms_;
  Registry metrics_;
  EventBuffer events_;
  std::unique_ptr<EpochTracker> epochs_;
  SlowStore slow_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<RuleEngine> rules_;
  // The previous frame's histograms, which each frame's RuleInput (read
  // by the rules and by the journal's sample frames) is windowed against.
  RuleBaseline baseline_{};
  KnobPlane knobs_;
  DecisionLog decisions_;
  // How many finished epochs / captured exemplars are already journaled.
  std::uint64_t journaled_epochs_ = 0;
  std::uint64_t journaled_slow_ = 0;
  // Last: its thread observes every sink above, so it stops first.
  std::unique_ptr<Sampler> sampler_;
};

}  // namespace crfs::obs
