#include "crfs/crfs.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "crfs/mount_options.h"
#include "obs/chrome_trace.h"
#include "obs/json_out.h"

namespace crfs {

Result<std::unique_ptr<Crfs>> Crfs::mount(std::shared_ptr<BackendFs> backend, Config cfg) {
  if (backend == nullptr) return Error{EINVAL, "mount: null backend"};
  CRFS_RETURN_IF_ERROR(cfg.validate());
  return std::unique_ptr<Crfs>(new Crfs(std::move(backend), cfg));
}

Crfs::Crfs(std::shared_ptr<BackendFs> backend, Config cfg)
    : backend_(std::move(backend)),
      cfg_(cfg),
      plane_(cfg, obs::now_ns, obs::Plane::TimeBase::kWall),
      trace_(cfg.trace_ring_events) {
  trace_.set_enabled(cfg_.enable_tracing);
  obs::Registry& m = plane_.metrics();
  pool_ = std::make_unique<BufferPool>(cfg_.pool_size, cfg_.chunk_size);

  // Resolve every hot-path metric once, before any worker thread exists;
  // after this point the registry is only touched through these handles
  // and snapshot().
  h_write_copy_ = &m.histogram("crfs.write.copy_ns");
  h_pool_wait_ = &m.histogram("crfs.write.pool_wait_ns");
  h_drain_wait_ = &m.histogram("crfs.drain.wait_ns");
  h_pwrite_ = &m.histogram("crfs.io.pwrite_ns");
  c_pwrite_bytes_ = &m.counter("crfs.io.pwrite_bytes");
  c_pwrite_errors_ = &m.counter("crfs.io.pwrite_errors");
  c_bypass_bytes_ = &m.counter("crfs.write.bypass_bytes");
  c_m_app_writes_ = &m.counter("crfs.mount.app_writes");
  c_m_app_bytes_ = &m.counter("crfs.mount.app_bytes");
  c_m_reopens_ = &m.counter("crfs.mount.reopens");
  c_m_partial_flushes_ = &m.counter("crfs.mount.partial_flushes");
  c_m_full_flushes_ = &m.counter("crfs.mount.full_flushes");
  c_m_chunk_steals_ = &m.counter("crfs.mount.chunk_steals");
  c_m_bypass_writes_ = &m.counter("crfs.mount.bypass_writes");
  mount_counters_ = {{"app_writes", c_m_app_writes_},
                     {"app_bytes", c_m_app_bytes_},
                     {"full_flushes", c_m_full_flushes_},
                     {"partial_flushes", c_m_partial_flushes_},
                     {"reopens", c_m_reopens_},
                     {"chunk_steals", c_m_chunk_steals_},
                     {"bypass_writes", c_m_bypass_writes_},
                     {"reads", &m.counter("crfs.read.ops")},
                     {"read_bytes", &m.counter("crfs.read.bytes")}};
  queue_.set_wait_histogram(&m.histogram("crfs.queue.wait_ns"));

  // Tiered staging (docs/PERFORMANCE.md "Tiered staging"): when the
  // backend is or wraps a TieredBackend, bind its crfs.tier.* telemetry
  // and wire the epoch ledger to the drain — a finalized epoch seals its
  // drain unit, and a remote-durable unit reports back into the ledger row.
  // Both listeners fire outside the respective locks (epoch.h/tier
  // contracts), so neither callback can deadlock against the other plane.
  tier_ = backend_->tiered();
  if (tier_ != nullptr) {
    tier_->bind_obs(&m, &plane_.events());
    if (obs::EpochTracker* epochs = plane_.epochs()) {
      epochs->set_finalize_listener(
          [this](const obs::EpochRecord& rec) { tier_->seal_epoch(rec.id); });
      tier_->set_drain_listener([epochs](std::uint64_t epoch_id, std::uint64_t bytes,
                                         std::uint64_t drain_ns, std::uint64_t end_ns) {
        if (epoch_id != 0) epochs->attach_drain(epoch_id, bytes, drain_ns, end_ns);
      });
    }
  }

  IoPoolObs io_obs;
  io_obs.pwrite_ns = h_pwrite_;
  io_obs.pwrite_bytes = c_pwrite_bytes_;
  io_obs.pwrite_errors = c_pwrite_errors_;
  io_obs.trace = &trace_;
  io_obs.events = &plane_.events();
  io_obs.batch_chunks = &m.histogram("crfs.io.batch_chunks");
  io_obs.coalesced_pwrites = &m.counter("crfs.io.coalesced_pwrites");
  io_obs.durability_lag_ns = &m.histogram("crfs.chunk.durability_lag_ns");
  io_obs.slow = &plane_.slow();
  io_obs.slow_captured = &m.counter("crfs.slow.captured");
  io_obs.knob_generation = [this] { return plane_.knobs().generation(); };

  // Cap the dequeue batch at half the pool: a batch's chunks stay parked
  // (and its writers starved) until the whole coalesced write lands, so a
  // batch that could drain the entire pool would run the pipeline in
  // lockstep — fill all chunks, stall, write all chunks — instead of
  // overlapping writers with IO (docs/PERFORMANCE.md).
  const unsigned batch_cap =
      static_cast<unsigned>(std::max<std::size_t>(1, cfg_.num_chunks() / 2));
  io_pool_ = std::make_unique<IoThreadPool>(cfg_.io_threads, queue_, *pool_, *backend_, io_obs,
                                            std::min(cfg_.io_batch, batch_cap));

  // Restore-side read pipeline (docs/PERFORMANCE.md "Read path and
  // restore"): window fills ride the work queue's read lane, so the IO
  // pool's workers run them.
  ReadObs read_obs;
  read_obs.ops = &m.counter("crfs.read.ops");
  read_obs.bytes = &m.counter("crfs.read.bytes");
  read_obs.prefetch_issued = &m.counter("crfs.read.prefetch_issued");
  read_obs.prefetch_hits = &m.counter("crfs.read.prefetch_hits");
  read_obs.prefetch_wasted = &m.counter("crfs.read.prefetch_wasted");
  read_obs.sync_preads = &m.counter("crfs.read.sync_preads");
  read_obs.pread_ns = &m.histogram("crfs.read.pread_ns");
  read_obs.inflight_depth = &m.histogram("crfs.read.inflight_depth");
  // Slow-read forensics: same store and threshold as the write side, with
  // kind="read". A blocking restore read has no copy/queue chain — the
  // whole duration is device time.
  read_obs.on_slow = [this, c_slow = &m.counter("crfs.slow.captured")](
                         const std::string& path, std::uint64_t offset, std::size_t len,
                         std::uint64_t t_start, std::uint64_t t_done) {
    const std::uint64_t dur = t_done - t_start;
    if (!plane_.slow().over_threshold(dur, dur)) return;
    obs::SlowExemplar ex;
    ex.kind = "read";
    ex.path = path;
    ex.offset = offset;
    ex.len = len;
    ex.submit_ns = t_start;
    ex.durable_ns = t_done;
    ex.device_ns = dur;
    ex.total_lag_ns = dur;
    ex.queue_depth = queue_.depth();
    ex.free_chunks = pool_->free_chunks();
    ex.knob_generation = plane_.knobs().generation();
    plane_.slow().capture(std::move(ex));
    c_slow->add(1);
  };
  readahead_ = std::make_unique<Readahead>(*backend_, *pool_, queue_, std::move(read_obs),
                                          cfg_.epoch_ledger);
  readahead_on_.store(cfg_.readahead, std::memory_order_relaxed);
  readahead_window_.store(cfg_.readahead_window, std::memory_order_relaxed);

  // Occupancy gauges, sampled at snapshot time straight from the stages.
  m.gauge_fn("crfs.pool.free_chunks", [this] {
    return static_cast<std::int64_t>(pool_->free_chunks());
  });
  m.gauge_fn("crfs.pool.parked_chunks", [this] {
    return static_cast<std::int64_t>(pool_->in_use_chunks());
  });
  m.gauge_fn("crfs.pool.contentions", [this] {
    return static_cast<std::int64_t>(pool_->contention_count());
  });
  m.gauge_fn("crfs.queue.depth", [this] {
    return static_cast<std::int64_t>(queue_.depth());
  });
  m.gauge_fn("crfs.io.in_flight", [this] {
    return static_cast<std::int64_t>(io_pool_->in_flight());
  });
  m.gauge_fn("crfs.files.open", [this] {
    return static_cast<std::int64_t>(table_.open_count());
  });
  // Self-health gauges (docs/OBSERVABILITY.md "Observing the observer"):
  // spans lost to ring wrap-around, and slow-exemplar buffer occupancy.
  m.gauge_fn("crfs.trace.dropped_spans", [this] {
    return static_cast<std::int64_t>(trace_.dropped());
  });
  m.gauge_fn("crfs.slow.exemplars", [this] {
    return static_cast<std::int64_t>(plane_.slow().size());
  });

  // Live telemetry: background sampler + health rules. Construction only
  // here — the thread starts below, after the knob plane is wired, so the
  // first tick already sees the tick observer.
  if (cfg_.sample_ms > 0) {
    health_ = std::make_unique<obs::HealthMonitor>(cfg_.health, plane_.events());
    sampler_ = std::make_unique<obs::Sampler>(
        m, obs::SamplerOptions{.ring_capacity = cfg_.sample_ring});
    sampler_->set_health_monitor(health_.get());
    sampler_->set_overrun_counter(&m.counter("crfs.obs.sampler_overruns"));
  }

  // Control plane (docs/OBSERVABILITY.md "Control plane"): the knob plane
  // and decision log always exist (crfsctl tune works on any mount).
  define_knobs();
  decisions_ = std::make_unique<obs::DecisionLog>(cfg_.event_capacity, &m, &plane_.events());
  m.gauge_fn("crfs.ctl.generation", [this] {
    return static_cast<std::int64_t>(plane_.knobs().generation());
  });
  for (const KnobDef& def : plane_.knobs().defs()) {
    m.gauge_fn("crfs.knob." + def.name, [this, name = def.name] {
      return static_cast<std::int64_t>(plane_.knobs().snapshot()->get(name, 0.0));
    });
  }
  // The plane observes every sample (SLO burn rates, journal frames).
  if (sampler_ != nullptr) {
    sampler_->set_tick_observer([this](const obs::Sample& s) { plane_.on_sample(s); });
    sampler_->start(std::chrono::milliseconds(cfg_.sample_ms));
  }

  // Crash path (docs/OBSERVABILITY.md "Durable journal"): armed last,
  // since the render reads every stage. It renders once here, so a crash
  // before the first flush still leaves a document.
  if (obs::Journal* journal = plane_.journal()) {
    journal->set_postmortem_renderer([this] { return render_postmortem(); });
  }
}

void Crfs::define_knobs() {
  KnobPlane& knobs = plane_.knobs();

  // pool_chunks: grow/shrink the buffer pool by whole chunks. Shrinks are
  // best-effort over free chunks, so the apply reports what it actually
  // achieved. A resize also re-clamps the effective IO batch against the
  // new half-the-pool cap (same invariant the mount ctor establishes).
  knobs.define(
      knob_def("pool_chunks", cfg_), static_cast<double>(cfg_.num_chunks()),
      [this](double v, double* achieved, std::string* reason) {
        const std::size_t got = pool_->resize(static_cast<std::size_t>(v));
        if (got != static_cast<std::size_t>(v)) {
          *achieved = static_cast<double>(got);
          *reason = "shrink bounded by free chunks";
        }
        const unsigned cap = static_cast<unsigned>(std::max<std::size_t>(1, got / 2));
        const auto tuned_batch = static_cast<unsigned>(
            plane_.knobs().snapshot()->get("io_batch", io_pool_->batch()));
        io_pool_->set_batch(std::min(tuned_batch, cap));
        return true;
      });

  // io_batch: chunks per work-queue drain. The half-the-pool cap is
  // enforced at apply time (and re-checked when pool_chunks changes).
  knobs.define(
      knob_def("io_batch", cfg_), static_cast<double>(io_pool_->batch()),
      [this](double v, double* achieved, std::string* reason) {
        const unsigned cap = static_cast<unsigned>(
            std::max<std::size_t>(1, pool_->total_chunks() / 2));
        const auto want = static_cast<unsigned>(v);
        const unsigned eff = std::min(want, cap);
        io_pool_->set_batch(eff);
        if (eff != want) {
          *achieved = static_cast<double>(eff);
          *reason = "capped at half the pool (" + std::to_string(cap) + " chunks)";
        }
        return true;
      });

  // sample_ms: background sampler period, picked up on the next wakeup.
  knobs.define(
      knob_def("sample_ms", cfg_), static_cast<double>(cfg_.sample_ms),
      [this](double v, double*, std::string* reason) {
        if (sampler_ == nullptr) {
          *reason = "sampler disabled (mount with sample_ms > 0)";
          return false;
        }
        sampler_->set_interval(std::chrono::milliseconds(static_cast<long long>(v)));
        return true;
      });

  // slow_pwrite_ms: the health rule's p99 threshold; 0 disables the rule.
  knobs.define(
      knob_def("slow_pwrite_ms", cfg_), static_cast<double>(cfg_.health.slow_pwrite_p99_ns) / 1e6,
      [this](double v, double*, std::string* reason) {
        if (health_ == nullptr) {
          *reason = "health monitor disabled (mount with sample_ms > 0)";
          return false;
        }
        health_->set_slow_pwrite_p99_ns(static_cast<std::uint64_t>(v * 1e6));
        return true;
      });

  // readahead: restore-prefetch master switch. One relaxed store; an
  // in-progress scan sees the change on its next read (already-parked
  // prefetch slots still serve, then the window stops topping up).
  knobs.define(
      knob_def("readahead", cfg_), cfg_.readahead ? 1.0 : 0.0,
      [this](double v, double*, std::string*) {
        readahead_on_.store(v >= 0.5, std::memory_order_relaxed);
        return true;
      });

  // readahead_window: chunk reads kept in flight per sequential restore
  // scan (the IO thread count still caps it); floor 1.
  knobs.define(
      knob_def("readahead_window", cfg_), static_cast<double>(cfg_.readahead_window),
      [this](double v, double*, std::string*) {
        readahead_window_.store(static_cast<unsigned>(v), std::memory_order_relaxed);
        return true;
      });

  // journal_fsync_ms: durability cadence of the telemetry journal; 0 means
  // fsync only on rotation and shutdown. Picked up on the next flush.
  knobs.define(
      knob_def("journal_fsync_ms", cfg_), static_cast<double>(cfg_.journal_fsync_ms),
      [this](double v, double*, std::string* reason) {
        if (plane_.journal() == nullptr) {
          *reason = "journal disabled (mount with journal=<dir>)";
          return false;
        }
        plane_.journal()->set_fsync_ms(static_cast<unsigned>(v));
        return true;
      });

  // drain_mbps: the tier's drain throttle toward the remote; 0 removes
  // the cap. One relaxed store, picked up by the next drain chunk.
  // Vetoed on non-tiered mounts.
  knobs.define(
      knob_def("drain_mbps", cfg_),
      tier_ != nullptr ? tier_->drain_mbps() : static_cast<double>(cfg_.drain_mbps),
      [this](double v, double*, std::string* reason) {
        if (tier_ == nullptr) {
          *reason = "tiered backend not mounted (stage=/remote=)";
          return false;
        }
        tier_->set_drain_mbps(v);
        return true;
      });

  // drain_parallel: how many files the drain copies to the remote at
  // once, one write stream each. Applied under the tier lock: a raise
  // wakes idle drain workers at once.
  knobs.define(
      knob_def("drain_parallel", cfg_),
      tier_ != nullptr ? static_cast<double>(tier_->drain_parallel())
                       : static_cast<double>(cfg_.drain_parallel),
      [this](double v, double*, std::string* reason) {
        if (tier_ == nullptr) {
          *reason = "tiered backend not mounted (stage=/remote=)";
          return false;
        }
        tier_->set_drain_parallel(static_cast<unsigned>(v));
        return true;
      });
}

Crfs::~Crfs() {
  // Detach the postmortem renderer and stop the sampler first: both
  // evaluate gauges that read the pool/queue/IO stages this destructor is
  // about to tear down.
  if (obs::Journal* journal = plane_.journal()) journal->set_postmortem_renderer(nullptr);
  if (sampler_ != nullptr) sampler_->stop();
  // Flush buffered data of any files the application failed to close, so
  // unmounting never silently drops bytes.
  for (const HandleState& state : handles_.snapshot()) drain(state.entry);
  // The read pipeline parks pool chunks in its prefetch slots and its
  // in-flight fills run on the IO workers: tear it down (waiting those
  // fills out) while the workers still run.
  readahead_.reset();
  // Then the IO pool: drains the queue, joins workers.
  io_pool_.reset();
  pool_->shutdown();
  // All chunk writes have landed: the final epoch record sees complete
  // durable counts. With a tier, finalize fires the seal listener, so the
  // last epoch's unit is drain-eligible before the flush; draining it to
  // remote-durable fills the ledger row's drain columns before the plane
  // journals it. The drain listener is detached afterwards: backend_ (and
  // its drain thread) outlives plane_ in member order.
  plane_.finish(obs::now_ns(), [this] {
    if (tier_ == nullptr) return;
    (void)tier_->flush();
    tier_->set_drain_listener(nullptr);
  });
}

Result<Crfs::FileHandle> Crfs::open(const std::string& path, OpenFlags flags) {
  // Epoch control file: writes carry "begin [label]" / "end" commands and
  // nothing reaches the backend. The dummy entry is detached (not in the
  // FileTable) so the handle machinery treats the slot as live.
  if (cfg_.epoch_tracking && path == cfg_.epoch_marker_path) {
    auto dummy = std::make_shared<FileEntry>(path, BackendFile{0});
    return handles_.insert(HandleState{std::move(dummy), flags.write, /*epoch_marker=*/true});
  }
  // Tune control file: same detached-dummy scheme, writes carry
  // "knob=value" commands for the knob plane.
  if (!cfg_.tune_marker_path.empty() && path == cfg_.tune_marker_path) {
    auto dummy = std::make_shared<FileEntry>(path, BackendFile{0});
    return handles_.insert(HandleState{std::move(dummy), flags.write,
                                       /*epoch_marker=*/false, /*tune_marker=*/true});
  }

  bool reopened = true;
  auto entry = table_.find_or_create(path, [&]() -> Result<std::shared_ptr<FileEntry>> {
    reopened = false;
    auto bf = backend_->open_file(path, flags);
    if (!bf.ok()) return bf.error();
    return std::make_shared<FileEntry>(path, bf.value());
  });
  if (!entry.ok()) return entry.error();
  if (reopened) {
    c_m_reopens_->add(1);
    if (flags.truncate && flags.write) {
      // Truncating reopen: discard buffered data and truncate the backend.
      auto& e = *entry.value();
      {
        std::lock_guard agg(e.agg_mu);
        e.current.reset();
        e.size_seen.store(0, std::memory_order_relaxed);
        e.write_gen.fetch_add(1, std::memory_order_release);
      }
      const std::uint64_t target = e.write_chunks.load(std::memory_order_acquire);
      e.wait_for_completion(target);
      CRFS_RETURN_IF_ERROR(backend_->truncate(e.backend_file(), 0));
    }
  }

  // Epoch attribution is resolved once here (cold path) and cached on the
  // entry; write() and the IO workers never touch the tracker.
  if (plane_.epochs() != nullptr && flags.write) {
    auto epoch = plane_.epochs()->on_open(path, obs::now_ns());
    std::lock_guard agg(entry.value()->agg_mu);
    entry.value()->epoch = std::move(epoch);
  }

  // A read-only open is a restore scan about to start: count it in the
  // readahead fair share before its first read.
  if (!flags.write) readahead_->open(entry.value());
  return handles_.insert(HandleState{entry.value(), flags.write});
}

Result<std::shared_ptr<FileEntry>> Crfs::entry_for(FileHandle handle) {
  auto state = handles_.get(handle);
  if (!state) return Error{EBADF, "unknown CRFS handle"};
  return std::move(state->entry);
}

Result<HandleState> Crfs::state_for(FileHandle handle) {
  auto state = handles_.get(handle);
  if (!state) return Error{EBADF, "unknown CRFS handle"};
  return std::move(*state);
}

std::uint64_t Crfs::flush_current_locked(const std::shared_ptr<FileEntry>& entry,
                                         bool partial) {
  if (entry->current != nullptr && !entry->current->empty()) {
    obs::TraceSpan span(trace_, "flush");
    auto chunk = std::move(entry->current);
    span.set_trace_id(chunk->trace_id());
    entry->write_chunks.fetch_add(1, std::memory_order_acq_rel);
    (partial ? c_m_partial_flushes_ : c_m_full_flushes_)->add(1);
    // Capture the epoch under agg_mu (the only lock that guards the
    // field); the IO threads attribute through the job's copy, never
    // through the entry.
    WriteJob job{entry, std::move(chunk), entry->epoch};
    if (job.epoch != nullptr) job.epoch->chunks.fetch_add(1, std::memory_order_relaxed);
    queue_.push(std::move(job));
  } else if (entry->current != nullptr) {
    // Empty chunk: just return it to the pool.
    pool_->release(std::move(entry->current));
  }
  return entry->write_chunks.load(std::memory_order_acquire);
}

Status Crfs::write(FileHandle handle, std::span<const std::byte> data, std::uint64_t offset) {
  auto state_result = state_for(handle);
  if (!state_result.ok()) return state_result.error();
  if (!state_result.value().writable) return Error{EBADF, "write on read-only handle"};
  if (state_result.value().epoch_marker) return handle_epoch_marker(data);
  if (state_result.value().tune_marker) return handle_tune_marker(data);
  const std::shared_ptr<FileEntry>& entry_sp = state_result.value().entry;
  FileEntry& entry = *entry_sp;

  const std::size_t nbytes = data.size();
  c_m_app_writes_->add(1);
  c_m_app_bytes_->add(nbytes);

  // Per-stage accounting: one clock pair for the whole call, plus slow-path
  // clocks inside acquire_chunk only when the pool actually blocks. The
  // difference is the aggregation (copy + enqueue) cost the paper attributes
  // to CRFS itself; the pool wait is backpressure from the backend.
  const std::uint64_t t0 = obs::now_ns();
  obs::TraceSpan span(trace_, "write");
  std::uint64_t pool_wait_ns = 0;

  std::lock_guard agg(entry.agg_mu);

  // Large-write copy bypass (docs/PERFORMANCE.md): a chunk-size-or-larger
  // write at/past the file's high-water mark goes straight to the backend,
  // skipping the memcpy and the pool round-trip. Safe exactly because
  // size_seen is the max append point this file has ever reached (only
  // advanced under agg_mu): every buffered, queued, or in-flight chunk
  // lies entirely below it, so the direct write cannot race a chunk write
  // for the same byte range — ordering is irrelevant for disjoint ranges.
  // It is the one backend write of a file made outside the IO pool's
  // one-writer-per-file rule, so it may overlap that file's IO worker.
  // current == nullptr keeps the common partial-chunk stream on the
  // aggregation path (a parked chunk may end exactly at `offset`, and
  // flushing it here just to bypass would cost more than the memcpy).
  if (cfg_.large_write_bypass && nbytes >= cfg_.chunk_size && entry.current == nullptr &&
      offset >= entry.size_seen.load(std::memory_order_relaxed)) {
    const Status st = backend_->pwrite(entry.backend_file(), data, offset);
    const std::uint64_t t_done = obs::now_ns();
    h_pwrite_->record(t_done - t0);
    if (!st.ok()) {
      c_pwrite_errors_->add(1);
      if (entry.epoch != nullptr) {
        entry.epoch->io_errors.fetch_add(1, std::memory_order_relaxed);
      }
      // The app thread sees the failure synchronously — no sticky error
      // needed, nothing was buffered.
      return st;
    }
    c_pwrite_bytes_->add(nbytes);
    c_bypass_bytes_->add(nbytes);
    c_m_bypass_writes_->add(1);
    if (entry.epoch != nullptr) {
      entry.epoch->app_writes.fetch_add(1, std::memory_order_relaxed);
      entry.epoch->bytes.fetch_add(nbytes, std::memory_order_relaxed);
      entry.epoch->backend_writes.fetch_add(1, std::memory_order_relaxed);
      // Durable immediately, with zero queue residency; note this counts
      // as one chunk-equivalent backend write, so epoch aggregation
      // ratios reflect that bypassed bytes were never aggregated.
      entry.epoch->record_chunk_durable(nbytes, t_done - t0, 0);
      // Critical path: the whole call was device time (direct pwrite).
      entry.epoch->device_ns.fetch_add(t_done - t0, std::memory_order_relaxed);
    }
    const std::uint64_t end = offset + nbytes;
    std::uint64_t seen = entry.size_seen.load(std::memory_order_relaxed);
    while (end > seen &&
           !entry.size_seen.compare_exchange_weak(seen, end, std::memory_order_relaxed)) {
    }
    entry.write_gen.fetch_add(1, std::memory_order_release);
    return {};
  }

  while (!data.empty()) {
    // Non-contiguous write: flush the current chunk and restart at the new
    // offset. Checkpoint streams are sequential so this is the cold path.
    if (entry.current != nullptr && entry.current->append_point() != offset) {
      flush_current_locked(entry_sp, /*partial=*/true);
    }
    if (entry.current == nullptr) {
      // An overwrite needs no wait for the chunks it overlaps: they are
      // queued ahead of it, and one IO thread at a time writes a file's
      // chunks in queue order (WorkQueue::pop_work), so the newer bytes
      // land last.
      const std::uint64_t wait_before = pool_wait_ns;
      entry.current = acquire_chunk(entry, offset, &pool_wait_ns);
      if (entry.current == nullptr) return Error{EIO, "CRFS shutting down"};
      // Chunk-lifecycle ledger: birth = first copy-in. Reuses this call's
      // t0 instead of a fresh clock read; the IO pool derives durability
      // lag (copy-in -> pwrite-complete) from it.
      entry.current->set_born_ns(t0);
      // Causal chain: one relaxed fetch_add per chunk; the id rides the
      // chunk across the queue so the IO worker's spans stitch to this
      // call's. The stall is the wait THIS chunk's acquisition cost, so
      // the chunk's fill window (born -> enqueue) splits into stall+copy.
      const std::uint64_t id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
      entry.current->set_trace_id(id);
      entry.current->set_stall_ns(pool_wait_ns - wait_before);
      span.set_trace_id(id);
    }
    const std::size_t consumed = entry.current->append(data);
    data = data.subspan(consumed);
    offset += consumed;
    if (entry.current->full()) {
      flush_current_locked(entry_sp, /*partial=*/false);
    }
  }

  const std::uint64_t elapsed = obs::now_ns() - t0;
  h_write_copy_->record(elapsed > pool_wait_ns ? elapsed - pool_wait_ns : 0);
  if (pool_wait_ns > 0) h_pool_wait_->record(pool_wait_ns);

  // Epoch attribution: three relaxed fetch_adds, still under agg_mu (the
  // lock that guards the epoch pointer itself).
  if (entry.epoch != nullptr) {
    entry.epoch->app_writes.fetch_add(1, std::memory_order_relaxed);
    entry.epoch->bytes.fetch_add(nbytes, std::memory_order_relaxed);
    if (pool_wait_ns > 0) {
      entry.epoch->pool_stall_ns.fetch_add(pool_wait_ns, std::memory_order_relaxed);
    }
    // Critical-path attribution: the same copy-stage quantity the
    // crfs.write.copy_ns histogram records, charged to the epoch.
    entry.epoch->copy_ns.fetch_add(elapsed > pool_wait_ns ? elapsed - pool_wait_ns : 0,
                                   std::memory_order_relaxed);
  }

  // Track the furthest byte written for getattr on still-buffered files.
  std::uint64_t seen = entry.size_seen.load(std::memory_order_relaxed);
  while (offset > seen &&
         !entry.size_seen.compare_exchange_weak(seen, offset, std::memory_order_relaxed)) {
  }
  // Invalidate any read-side prefetch cache for this file (still under
  // agg_mu, the lock that orders writes).
  entry.write_gen.fetch_add(1, std::memory_order_release);
  return {};
}

std::unique_ptr<Chunk> Crfs::acquire_chunk(FileEntry& entry, std::uint64_t offset,
                                           std::uint64_t* wait_ns) {
  // Fast path: a chunk is free, or becomes free quickly (IO threads never
  // take agg_mu, so they keep draining while we hold this entry's lock).
  if (auto chunk = pool_->try_acquire(offset)) return chunk;

  // Slow path only from here on: clocks and spans are off the fast path.
  const std::uint64_t t0 = obs::now_ns();
  obs::TraceSpan span(trace_, "pool_wait");
  for (;;) {
    if (pool_->is_shutdown()) {
      *wait_ns += obs::now_ns() - t0;
      return nullptr;
    }
    // Only when the whole pipeline is PROVABLY idle — nothing queued,
    // nothing being written — can every chunk be parked as some other
    // file's partial current chunk, which would deadlock. Then no chunk
    // comes back by waiting: steal one before parking. The two atomics go
    // before the queue's lock, so a wait behind busy IO threads takes none.
    if (pool_->free_chunks() == 0 && io_pool_->in_flight() == 0 && queue_.depth() == 0) {
      // Exhaustion rescue: flush the fullest parked partial to the work
      // queue ("steal"). try_lock keeps this deadlock-free: two writers
      // can never wait on each other's agg_mu.
      std::shared_ptr<FileEntry> victim;
      std::size_t victim_fill = 0;
      for (const auto& other : table_.snapshot()) {
        if (other.get() == &entry) continue;
        std::unique_lock other_lock(other->agg_mu, std::try_to_lock);
        if (!other_lock.owns_lock()) continue;
        if (other->current != nullptr && other->current->fill() > victim_fill) {
          victim = other;
          victim_fill = other->current->fill();
        }
      }
      if (victim != nullptr) {
        std::unique_lock victim_lock(victim->agg_mu, std::try_to_lock);
        if (victim_lock.owns_lock() && victim->current != nullptr &&
            !victim->current->empty()) {
          flush_current_locked(victim, /*partial=*/true);
          c_m_chunk_steals_->add(1);
        }
      }
    }
    // Normal backpressure: IO threads are draining (a stolen chunk too),
    // so a chunk will come back and wake us. The deadline only bounds a
    // pass that found the pipeline busy and then saw it go idle.
    if (auto chunk = pool_->acquire_for(offset, std::chrono::milliseconds(10))) {
      *wait_ns += obs::now_ns() - t0;
      return chunk;
    }
  }
}

void Crfs::drain(const std::shared_ptr<FileEntry>& entry) {
  std::uint64_t target;
  std::shared_ptr<obs::EpochState> epoch;
  {
    std::lock_guard agg(entry->agg_mu);
    target = flush_current_locked(entry, /*partial=*/true);
    epoch = entry->epoch;  // captured under the lock that guards it
  }
  // Drain wait: how long close()/fsync() block on the pipeline emptying —
  // the paper's §IV-C reconciliation of write vs. complete chunk counts.
  const std::uint64_t t0 = obs::now_ns();
  obs::TraceSpan span(trace_, "drain");
  if (trace_.enabled()) span.set_tag(trace_.intern(entry->path()));
  entry->wait_for_completion(target);
  const std::uint64_t waited = obs::now_ns() - t0;
  h_drain_wait_->record(waited);
  // Critical path: the fsync/close barrier. NOTE this overlaps the
  // background stages (queue/submit/device run while we wait), so it is
  // reported beside, not summed into, the chunk-lifetime decomposition.
  if (epoch != nullptr && waited > 0) {
    epoch->barrier_ns.fetch_add(waited, std::memory_order_relaxed);
  }
}

Result<std::size_t> Crfs::read(FileHandle handle, std::span<std::byte> data,
                               std::uint64_t offset) {
  auto state_result = state_for(handle);
  if (!state_result.ok()) return state_result.error();
  if (state_result.value().epoch_marker || state_result.value().tune_marker) {
    return std::size_t{0};  // control files read as empty
  }
  const std::shared_ptr<FileEntry>& entry_sp = state_result.value().entry;
  FileEntry& entry = *entry_sp;

  if (cfg_.flush_before_read) {
    // Barrier THIS file's pending chunks only: flush the dirty current
    // chunk (if any), then wait until everything already handed to the
    // work queue for this file is durable. A clean file — nothing
    // buffered, nothing in flight — short-circuits with two atomic loads;
    // other files' traffic is never waited on.
    std::uint64_t target;
    std::shared_ptr<obs::EpochState> epoch;
    {
      std::lock_guard agg(entry.agg_mu);
      if (entry.current != nullptr && !entry.current->empty()) {
        target = flush_current_locked(entry_sp, /*partial=*/true);
      } else {
        target = entry.write_chunks.load(std::memory_order_acquire);
      }
      epoch = entry.epoch;
    }
    if (entry.complete_chunks.load(std::memory_order_acquire) < target) {
      const std::uint64_t t0 = obs::now_ns();
      obs::TraceSpan span(trace_, "read_barrier");
      entry.wait_for_completion(target);
      const std::uint64_t waited = obs::now_ns() - t0;
      h_drain_wait_->record(waited);
      if (epoch != nullptr && waited > 0) {
        epoch->barrier_ns.fetch_add(waited, std::memory_order_relaxed);
      }
    }
  }

  // The read pipeline counts the op and its bytes (crfs.read.ops/bytes).
  return readahead_->read(entry_sp, data, offset,
                          readahead_on_.load(std::memory_order_relaxed),
                          readahead_window_.load(std::memory_order_relaxed));
}

Status Crfs::fsync(FileHandle handle) {
  auto state_result = state_for(handle);
  if (!state_result.ok()) return state_result.error();
  if (state_result.value().epoch_marker || state_result.value().tune_marker) {
    return {};  // nothing buffered, no backend
  }
  const std::shared_ptr<FileEntry>& entry_sp = state_result.value().entry;

  drain(entry_sp);
  if (auto err = entry_sp->take_error()) return *err;
  return backend_->fsync(entry_sp->backend_file());
}

Status Crfs::close(FileHandle handle) {
  auto removed = handles_.remove(handle);
  if (!removed) return Error{EBADF, "close: unknown CRFS handle"};
  if (removed->epoch_marker || removed->tune_marker) {
    return {};  // control file: nothing to flush
  }
  std::shared_ptr<FileEntry> entry = std::move(removed->entry);

  // Paper §IV-C: enqueue remaining data, then block until the complete
  // chunk count equals the write chunk count.
  drain(entry);

  // The epoch's open/close correlation window advances only after the
  // drain: a "closed" file has all its chunks enqueued (durability still
  // trails via the in-flight WriteJobs' epoch pointers).
  if (plane_.epochs() != nullptr && removed->writable) {
    plane_.epochs()->on_close(entry->path(), obs::now_ns());
  }

  Status result;
  if (auto err = entry->take_error()) result = *err;

  if (auto last = table_.release(entry->path())) {
    // Final close: drop the read-side prefetch cache (finalizing the
    // restore-ledger row, waiting out its fills) before the backend file
    // closes. All of the file's writes have drained above.
    readahead_->evict(last.get());
    const Status close_status = backend_->close_file(last->backend_file());
    if (result.ok() && !close_status.ok()) result = close_status;
  }
  return result;
}

Result<BackendStat> Crfs::getattr(const std::string& path) {
  auto st = backend_->stat(path);
  if (!st.ok()) return st;
  // A still-open file may have bytes buffered in its current chunk or in
  // flight in the work queue; report the logical size the app produced.
  if (auto entry = table_.find(path)) {
    const std::uint64_t seen = entry->size_seen.load(std::memory_order_relaxed);
    if (seen > st.value().size) st.value().size = seen;
  }
  return st;
}

Status Crfs::mkdir(const std::string& path) { return backend_->mkdir(path); }
Status Crfs::rmdir(const std::string& path) { return backend_->rmdir(path); }
Status Crfs::unlink(const std::string& path) { return backend_->unlink(path); }

Status Crfs::rename(const std::string& from, const std::string& to) {
  // Flush buffered data so the renamed file is complete under its new name.
  if (auto entry = table_.find(from)) drain(entry);
  return backend_->rename(from, to);
}

Result<std::vector<std::string>> Crfs::list_dir(const std::string& path) {
  return backend_->list_dir(path);
}

std::string Crfs::stats_report() const {
  std::string out = "CRFS pipeline stats (" + cfg_.describe() + ")\n";
  TextTable mount({"Mount counter", "Value"});
  for (const auto& [name, counter] : mount_counters_) {
    mount.add_row({name, std::to_string(counter->value())});
  }
  out += mount.render();
  out += "\n";
  out += metrics().snapshot().render_table();
  if (tier_ != nullptr) {
    const TierStats t = tier_->tier_stats();
    TextTable tt({"Tier", "Value"});
    tt.add_row({"stage_used", std::to_string(t.stage_used)});
    tt.add_row({"stage_cap", std::to_string(t.stage_cap)});
    tt.add_row({"staged_bytes", std::to_string(t.staged_bytes)});
    tt.add_row({"drained_bytes", std::to_string(t.drained_bytes)});
    tt.add_row({"spill_bytes", std::to_string(t.spill_bytes)});
    tt.add_row({"pending_units", std::to_string(t.pending_units)});
    tt.add_row({"units_evicted", std::to_string(t.units_evicted)});
    tt.add_row({"stalls", std::to_string(t.stalls)});
    tt.add_row({"retries", std::to_string(t.retries)});
    char num[64];
    std::snprintf(num, sizeof(num), "%.3f", static_cast<double>(t.drain_lag_ns) / 1e6);
    tt.add_row({"drain_lag_ms", num});
    out += "\n";
    out += tt.render();
  }
  if (const obs::EpochTracker* epochs = plane_.epochs()) {
    auto recs = epochs->records();
    if (auto open = epochs->open_epoch(obs::now_ns())) recs.push_back(*open);
    if (!recs.empty()) {
      TextTable ep({"Epoch", "Label", "Files", "Bytes", "Chunks", "Agg ratio",
                    "BW (MiB/s)", "Lag max (ms)", "Drained", "Drain BW", "State"});
      char num[64];
      for (const auto& r : recs) {
        std::snprintf(num, sizeof(num), "%.2f", r.aggregation_ratio());
        std::string agg = num;
        std::snprintf(num, sizeof(num), "%.1f", r.effective_bw() / (1024.0 * 1024.0));
        std::string bw = num;
        std::snprintf(num, sizeof(num), "%.3f",
                      static_cast<double>(r.durability_lag_max_ns) / 1e6);
        std::string lag = num;
        std::snprintf(num, sizeof(num), "%.1f", r.drain_bw() / (1024.0 * 1024.0));
        ep.add_row({std::to_string(r.id), r.label, std::to_string(r.files),
                    std::to_string(r.bytes), std::to_string(r.chunks), agg, bw, lag,
                    std::to_string(r.drained_bytes), num,
                    r.open ? "open" : "done"});
      }
      out += "\n";
      out += ep.render();
    }
  }
  const auto restores = readahead_->ledger_snapshot();
  if (!restores.empty()) {
    TextTable rt({"Restore", "Bytes", "Ops", "Issued", "Hits", "Wasted", "Sync",
                  "TTFB (ms)", "BW (MiB/s)", "State"});
    char num[64];
    for (const auto& r : restores) {
      std::snprintf(num, sizeof(num), "%.3f", static_cast<double>(r.ttfb_ns) / 1e6);
      std::string ttfb = num;
      const std::uint64_t span_ns =
          r.last_read_ns > r.first_read_ns ? r.last_read_ns - r.first_read_ns : 0;
      const double bw = span_ns > 0
                            ? static_cast<double>(r.bytes) * 1e9 /
                                  (static_cast<double>(span_ns) * 1024.0 * 1024.0)
                            : 0.0;
      std::snprintf(num, sizeof(num), "%.1f", bw);
      rt.add_row({r.path, std::to_string(r.bytes), std::to_string(r.ops),
                  std::to_string(r.prefetch_issued), std::to_string(r.prefetch_hits),
                  std::to_string(r.prefetch_wasted), std::to_string(r.sync_preads), ttfb,
                  num, r.active ? "open" : "done"});
    }
    out += "\n";
    out += rt.render();
  }
  const auto events = plane_.events().snapshot();
  if (!events.empty()) {
    TextTable ev({"Severity", "Rule", "Detail"});
    for (const auto& e : events) {
      ev.add_row({obs::severity_name(e.severity), e.rule, e.message});
    }
    out += "\n";
    out += ev.render();
  }
  return out;
}

std::string Crfs::mount_json() const {
  std::string out = "{";
  for (const auto& [name, counter] : mount_counters_) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += name;
    out += "\":" + std::to_string(counter->value());
  }
  out += '}';
  return out;
}

std::string Crfs::stats_json() const {
  std::string out = "{";
  append_stats_body(out);
  out += "}";
  return out;
}

void Crfs::append_stats_body(std::string& out) const {
  // schema_version counts breaking shape changes of this document (and of
  // the postmortem, which embeds it): 2 = control plane, 3 = durable
  // journal + SLO burn rates, 4 = the "controller" section without its
  // enabled/ticks fields (the feedback controller is gone).
  out += "\"schema_version\":4,\"mount\":" + mount_json();
  out += ",\"pipeline\":" + metrics().snapshot().to_json();
  out += ",\"restores\":[";
  {
    bool first = true;
    for (const auto& r : readahead_->ledger_snapshot()) {
      if (!first) out += ",";
      first = false;
      out += "{\"path\":\"";
      obs::append_json_escaped(out, r.path);
      out += "\",\"bytes\":" + std::to_string(r.bytes);
      out += ",\"ops\":" + std::to_string(r.ops);
      out += ",\"prefetch_issued\":" + std::to_string(r.prefetch_issued);
      out += ",\"prefetch_hits\":" + std::to_string(r.prefetch_hits);
      out += ",\"prefetch_wasted\":" + std::to_string(r.prefetch_wasted);
      out += ",\"sync_preads\":" + std::to_string(r.sync_preads);
      out += ",\"ttfb_ns\":" + std::to_string(r.ttfb_ns);
      out += ",\"first_read_ns\":" + std::to_string(r.first_read_ns);
      out += ",\"last_read_ns\":" + std::to_string(r.last_read_ns);
      out += ",\"active\":";
      out += r.active ? "true" : "false";
      out += "}";
    }
  }
  out += "]";
  plane_.append_sections(out);
  if (sampler_ != nullptr) {
    out += ",\"samples_taken\":" + std::to_string(sampler_->samples_taken());
  }
  out += ",\"controller\":" + controller_json();
  out += ",\"tier\":" + tier_json();
}

// -- Checkpoint epochs ------------------------------------------------------

Status Crfs::epoch_begin(const std::string& label) {
  if (plane_.epochs() == nullptr) {
    return Error{EINVAL, "epoch tracking disabled (no_epochs)"};
  }
  plane_.epochs()->begin(label, obs::now_ns());
  return {};
}

Status Crfs::epoch_end() {
  if (plane_.epochs() == nullptr) {
    return Error{EINVAL, "epoch tracking disabled (no_epochs)"};
  }
  plane_.epochs()->end(obs::now_ns());
  return {};
}

std::vector<obs::EpochRecord> Crfs::epochs() const {
  if (plane_.epochs() == nullptr) return {};
  return plane_.epochs()->records();
}

std::optional<obs::EpochRecord> Crfs::open_epoch() const {
  if (plane_.epochs() == nullptr) return std::nullopt;
  return plane_.epochs()->open_epoch(obs::now_ns());
}

Status Crfs::handle_epoch_marker(std::span<const std::byte> data) {
  std::string cmd(reinterpret_cast<const char*>(data.data()), data.size());
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!cmd.empty() && is_space(cmd.front())) cmd.erase(cmd.begin());
  while (!cmd.empty() && is_space(cmd.back())) cmd.pop_back();

  if (cmd == "end") return epoch_end();
  if (cmd == "begin") return epoch_begin("");
  if (cmd.rfind("begin", 0) == 0 && cmd.size() > 5 && is_space(cmd[5])) {
    std::string label = cmd.substr(6);
    while (!label.empty() && is_space(label.front())) label.erase(label.begin());
    return epoch_begin(label);
  }
  return Error{EINVAL, "epoch marker: expected \"begin [label]\" or \"end\", got \"" + cmd + "\""};
}

// -- Control plane ----------------------------------------------------------

obs::CtlDecision Crfs::tune(std::string_view knob, double value, std::string source) {
  const TuneResult r = plane_.knobs().tune(knob, value);
  obs::CtlDecision d;
  d.ts_ns = obs::now_ns();
  d.source = std::move(source);
  d.rule = "tune";
  d.knob = r.knob;
  d.requested = r.requested;
  d.from = r.from;
  d.to = r.to;
  d.outcome = r.outcome;
  d.reason = r.reason;
  d.generation = r.generation;
  d.seq = decisions_->record(d);
  return d;
}

Status Crfs::handle_tune_marker(std::span<const std::byte> data) {
  const std::string text(reinterpret_cast<const char*>(data.data()), data.size());
  const auto is_sep = [](unsigned char c) { return std::isspace(c) != 0 || c == ','; };
  std::size_t i = 0;
  bool any = false;
  while (i < text.size()) {
    while (i < text.size() && is_sep(text[i])) ++i;
    std::size_t j = i;
    while (j < text.size() && !is_sep(text[j])) ++j;
    if (j > i) {
      const std::string token = text.substr(i, j - i);
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
        return Error{EINVAL, "tune marker: expected knob=value, got \"" + token + "\""};
      }
      const std::string value_str = token.substr(eq + 1);
      char* end = nullptr;
      const double value = std::strtod(value_str.c_str(), &end);
      if (end == value_str.c_str() || *end != '\0') {
        return Error{EINVAL, "tune marker: bad value in \"" + token + "\""};
      }
      // Vetoes (unknown knob, apply refusal) fail the write with the
      // offending token; clamps succeed — the audit trail carries the
      // clamp detail either way.
      const obs::CtlDecision d = tune(token.substr(0, eq), value, "ctlfile");
      if (!d.outcome.empty() && d.outcome == "vetoed") {
        return Error{EINVAL, "tune marker: \"" + token + "\": " + d.reason};
      }
      any = true;
    }
    i = j;
  }
  if (!any) return Error{EINVAL, "tune marker: expected knob=value, got empty command"};
  return {};
}

std::string Crfs::controller_json() const {
  std::string out = "{\"generation\":" + std::to_string(plane_.knobs().generation());
  out += ",\"knob_plane\":" + plane_.knobs().to_json();
  out += ",\"decisions\":" + decisions_->to_json();
  out += ",\"decisions_total\":" + std::to_string(decisions_->total());
  out += "}";
  return out;
}

// -- Postmortem -------------------------------------------------------------

std::string Crfs::render_postmortem() const {
  std::string out = "{\"rendered_ns\":" + std::to_string(obs::now_ns());
  out += ",\"config\":\"";
  obs::append_json_escaped(out, cfg_.describe());
  out += "\",";
  append_stats_body(out);

  // Bounded trace tail: the last pipeline spans before the crash. Kept
  // small so the frame fits the journal's reserved crash buffer even with
  // large trace rings.
  constexpr std::size_t kTraceTail = 64;
  auto spans = trace_.snapshot();
  const std::size_t first = spans.size() > kTraceTail ? spans.size() - kTraceTail : 0;
  out += ",\"trace_tail\":[";
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (i > first) out += ",";
    out += "{\"name\":\"";
    obs::append_json_escaped(out, spans[i].name);
    out += "\",\"tid\":" + std::to_string(spans[i].tid);
    out += ",\"ts_ns\":" + std::to_string(spans[i].ts_ns);
    out += ",\"dur_ns\":" + std::to_string(spans[i].dur_ns);
    out += ",\"trace_id\":" + std::to_string(spans[i].trace_id) + "}";
  }
  out += "]}";
  return out;
}

Status Crfs::dump_postmortem() {
  obs::Journal* journal = plane_.journal();
  if (journal == nullptr) return Error{EINVAL, "no journal (mount with journal=<dir>)"};
  if (!journal->ok() || !journal->refresh_postmortem(/*append=*/true)) {
    return Error{EIO, "postmortem: journal " + journal->dir() + " is not writable"};
  }
  return {};
}

Status Crfs::export_trace(const std::string& path) const {
  return obs::write_chrome_trace(path, trace_.snapshot());
}

Status Crfs::truncate(const std::string& path, std::uint64_t size) {
  auto entry = table_.find(path);
  if (entry != nullptr) {
    drain(entry);
    {
      std::lock_guard agg(entry->agg_mu);
      entry->size_seen.store(size, std::memory_order_relaxed);
      entry->write_gen.fetch_add(1, std::memory_order_release);
    }
    return backend_->truncate(entry->backend_file(), size);
  }
  // Not open: go through a temporary backend handle.
  auto bf = backend_->open_file(path, OpenFlags{.create = false, .truncate = false, .write = true});
  if (!bf.ok()) return bf.error();
  const Status st = backend_->truncate(bf.value(), size);
  const Status cl = backend_->close_file(bf.value());
  return st.ok() ? cl : st;
}

}  // namespace crfs
