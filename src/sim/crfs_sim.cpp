#include "sim/crfs_sim.h"

#include <algorithm>
#include <vector>

namespace crfs::sim {

CrfsSimNode::CrfsSimNode(Simulation& sim, const Calibration& cal, BackendSim& backend,
                         unsigned node, crfs::Config config, crfs::FuseOptions fuse,
                         unsigned ppn)
    : sim_(sim),
      cal_(cal),
      backend_(backend),
      node_(node),
      config_(config),
      fuse_(fuse),
      ppn_(ppn),
      free_chunks_(static_cast<unsigned>(config.num_chunks() > 0 ? config.num_chunks() : 1)),
      fuse_station_(sim, 1),
      chunk_available_(sim),
      job_ready_(sim),
      cqe_slot_(sim),
      plane_(config, [this] { return now_ns(); }, obs::Plane::TimeBase::kVirtual) {
  // Same registry schema as the real mount (crfs.cpp), read on virtual
  // time by an obs::Sampler via sample_loop(). The single-threaded sim
  // pays nothing for the atomics.
  obs::Registry& m = plane_.metrics();
  h_pwrite_ = &m.histogram("crfs.io.pwrite_ns");
  c_pwrite_bytes_ = &m.counter("crfs.io.pwrite_bytes");
  h_lag_ = &m.histogram("crfs.chunk.durability_lag_ns");
  // Registered for both engines (schema parity with the real mount); only
  // the uring mirror records non-trivial depths.
  h_inflight_depth_ = &m.histogram("crfs.io.inflight_depth");
  // Restart-scan mirror: same crfs.read.* schema as the real mount, so an
  // obs::Controller's shed_readahead rule ticks unchanged on virtual time.
  h_read_ = &m.histogram("crfs.read.pread_ns");
  h_read_inflight_ = &m.histogram("crfs.read.inflight_depth");
  c_read_ops_ = &m.counter("crfs.read.ops");
  c_read_bytes_ = &m.counter("crfs.read.bytes");
  c_prefetch_issued_ = &m.counter("crfs.read.prefetch_issued");
  c_prefetch_hits_ = &m.counter("crfs.read.prefetch_hits");
  c_prefetch_wasted_ = &m.counter("crfs.read.prefetch_wasted");
  c_sync_preads_ = &m.counter("crfs.read.sync_preads");
  m.gauge_fn("crfs.io.engine_inflight",
             [this] { return static_cast<std::int64_t>(engine_inflight_); });
  m.gauge_fn("crfs.pool.free_chunks", [this] { return static_cast<std::int64_t>(free_chunks_); });
  m.gauge_fn("crfs.queue.depth", [this] { return static_cast<std::int64_t>(queue_.size()); });
  define_knobs();
}

void CrfsSimNode::define_knobs() {
  crfs::KnobPlane& knobs = plane_.knobs();
  // Same names/bounds as Crfs::define_knobs; the applies mutate config_
  // and free_chunks_, which io_worker/app_write re-read each iteration —
  // a tune takes effect on the next virtual-time step, mirroring the
  // atomic re-reads of the real pipeline.
  const std::size_t pool_cap_bytes =
      config_.tune_pool_max != 0 ? config_.tune_pool_max : config_.pool_size * 4;
  const std::size_t pool_cap_chunks =
      std::max<std::size_t>(1, pool_cap_bytes / config_.chunk_size);
  knobs.define(
      crfs::KnobDef{"pool_chunks", 1.0, static_cast<double>(pool_cap_chunks), "chunks"},
      static_cast<double>(config_.num_chunks()),
      [this](double v, double* achieved, std::string* reason) {
        const auto target = static_cast<std::size_t>(v);
        const std::size_t total = config_.num_chunks();
        std::size_t got = target;
        if (target > total) {
          free_chunks_ += static_cast<unsigned>(target - total);
          chunk_available_.pulse();
        } else if (target < total) {
          // Shrink best-effort over free chunks, like BufferPool::resize.
          const std::size_t removable =
              std::min<std::size_t>(total - target, free_chunks_);
          free_chunks_ -= static_cast<unsigned>(removable);
          got = total - removable;
          if (got != target) *reason = "shrink bounded by free chunks";
        }
        config_.pool_size = got * config_.chunk_size;
        *achieved = static_cast<double>(got);
        return true;
      });
  knobs.define(
      crfs::KnobDef{"io_batch", 1.0, static_cast<double>(config_.tune_io_batch_max),
                    "chunks"},
      static_cast<double>(config_.io_batch),
      [this](double v, double* achieved, std::string* reason) {
        const auto cap = static_cast<unsigned>(
            std::max<std::size_t>(1, config_.num_chunks() / 2));
        const auto want = static_cast<unsigned>(v);
        const unsigned eff = std::min(want, cap);
        config_.io_batch = eff;
        if (eff != want) {
          *achieved = static_cast<double>(eff);
          *reason = "capped at half the pool (" + std::to_string(cap) + " chunks)";
        }
        return true;
      });
  knobs.define(
      crfs::KnobDef{"uring_depth", 1.0, 4096.0, "sqes"},
      static_cast<double>(config_.uring_depth),
      [this](double v, double*, std::string* reason) {
        if (config_.io_engine != IoEngineKind::kUring) {
          *reason = "io engine 'sync' has no ring";
          return false;
        }
        config_.uring_depth = static_cast<unsigned>(v);
        return true;
      });
  knobs.define(
      crfs::KnobDef{"readahead", 0.0, 1.0, "bool"},
      config_.readahead ? 1.0 : 0.0,
      [this](double v, double*, std::string*) {
        config_.readahead = v >= 0.5;
        return true;
      });
  knobs.define(
      crfs::KnobDef{"readahead_window", 1.0, 1024.0, "chunks"},
      static_cast<double>(config_.readahead_window),
      [this](double v, double*, std::string*) {
        config_.readahead_window = static_cast<unsigned>(v);
        return true;
      });
}

void CrfsSimNode::start() {
  for (unsigned i = 0; i < config_.io_threads; ++i) {
    sim_.spawn(io_worker(i));
  }
}

CrfsSimNode::FileState& CrfsSimNode::state(FileId file) {
  auto it = files_.find(file);
  if (it == files_.end()) {
    it = files_.emplace(file, FileState{}).first;
    it->second.completion = std::make_unique<Event>(sim_);
    // Files have no separate open() in the sim; first touch is the open.
    // Synthetic path keeps ckpt-heuristic behaviour reachable via FileId.
    if (plane_.epochs() != nullptr) {
      it->second.epoch =
          plane_.epochs()->on_open("sim/file" + std::to_string(file), now_ns());
    }
  }
  return it->second;
}

void CrfsSimNode::flush_chunk(FileState& st, FileId file) {
  if (!st.has_chunk || st.chunk_fill == 0) return;
  Job job;
  job.file = file;
  job.offset = st.chunk_offset;
  job.len = st.chunk_fill;
  job.born_ns = st.chunk_born_ns;
  job.enqueue_ns = now_ns();
  job.trace_id = st.chunk_trace_id;
  job.stall_ns = st.chunk_stall_ns;
  job.epoch = st.epoch;
  if (job.epoch != nullptr) {
    job.epoch->chunks.fetch_add(1, std::memory_order_relaxed);
  }
  queue_.push_back(std::move(job));
  st.write_chunks += 1;
  st.has_chunk = false;
  st.chunk_fill = 0;
  chunks_flushed_ += 1;
  job_ready_.pulse();
}

Task CrfsSimNode::app_write(FileId file, std::uint64_t len) {
  const double span_start = sim_.now();
  FileState& st = state(file);
  const std::uint64_t max_req = fuse_.max_write();
  std::uint64_t span_trace_id = 0;  ///< last chunk acquired (mirror of write())

  std::uint64_t remaining = len;
  while (remaining > 0) {
    const std::uint64_t req = std::min(remaining, max_req);
    const std::uint64_t req_start_ns = now_ns();
    std::uint64_t req_stall_ns = 0;
    // The FUSE request queue serializes all writers on the node: each
    // request pays the user<->kernel crossing plus the payload copy into
    // the chunk buffer (the paper's "multiple buffer copies" overhead).
    const double cost = cal_.fuse_request_cost + cal_.syscall_overhead +
                        static_cast<double>(req) * (1.0 + cal_.crfs_extra_copies) /
                            (cal_.fuse_station_bw * (1.0 + cal_.crfs_extra_copies));
    co_await fuse_station_.acquire();
    co_await sim_.delay(cost);
    fuse_station_.release();

    // Mirror of Crfs::write's epoch attribution: one bump per FUSE-sized
    // request (that is what the real mount sees as one write() call).
    if (st.epoch != nullptr) {
      st.epoch->app_writes.fetch_add(1, std::memory_order_relaxed);
      st.epoch->bytes.fetch_add(req, std::memory_order_relaxed);
    }

    std::uint64_t req_remaining = req;
    while (req_remaining > 0) {
      if (!st.has_chunk) {
        // Buffer-pool acquire: may block until an IO worker releases.
        // Birth is stamped BEFORE the wait (mirror of write()'s t0), so
        // the chunk's fill window splits into stall + copy like the real
        // pipeline's.
        const double pool_wait_start = sim_.now();
        const std::uint64_t born = now_ns();
        while (free_chunks_ == 0) {
          pool_waits_ += 1;
          co_await chunk_available_.wait();
        }
        const std::uint64_t stall =
            static_cast<std::uint64_t>((sim_.now() - pool_wait_start) * 1e9);
        if (st.epoch != nullptr && stall > 0) {
          st.epoch->pool_stall_ns.fetch_add(stall, std::memory_order_relaxed);
        }
        req_stall_ns += stall;
        free_chunks_ -= 1;
        st.has_chunk = true;
        st.chunk_offset = st.append;
        st.chunk_fill = 0;
        st.chunk_born_ns = born;
        st.chunk_trace_id = next_trace_id_++;
        st.chunk_stall_ns = stall;
        span_trace_id = st.chunk_trace_id;
      }
      const std::uint64_t space = config_.chunk_size - st.chunk_fill;
      const std::uint64_t take = std::min(space, req_remaining);
      st.chunk_fill += take;
      st.append += take;
      req_remaining -= take;
      if (st.chunk_fill == config_.chunk_size) {
        flush_chunk(st, file);
      }
    }
    // Critical-path attribution mirror: this request's elapsed time minus
    // its pool stalls is the copy stage (same quantity write() charges).
    if (st.epoch != nullptr) {
      const std::uint64_t req_elapsed = now_ns() - req_start_ns;
      st.epoch->copy_ns.fetch_add(
          req_elapsed > req_stall_ns ? req_elapsed - req_stall_ns : 0,
          std::memory_order_relaxed);
    }
    remaining -= req;
  }
  sim_.trace_complete("write", app_lane(), span_start, sim_.now(), span_trace_id);
}

Task CrfsSimNode::prefetch_read(FileId file, std::shared_ptr<ReadSlot> slot) {
  co_await backend_.read_call(node_, file, slot->offset, slot->len, /*via_crfs=*/true);
  slot->done = true;
  slot->completion->pulse();
}

Task CrfsSimNode::drop_read_window(FileState& st) {
  // In-flight reads must land before their pool chunks can be released
  // (mirror of Readahead::drop_cache_locked waiting out the engine).
  while (!st.read_slots.empty()) {
    auto slot = st.read_slots.front();
    while (!slot->done) co_await slot->completion->wait();
    if (!slot->consumed) c_prefetch_wasted_->add(1);
    st.read_slots.pop_front();
    free_chunks_ += 1;
    chunk_available_.pulse();
  }
}

void CrfsSimNode::top_up_read_window(FileState& st, FileId file, std::uint64_t next) {
  if (!config_.readahead || st.read_streak < 2) return;
  const std::size_t window = std::max(1u, config_.readahead_window);
  std::uint64_t cover_end = next;
  if (!st.read_slots.empty()) {
    cover_end = std::max(cover_end,
                         st.read_slots.back()->offset + st.read_slots.back()->len);
  }
  // Opportunistic, like pool_->try_acquire: stop at EOF (st.append — the
  // sim's files are exactly what was written) or an empty pool.
  while (st.read_slots.size() < window && cover_end < st.append && free_chunks_ > 0) {
    free_chunks_ -= 1;
    auto slot = std::make_shared<ReadSlot>();
    slot->offset = cover_end;
    slot->len = std::min<std::uint64_t>(config_.chunk_size, st.append - cover_end);
    slot->completion = std::make_unique<Event>(sim_);
    st.read_slots.push_back(slot);
    c_prefetch_issued_->add(1);
    sim_.spawn(prefetch_read(file, slot));
    cover_end += slot->len;
  }
  unsigned inflight = 0;
  for (const auto& s : st.read_slots) {
    if (!s->done) inflight += 1;
  }
  h_read_inflight_->record(inflight);
}

Task CrfsSimNode::app_read(FileId file, std::uint64_t offset, std::uint64_t len) {
  const double span_start = sim_.now();
  const std::uint64_t t0 = now_ns();
  FileState& st = state(file);

  // flush_before_read mirror: barrier exactly this file's pending chunks.
  flush_chunk(st, file);
  const std::uint64_t target = st.write_chunks;
  if (st.complete_chunks < target) {
    const double wait_start = sim_.now();
    while (st.complete_chunks < target) co_await st.completion->wait();
    sim_.trace_complete("read_barrier", app_lane(), wait_start, sim_.now());
    if (st.epoch != nullptr) {
      st.epoch->barrier_ns.fetch_add(
          static_cast<std::uint64_t>((sim_.now() - wait_start) * 1e9),
          std::memory_order_relaxed);
    }
  }

  // Sequential-scan detection: a seek evicts the window.
  if (offset == st.read_next) {
    st.read_streak += 1;
  } else {
    co_await drop_read_window(st);
    st.read_streak = 1;
  }

  // FUSE request path: the kernel crossing plus the copy-out to the app,
  // serialized on the node's request queue like writes.
  const std::uint64_t end = std::min(offset + len, st.append);
  const std::uint64_t span = end > offset ? end - offset : 0;
  const std::uint64_t max_req = fuse_.max_write();
  const std::uint64_t requests = span == 0 ? 1 : (span + max_req - 1) / max_req;
  const double fuse_cost =
      static_cast<double>(requests) * (cal_.fuse_request_cost + cal_.syscall_overhead) +
      static_cast<double>(span) / cal_.fuse_station_bw;
  co_await fuse_station_.acquire();
  co_await sim_.delay(fuse_cost);
  fuse_station_.release();

  // Serve from the window front-to-back, then a blocking tail.
  std::uint64_t pos = offset;
  while (pos < end && !st.read_slots.empty()) {
    auto slot = st.read_slots.front();
    if (pos < slot->offset) break;  // gap below the window: sync tail
    if (pos >= slot->offset + slot->len) {
      while (!slot->done) co_await slot->completion->wait();
      if (!slot->consumed) c_prefetch_wasted_->add(1);
      st.read_slots.pop_front();
      free_chunks_ += 1;
      chunk_available_.pulse();
      continue;
    }
    while (!slot->done) co_await slot->completion->wait();
    if (!slot->consumed) {
      slot->consumed = true;
      c_prefetch_hits_->add(1);
    }
    pos = std::min(end, slot->offset + slot->len);
    if (pos == slot->offset + slot->len) {
      st.read_slots.pop_front();
      free_chunks_ += 1;
      chunk_available_.pulse();
    }
  }
  if (pos < end) {
    c_sync_preads_->add(1);
    co_await backend_.read_call(node_, file, pos, end - pos, /*via_crfs=*/true);
    pos = end;
  }

  top_up_read_window(st, file, pos);

  st.read_next = pos;
  c_read_ops_->add(1);
  c_read_bytes_->add(pos - offset);
  h_read_->record(now_ns() - t0);
  sim_.trace_complete("read", app_lane(), span_start, sim_.now());
}

Task CrfsSimNode::io_worker(unsigned worker) {
  for (;;) {
    while (queue_.empty()) {
      if (stopping_) co_return;
      co_await job_ready_.wait();
    }
    // Mirror of IoThreadPool's batch dequeue (docs/PERFORMANCE.md): drain
    // up to io_batch already-queued jobs, group them by file (stable —
    // FIFO order preserved within a file, like the real pool), and issue
    // one backend call per run of adjacent chunks. Per-chunk bookkeeping
    // cost survives coalescing; the backend call does not.
    std::vector<Job> batch;
    // Same half-the-pool batch cap as Crfs::mount: a batch's chunks stay
    // out of the pool until the coalesced write lands, so an uncapped
    // batch would lockstep the simulated pipeline too.
    const std::size_t batch_cap = std::max<std::size_t>(1, config_.num_chunks() / 2);
    const std::size_t max_batch =
        std::min<std::size_t>(config_.io_batch == 0 ? 1 : config_.io_batch, batch_cap);
    // One dequeue stamp for the whole batch (pop_work holds the lock
    // once in the real pool; virtual time does not advance inside it).
    const std::uint64_t dequeue_now = now_ns();
    while (!queue_.empty() && batch.size() < max_batch) {
      batch.push_back(queue_.front());
      queue_.pop_front();
    }
    std::stable_sort(batch.begin(), batch.end(),
                     [](const Job& a, const Job& b) { return a.file < b.file; });

    std::size_t i = 0;
    while (i < batch.size()) {
      std::size_t j = i + 1;
      while (j < batch.size() && batch[j].file == batch[i].file &&
             batch[j - 1].offset + batch[j - 1].len == batch[j].offset) {
        ++j;
      }
      std::vector<Job> run(batch.begin() + static_cast<std::ptrdiff_t>(i),
                           batch.begin() + static_cast<std::ptrdiff_t>(j));
      if (config_.io_engine == IoEngineKind::kUring) {
        // Uring mirror: the worker only *submits* — the run proceeds as
        // its own task while the worker returns for more jobs, gated on
        // ring capacity exactly like UringEngine::submit's depth drain.
        while (engine_inflight_ >= config_.uring_depth) {
          co_await cqe_slot_.wait();
        }
        engine_inflight_ += 1;
        h_inflight_depth_->record(engine_inflight_);
        sim_.spawn(write_run(std::move(run), dequeue_now, worker, /*engine_slot=*/true));
      } else {
        // Sync engine: the worker is the run (blocking pwrite), exactly
        // the pre-engine pipeline.
        co_await write_run(std::move(run), dequeue_now, worker, /*engine_slot=*/false);
      }
      i = j;
    }
  }
}

Task CrfsSimNode::write_run(std::vector<Job> run, std::uint64_t dequeue_now,
                            unsigned worker, bool engine_slot) {
  std::uint64_t run_len = 0;
  for (const Job& job : run) run_len += job.len;

  const double pwrite_start = sim_.now();
  const std::uint64_t submit_ns = now_ns();
  co_await sim_.delay(cal_.crfs_chunk_overhead * static_cast<double>(run.size()));
  co_await backend_.write_call(node_, run.front().file, run.front().offset, run_len,
                               /*via_crfs=*/true);
  // Causal chain mirror of complete_run: retro-record queue and submit
  // spans from the stamps the jobs carry, then the device span, all under
  // the jobs' trace ids.
  for (const Job& job : run) {
    if (job.enqueue_ns != 0 && dequeue_now > job.enqueue_ns) {
      sim_.trace_complete("queue", io_lane(worker),
                          static_cast<double>(job.enqueue_ns) / 1e9,
                          static_cast<double>(dequeue_now) / 1e9, job.trace_id);
    }
    if (submit_ns > dequeue_now) {
      sim_.trace_complete("submit", io_lane(worker),
                          static_cast<double>(dequeue_now) / 1e9,
                          static_cast<double>(submit_ns) / 1e9, job.trace_id);
    }
  }
  sim_.trace_complete("pwrite", io_lane(worker), pwrite_start, sim_.now(),
                      run.front().trace_id);
  h_pwrite_->record(static_cast<std::uint64_t>((sim_.now() - pwrite_start) * 1e9));
  c_pwrite_bytes_->add(run_len);

  // Mirror of IoThreadPool::complete_run's ledger attribution: the
  // backend call goes to the run's leading epoch, durability per job;
  // submit-wait and device time are charged once per run.
  const std::uint64_t t_done = now_ns();
  if (run.front().epoch != nullptr) {
    obs::EpochState& ep = *run.front().epoch;
    ep.backend_writes.fetch_add(1, std::memory_order_relaxed);
    if (submit_ns > dequeue_now) {
      ep.submit_wait_ns.fetch_add(submit_ns - dequeue_now, std::memory_order_relaxed);
    }
    if (t_done > submit_ns) {
      ep.device_ns.fetch_add(t_done - submit_ns, std::memory_order_relaxed);
    }
  }
  for (const Job& job : run) {
    const std::uint64_t lag =
        job.born_ns != 0 && t_done > job.born_ns ? t_done - job.born_ns : 0;
    const std::uint64_t residency =
        dequeue_now > job.enqueue_ns ? dequeue_now - job.enqueue_ns : 0;
    if (job.born_ns != 0) h_lag_->record(lag);
    if (job.epoch != nullptr) {
      job.epoch->record_chunk_durable(job.len, lag, residency);
    }
    const std::uint64_t device =
        t_done > submit_ns ? t_done - submit_ns : 0;
    if (plane_.slow().over_threshold(lag, device)) {
      // Same exemplar shape as the real IO pool, on virtual time; two
      // replays of one workload capture byte-identical chains.
      obs::SlowExemplar ex;
      ex.trace_id = job.trace_id;
      ex.path = "sim/file" + std::to_string(job.file);
      ex.offset = job.offset;
      ex.len = job.len;
      ex.born_ns = job.born_ns;
      ex.enqueue_ns = job.enqueue_ns;
      ex.dequeue_ns = dequeue_now;
      ex.submit_ns = submit_ns;
      ex.durable_ns = t_done;
      ex.pool_stall_ns = job.stall_ns;
      ex.fill_ns = job.born_ns != 0 && job.enqueue_ns > job.born_ns
                       ? job.enqueue_ns - job.born_ns
                       : 0;
      ex.queue_ns = residency;
      ex.submit_wait_ns = submit_ns > dequeue_now ? submit_ns - dequeue_now : 0;
      ex.device_ns = device;
      ex.total_lag_ns = lag;
      ex.queue_depth = queue_.size();
      ex.free_chunks = free_chunks_;
      ex.knob_generation = plane_.knobs().generation();
      ex.engine = io_engine_name(config_.io_engine);
      plane_.slow().capture(std::move(ex));
    }
  }

  for (const Job& job : run) {
    FileState& st = state(job.file);
    st.complete_chunks += 1;
    st.completion->pulse();
    free_chunks_ += 1;
    chunk_available_.pulse();
  }
  if (engine_slot) {
    engine_inflight_ -= 1;
    cqe_slot_.pulse();
  }
}

Task CrfsSimNode::close_file(FileId file) {
  FileState& st = state(file);
  flush_chunk(st, file);
  // Releasing an empty current chunk (open but never filled).
  if (st.has_chunk) {
    st.has_chunk = false;
    free_chunks_ += 1;
    chunk_available_.pulse();
  }
  const std::uint64_t target = st.write_chunks;
  const double drain_start = sim_.now();
  while (st.complete_chunks < target) {
    co_await st.completion->wait();
  }
  sim_.trace_complete("drain", app_lane(), drain_start, sim_.now());
  // Critical-path mirror of Crfs::drain: the close/fsync barrier wait.
  if (st.epoch != nullptr && sim_.now() > drain_start) {
    st.epoch->barrier_ns.fetch_add(
        static_cast<std::uint64_t>((sim_.now() - drain_start) * 1e9),
        std::memory_order_relaxed);
  }
  // Evict the restart window (mirror of Crfs::close -> Readahead::evict).
  co_await drop_read_window(st);
  st.read_streak = 0;
  st.read_next = 0;
  co_await backend_.close_file(node_, file, /*via_crfs=*/true);
  if (plane_.epochs() != nullptr) {
    plane_.epochs()->on_close("sim/file" + std::to_string(file), now_ns());
  }
}

void CrfsSimNode::stop() {
  stopping_ = true;
  job_ready_.pulse();
  // All closes have drained by the time an experiment stops its node, so
  // the final record carries complete durable counts.
  plane_.finish(now_ns());
}

void CrfsSimNode::epoch_begin(const std::string& label) {
  if (plane_.epochs() != nullptr) plane_.epochs()->begin(label, now_ns());
}

void CrfsSimNode::epoch_end() {
  if (plane_.epochs() != nullptr) plane_.epochs()->end(now_ns());
}

std::vector<obs::EpochRecord> CrfsSimNode::epochs() const {
  if (plane_.epochs() == nullptr) return {};
  return plane_.epochs()->records();
}

Task CrfsSimNode::sample_loop(obs::Sampler& sampler, double interval_s) {
  while (!stopping_) {
    co_await sim_.delay(interval_s);
    plane_.on_sample(sampler.tick(now_ns()));
  }
}

}  // namespace crfs::sim
