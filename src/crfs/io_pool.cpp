#include "crfs/io_pool.h"

#include "crfs/file_table.h"

namespace crfs {

/// One coalesced backend write: same-file, offset-adjacent jobs whose
/// payloads land back to back starting at `offset`.
struct IoRun {
  std::vector<WriteJob> jobs;
  std::uint64_t offset = 0;  ///< file offset of the first chunk
  std::uint64_t total = 0;   ///< sum of the chunks' fills
};

namespace {

// Issues `run` through the backend: pwrite for one chunk, pwritev for a
// coalesced run. Decorating backends (fault injection, throttling, tier
// routing) see every write with its own call shape.
Status backend_write_run(BackendFs& backend, const IoRun& run) {
  const BackendFile file = run.jobs.front().file->backend_file();
  if (run.jobs.size() == 1) {
    return backend.pwrite(file, run.jobs.front().chunk->payload(), run.offset);
  }
  std::vector<BackendIoVec> iov;
  iov.reserve(run.jobs.size());
  for (const WriteJob& job : run.jobs) {
    iov.push_back(BackendIoVec{job.chunk->payload().data(), job.chunk->fill()});
  }
  return backend.pwritev(file, iov, run.offset);
}

}  // namespace

IoThreadPool::IoThreadPool(unsigned threads, WorkQueue& queue, BufferPool& pool,
                           BackendFs& backend, IoPoolObs observe, unsigned batch)
    : queue_(queue), pool_(pool), backend_(backend), obs_(std::move(observe)),
      batch_(batch == 0 ? 1 : batch) {
  const unsigned n = threads == 0 ? 1 : threads;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

IoThreadPool::~IoThreadPool() {
  queue_.shutdown();
  for (auto& w : workers_) w.join();
}

void IoThreadPool::worker_loop() {
  for (;;) {
    // batch_ is re-read every dequeue, so a runtime tune (set_batch)
    // lands on the next pop without waking anyone. An empty pop means
    // shutdown with both lanes drained, so exiting loses nothing.
    WorkBatch work = queue_.pop_work(batch_.load(std::memory_order_relaxed));
    if (work.empty()) return;
    if (work.read) {
      // A readahead fill: a restoring reader waits on it, so it went ahead
      // of queued write batches. Its completion wakes that reader.
      ReadJob& job = *work.read;
      job.done(backend_.pread(job.file, {job.dst, job.len}, job.offset));
      continue;
    }
    std::vector<WriteJob>& batch = work.writes;

    // The whole batch counts as in-flight until its last chunk is
    // released: the pool-exhaustion rescue in Crfs::acquire_chunk treats
    // in_flight() > 0 as "chunks are coming back soon", which must cover
    // chunks parked in a worker's batch, not just the run being written.
    in_flight_.fetch_add(static_cast<unsigned>(batch.size()),
                         std::memory_order_acq_rel);
    if (obs_.batch_chunks != nullptr) obs_.batch_chunks->record(batch.size());

    // One file, FIFO order, and no other worker writes this file until
    // `work` is destroyed: overlapping chunks (an overwrite) land in
    // program order, and a sequential stream's chunks arrive in ascending
    // offset order, so adjacent ones form maximal runs.
    std::size_t i = 0;
    while (i < batch.size()) {
      std::size_t j = i + 1;
      while (j < batch.size() &&
             batch[j - 1].chunk->append_point() == batch[j].chunk->file_offset()) {
        ++j;
      }
      IoRun run;
      run.offset = batch[i].chunk->file_offset();
      run.jobs.reserve(j - i);
      for (std::size_t k = i; k < j; ++k) {
        run.total += batch[k].chunk->fill();
        run.jobs.push_back(std::move(batch[k]));
      }
      const std::uint64_t t_start = obs::now_ns();
      Status status = backend_write_run(backend_, run);
      complete_run(std::move(run), std::move(status), t_start, obs::now_ns());
      i = j;
    }
  }
}

void IoThreadPool::complete_run(IoRun run, Status status, std::uint64_t t_start,
                                std::uint64_t t_done) {
  // t_start/t_done bracket the backend call: the single time source for
  // the pwrite histogram, the trace span, per-chunk durability lag
  // (copy-in -> durable, via Chunk::born_ns), and epoch attribution.
  FileEntry& file = *run.jobs.front().file;
  if (run.jobs.size() > 1 && obs_.coalesced_pwrites != nullptr) {
    obs_.coalesced_pwrites->add(1);
  }
  if (obs_.pwrite_ns != nullptr) obs_.pwrite_ns->record(t_done - t_start);
  const bool tracing = obs_.trace != nullptr && obs_.trace->enabled();
  const char* path_tag = "";
  if (tracing) {
    // Stitch the cross-thread chain: the producer recorded write/pool_wait
    // spans under the chunk's trace id; here the worker retro-records the
    // queue and submit-wait stages from the stamps the job already carries
    // (no new clock reads), then the device span. All land on this
    // worker's own ring — single-writer invariant holds.
    path_tag = obs_.trace->intern(file.path());
    obs::TraceRing& ring = obs_.trace->ring();
    for (const WriteJob& job : run.jobs) {
      const std::uint64_t id = job.chunk->trace_id();
      if (job.enqueue_ns != 0 && job.dequeue_ns > job.enqueue_ns) {
        ring.record("queue", job.enqueue_ns, job.dequeue_ns - job.enqueue_ns, id,
                    path_tag);
      }
      if (job.dequeue_ns != 0 && t_start > job.dequeue_ns) {
        ring.record("submit", job.dequeue_ns, t_start - job.dequeue_ns, id, path_tag);
      }
    }
    ring.record("pwrite", t_start, t_done - t_start,
                run.jobs.front().chunk->trace_id(), path_tag);
  }
  // Critical-path attribution: the backend call is one event, so its
  // submit-wait and device time are charged ONCE per run, to the run's
  // leading epoch (mirrors the backend_writes attribution below).
  if (run.jobs.front().epoch != nullptr) {
    obs::EpochState& ep = *run.jobs.front().epoch;
    const std::uint64_t dq = run.jobs.front().dequeue_ns;
    if (dq != 0 && t_start > dq) {
      ep.submit_wait_ns.fetch_add(t_start - dq, std::memory_order_relaxed);
    }
    if (t_done > t_start) {
      ep.device_ns.fetch_add(t_done - t_start, std::memory_order_relaxed);
    }
  }

  if (status.ok()) {
    chunks_written_.fetch_add(run.jobs.size(), std::memory_order_relaxed);
    bytes_written_.fetch_add(run.total, std::memory_order_relaxed);
    if (obs_.pwrite_bytes != nullptr) obs_.pwrite_bytes->add(run.total);
    // The run's jobs all carry the same file but may span an epoch
    // rotation; attribute durability per job, and the backend call to
    // the run's leading epoch.
    if (run.jobs.front().epoch != nullptr) {
      run.jobs.front().epoch->backend_writes.fetch_add(1, std::memory_order_relaxed);
    }
    for (const WriteJob& job : run.jobs) {
      const std::uint64_t born = job.chunk->born_ns();
      const std::uint64_t lag = born != 0 && t_done > born ? t_done - born : 0;
      const std::uint64_t residency =
          job.enqueue_ns != 0 && job.dequeue_ns > job.enqueue_ns
              ? job.dequeue_ns - job.enqueue_ns
              : 0;
      if (obs_.durability_lag_ns != nullptr && born != 0) {
        obs_.durability_lag_ns->record(lag);
      }
      if (job.epoch != nullptr) {
        job.epoch->record_chunk_durable(job.chunk->fill(), lag, residency);
      }
      if (obs_.slow != nullptr && obs_.slow->over_threshold(lag, t_done - t_start)) {
        // Tail-latency forensics: this chunk blew the threshold — freeze
        // its whole causal chain plus the pipeline state it saw. Cold by
        // construction (the IO already took >= threshold).
        obs::SlowExemplar ex;
        ex.trace_id = job.chunk->trace_id();
        ex.path = file.path();
        ex.offset = job.chunk->file_offset();
        ex.len = job.chunk->fill();
        ex.born_ns = born;
        ex.enqueue_ns = job.enqueue_ns;
        ex.dequeue_ns = job.dequeue_ns;
        ex.submit_ns = t_start;
        ex.durable_ns = t_done;
        ex.pool_stall_ns = job.chunk->stall_ns();
        ex.fill_ns = born != 0 && job.enqueue_ns > born ? job.enqueue_ns - born : 0;
        ex.queue_ns = residency;
        ex.submit_wait_ns =
            job.dequeue_ns != 0 && t_start > job.dequeue_ns ? t_start - job.dequeue_ns : 0;
        ex.device_ns = t_done > t_start ? t_done - t_start : 0;
        ex.total_lag_ns = lag;
        ex.queue_depth = queue_.depth();
        ex.free_chunks = pool_.free_chunks();
        ex.knob_generation = obs_.knob_generation ? obs_.knob_generation() : 0;
        obs_.slow->capture(std::move(ex));
        if (obs_.slow_captured != nullptr) obs_.slow_captured->add(1);
      }
    }
  } else {
    if (obs_.pwrite_errors != nullptr) obs_.pwrite_errors->add(1);
    for (const WriteJob& job : run.jobs) {
      if (job.epoch != nullptr) {
        job.epoch->io_errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (obs_.events != nullptr) {
      const Error& err = status.error();
      obs_.events->push(obs::Event{
          obs::Severity::kCritical, "pwrite_error",
          file.path() + " offset=" + std::to_string(run.offset) + " len=" +
              std::to_string(run.total) + " chunks=" + std::to_string(run.jobs.size()) +
              " errno=" + std::to_string(err.code) + " (" + err.to_string() + ")",
          static_cast<double>(err.code), 0.0, t_done});
    }
  }
  // Every chunk in the run shares the run's fate: complete_one keeps
  // close()/fsync() blocked until write_chunks == complete_chunks, and a
  // failed run marks the sticky FileEntry error once per chunk.
  for (WriteJob& job : run.jobs) {
    job.file->complete_one(status);
    pool_.release(std::move(job.chunk));
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
  if (obs_.on_run_complete) obs_.on_run_complete();
}

}  // namespace crfs
