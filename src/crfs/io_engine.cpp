#include "crfs/io_engine.h"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "crfs/file_table.h"

namespace crfs {

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

void backend_read_fill(BackendFs& backend, ReadJob job) {
  auto nread = backend.pread(job.file, {job.dst, job.len}, job.offset);
  job.done(std::move(nread));
}

void SyncEngine::submit(IoRun run) {
  const std::uint64_t t_start = obs::now_ns();
  Status status = backend_write_run(backend_, run);
  complete_(std::move(run), std::move(status), t_start, obs::now_ns());
}

void SyncEngine::submit_read(ReadJob job) { backend_read_fill(backend_, std::move(job)); }

std::size_t SyncEngine::capacity() const {
  // Inline completion means inflight() is always 0; an "unbounded"
  // capacity lets the worker's room computation pass the batch size
  // through unchanged.
  return std::numeric_limits<std::size_t>::max();
}

std::unique_ptr<IoEngine> make_io_engine(const IoEngineOptions& opts, BackendFs& backend,
                                         std::vector<ChunkRegion> regions, IoEngineObs obs,
                                         IoEngine::CompleteFn complete) {
  if (opts.requested == IoEngineKind::kUring) {
    // CRFS_FORCE_SYNC pins the fallback path (CI proves tier-1 stays green
    // on kernels without io_uring without needing such a kernel).
    const char* force = std::getenv("CRFS_FORCE_SYNC");
    const bool forced_sync = force != nullptr && force[0] != '\0' && force[0] != '0';
    if (!forced_sync) {
      if (auto eng = make_uring_engine(opts.uring_depth == 0 ? 1 : opts.uring_depth, backend,
                                       std::move(regions), obs, complete)) {
        return eng;
      }
    }
  }
  // Silent fallback: the mount comes up either way; stats/Prometheus
  // report the engine that actually runs.
  return std::make_unique<SyncEngine>(backend, std::move(complete));
}

}  // namespace crfs
