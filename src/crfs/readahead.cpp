#include "crfs/readahead.h"

#include <algorithm>
#include <cstring>

#include "backend/posix_io.h"
#include "crfs/file_table.h"

namespace crfs {

Readahead::Readahead(BackendFs& backend, BufferPool& pool, WorkQueue& queue, ReadObs obs,
                     std::size_t ledger_capacity)
    : backend_(backend),
      pool_(pool),
      queue_(queue),
      obs_(std::move(obs)),
      ledger_capacity_(ledger_capacity == 0 ? 1 : ledger_capacity) {}

Readahead::~Readahead() {
  std::vector<const FileEntry*> open;
  {
    std::lock_guard lock(mu_);
    for (const auto& [entry, fs] : files_) open.push_back(entry);
  }
  for (const FileEntry* entry : open) evict(entry);
}

void Readahead::open(const std::shared_ptr<FileEntry>& entry) { (void)state_for(entry); }

std::shared_ptr<Readahead::FileState> Readahead::state_for(
    const std::shared_ptr<FileEntry>& entry) {
  std::lock_guard lock(mu_);
  std::shared_ptr<FileState>& found = files_[entry.get()];
  if (found == nullptr) {
    found = std::make_shared<FileState>();
    found->stats.path = entry->path();
    found->gen_seen = entry->write_gen.load(std::memory_order_acquire);
    scans_.fetch_add(1, std::memory_order_relaxed);
  }
  return found;
}

Result<std::size_t> Readahead::read(const std::shared_ptr<FileEntry>& entry,
                                    std::span<std::byte> out, std::uint64_t offset,
                                    bool enabled, unsigned window) {
  const std::uint64_t t0 = obs::now_ns();
  const std::shared_ptr<FileState> state = state_for(entry);
  FileState& fs = *state;

  std::size_t served = 0;
  Status tail_error;
  std::uint64_t t_done = 0;
  {
    std::lock_guard scan(fs.scan_mu);
    Lock lock(fs.mu);

    // Coherence: a write or truncate since the cache was filled invalidates
    // every prefetched byte (the caller barriered the file's queued chunks
    // before entering, so fresh backend reads observe them).
    const std::uint64_t gen = entry->write_gen.load(std::memory_order_acquire);
    if (gen != fs.gen_seen) {
      drop_cache(fs, lock);
      fs.gen_seen = gen;
      fs.eof_at = ~std::uint64_t{0};
    }

    // Sequential-scan detection: a seek drops the window, a match extends
    // the streak that arms prefetching.
    if (offset == fs.expected_next) {
      fs.streak += 1;
    } else {
      drop_cache(fs, lock);
      fs.streak = 1;
    }

    // Serve from the cache window front-to-back.
    bool eof_hit = false;
    while (served < out.size() && !fs.slots.empty()) {
      const std::uint64_t pos = offset + served;
      Slot* s = fs.slots.front().get();
      if (pos < s->offset) break;  // gap below the window: sync tail fills it
      if (pos >= s->offset + s->want) {
        retire_front(fs, lock);
        continue;
      }
      fs.filled.wait(lock, [s] { return s->state != Slot::State::kInflight; });
      if (s->state == Slot::State::kError) {
        // Drop the failed slot; the blocking tail below retries the range
        // and reports the error if it persists.
        retire_front(fs, lock);
        break;
      }
      if (pos >= s->offset + s->valid) {
        eof_hit = true;  // short slot: the file ends inside it
        break;
      }
      const std::size_t n =
          std::min(out.size() - served, static_cast<std::size_t>(s->offset + s->valid - pos));
      if (!s->consumed) {
        s->consumed = true;
        if (obs_.prefetch_hits != nullptr) obs_.prefetch_hits->add(1);
        fs.stats.prefetch_hits += 1;
      }
      // The copy runs unlocked: a ready slot's bytes never change and only
      // the scan_mu holder retires slots.
      lock.unlock();
      std::memcpy(out.data() + served, s->chunk->payload().data() + (pos - s->offset), n);
      lock.lock();
      served += n;
      if (s->valid < s->want && offset + served == s->offset + s->valid) {
        eof_hit = true;
        break;
      }
    }

    // Tail for whatever the window did not cover. With prefetch on, a
    // backend with a kernel fd first gets the paper's pass-through: what
    // the page cache holds goes straight into the caller's buffer. Only a
    // shortfall takes the blocking pread, and only then is the window
    // worth topping up.
    bool passed_through = false;
    if (served < out.size() && !eof_hit) {
      lock.unlock();
      const int fd = enabled ? backend_.raw_fd(entry->backend_file()) : -1;
      if (fd >= 0) {
        served += posix_detail::pread_cached(fd, out.subspan(served),
                                             static_cast<off_t>(offset + served));
        passed_through = served == out.size();
      }
      Result<std::size_t> r = std::size_t{0};
      if (!passed_through) {
        r = backend_.pread(entry->backend_file(), out.subspan(served), offset + served);
      }
      lock.lock();
      if (obs_.sync_preads != nullptr) obs_.sync_preads->add(1);
      fs.stats.sync_preads += 1;
      if (r.ok()) {
        if (r.value() < out.size() - served) {
          fs.eof_at = std::min(fs.eof_at, offset + served + r.value());
        }
        served += r.value();
      } else {
        tail_error = r.error();
      }
    }

    // Top the window back up while the scan is established.
    std::vector<ReadJob> fills;
    if (enabled && tail_error.ok() && !passed_through && fs.streak >= 2 && window > 0 &&
        !fs.evicted) {
      top_up(*entry, fs, offset + served, window, fills);
    }

    fs.expected_next = offset + served;
    t_done = obs::now_ns();
    if (fs.stats.ops == 0) {
      fs.stats.first_read_ns = t0;
      fs.stats.ttfb_ns = t_done - t0;
    }
    fs.stats.ops += 1;
    fs.stats.bytes += served;
    fs.stats.last_read_ns = t_done;
    lock.unlock();
    for (ReadJob& job : fills) queue_.push_read(std::move(job));
  }

  if (obs_.ops != nullptr) obs_.ops->add(1);
  if (obs_.bytes != nullptr) obs_.bytes->add(served);
  if (obs_.pread_ns != nullptr) obs_.pread_ns->record(t_done - t0);
  if (obs_.on_slow) obs_.on_slow(entry->path(), offset, out.size(), t0, t_done);

  if (!tail_error.ok() && served == 0) return tail_error.error();
  return served;
}

void Readahead::evict(const FileEntry* entry) {
  std::shared_ptr<FileState> state;
  {
    std::lock_guard lock(mu_);
    auto it = files_.find(entry);
    if (it == files_.end()) return;
    state = it->second;
  }
  FileState& fs = *state;
  std::lock_guard scan(fs.scan_mu);
  if (fs.evicted) return;
  {
    Lock lock(fs.mu);
    drop_cache(fs, lock);
  }
  fs.evicted = true;

  // Unlisting the file and finalizing its row happen under one map lock,
  // so a ledger snapshot sees the scan either live or finalized.
  std::lock_guard lock(mu_);
  if (auto it = files_.find(entry); it != files_.end() && it->second == state) {
    files_.erase(it);
    scans_.fetch_sub(1, std::memory_order_relaxed);
  }
  std::lock_guard file_lock(fs.mu);
  if (fs.stats.ops == 0) return;
  fs.stats.active = false;
  ledger_.push_back(fs.stats);
  while (ledger_.size() > ledger_capacity_) ledger_.pop_front();
}

std::vector<RestoreLedgerEntry> Readahead::ledger_snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<RestoreLedgerEntry> out(ledger_.begin(), ledger_.end());
  for (const auto& [entry, fs] : files_) {
    std::lock_guard file_lock(fs->mu);
    if (fs->stats.ops == 0) continue;
    RestoreLedgerEntry row = fs->stats;
    row.active = true;
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(), [](const RestoreLedgerEntry& a,
                                       const RestoreLedgerEntry& b) {
    if (a.first_read_ns != b.first_read_ns) return a.first_read_ns < b.first_read_ns;
    return a.path < b.path;
  });
  return out;
}

void Readahead::complete_fill(FileState& fs, Slot& slot, Result<std::size_t> nread) {
  fills_inflight_.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard lock(fs.mu);
  if (nread.ok()) {
    slot.valid = nread.value();
    slot.chunk->set_fill(slot.valid);
    slot.state = Slot::State::kReady;
    if (slot.valid < slot.want) {
      // Short read = EOF inside the slot: stop the window from issuing
      // further reads past the end of the file.
      fs.eof_at = std::min(fs.eof_at, slot.offset + slot.valid);
    }
  } else {
    slot.state = Slot::State::kError;
  }
  fs.inflight -= 1;
  // Notify under the lock: once it is released the reader may retire the
  // slot and evict the file, so nothing here may touch `fs` afterwards.
  fs.filled.notify_all();
}

void Readahead::drop_cache(FileState& fs, Lock& lock) {
  // Chunks with fills in flight cannot go back to the pool — wait those
  // out first (an IO worker always completes a fill it popped).
  fs.filled.wait(lock, [&fs] { return fs.inflight == 0; });
  while (!fs.slots.empty()) retire_front(fs, lock);
}

void Readahead::retire_front(FileState& fs, Lock& lock) {
  Slot* s = fs.slots.front().get();
  fs.filled.wait(lock, [s] { return s->state != Slot::State::kInflight; });
  if (!s->consumed) {
    if (obs_.prefetch_wasted != nullptr) obs_.prefetch_wasted->add(1);
    fs.stats.prefetch_wasted += 1;
  }
  pool_.release(std::move(s->chunk));
  fs.slots.pop_front();
}

std::size_t Readahead::fair_share() const {
  const std::size_t scans = std::max<std::size_t>(1, scans_.load(std::memory_order_relaxed));
  return std::max<std::size_t>(1, pool_.total_chunks() / scans);
}

void Readahead::top_up(const FileEntry& entry, FileState& fs, std::uint64_t next,
                       unsigned window, std::vector<ReadJob>& fills) {
  const std::size_t cap = std::min<std::size_t>(window, fair_share());
  // The window is contiguous: new fills start where coverage ends.
  std::uint64_t cover_end = next;
  if (!fs.slots.empty()) {
    cover_end = std::max(cover_end, fs.slots.back()->offset + fs.slots.back()->want);
  }
  std::size_t issued = 0;
  while (fs.slots.size() < cap && cover_end < fs.eof_at) {
    // Opportunistic only: never starve checkpoint writers of chunks.
    auto chunk = pool_.try_acquire(cover_end);
    if (chunk == nullptr) break;
    chunk->reset(cover_end);
    auto slot = std::make_unique<Slot>();
    slot->offset = cover_end;
    slot->want = std::min<std::size_t>(pool_.chunk_size(), chunk->capacity());

    ReadJob job;
    job.file = entry.backend_file();
    job.offset = cover_end;
    job.dst = chunk->mutable_storage().data();
    job.len = slot->want;
    job.done = [this, &fs, s = slot.get()](Result<std::size_t> nread) {
      complete_fill(fs, *s, std::move(nread));
    };
    slot->chunk = std::move(chunk);
    cover_end += slot->want;
    fs.inflight += 1;
    fs.slots.push_back(std::move(slot));
    fills.push_back(std::move(job));
    issued += 1;
    if (obs_.prefetch_issued != nullptr) obs_.prefetch_issued->add(1);
    fs.stats.prefetch_issued += 1;
  }
  const std::size_t inflight =
      fills_inflight_.fetch_add(issued, std::memory_order_relaxed) + issued;
  if (obs_.inflight_depth != nullptr) obs_.inflight_depth->record(inflight);
}

}  // namespace crfs
