#include "crfs/work_queue.h"

namespace crfs {

void WorkQueue::push(WriteJob job) {
  // One clock read per chunk (MBs of data), not per write: negligible.
  // Always stamped — the chunk-lifecycle ledger needs queue residency
  // even when no wait histogram is installed.
  job.enqueue_ns = obs::now_ns();
  {
    std::lock_guard lock(mu_);
    jobs_.push_back(std::move(job));
    pushed_ += 1;
  }
  ready_.notify_one();
}

void WorkQueue::push_read(ReadJob job) {
  {
    std::lock_guard lock(mu_);
    reads_.push_back(std::move(job));
  }
  ready_.notify_one();
}

WorkBatch WorkQueue::pop_work(std::size_t max, bool wait) {
  if (max == 0) max = 1;
  WorkBatch out;
  {
    std::unique_lock lock(mu_);
    if (wait) {
      ready_.wait(lock, [&] { return !jobs_.empty() || !reads_.empty() || shutdown_; });
    }
    if (!reads_.empty()) {
      out.read = std::move(reads_.front());
      reads_.pop_front();
      return out;
    }
    const std::size_t n = jobs_.size() < max ? jobs_.size() : max;
    out.writes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.writes.push_back(std::move(jobs_.front()));
      jobs_.pop_front();
    }
  }
  if (!out.writes.empty()) stamp_dequeued(out.writes);
  return out;
}

void WorkQueue::stamp_dequeued(std::vector<WriteJob>& batch) {
  // One clock read for the whole batch; per-job deltas still recorded.
  const std::uint64_t now = obs::now_ns();
  for (WriteJob& job : batch) {
    job.dequeue_ns = now;
    if (wait_hist_ != nullptr && job.enqueue_ns != 0) {
      wait_hist_->record(now > job.enqueue_ns ? now - job.enqueue_ns : 0);
    }
  }
}

void WorkQueue::shutdown() {
  {
    std::lock_guard lock(mu_);
    shutdown_ = true;
  }
  ready_.notify_all();
}

std::size_t WorkQueue::depth() const {
  std::lock_guard lock(mu_);
  return jobs_.size();
}

std::uint64_t WorkQueue::total_pushed() const {
  std::lock_guard lock(mu_);
  return pushed_;
}

}  // namespace crfs
