#include "crfs/work_queue.h"

#include <algorithm>

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

WorkBatch::~WorkBatch() {
  if (queue_ != nullptr) queue_->release(file_.get());
}

std::deque<WriteJob>::iterator WorkQueue::first_unowned_locked() {
  return std::find_if(jobs_.begin(), jobs_.end(), [&](const WriteJob& job) {
    return std::find(owned_.begin(), owned_.end(), job.file.get()) == owned_.end();
  });
}

WorkBatch WorkQueue::pop_work(std::size_t max) {
  if (max == 0) max = 1;
  WorkBatch out;
  {
    std::unique_lock lock(mu_);
    auto next = jobs_.end();
    ready_.wait(lock, [&] {
      if (!reads_.empty()) return true;
      next = first_unowned_locked();
      return next != jobs_.end() || (shutdown_ && jobs_.empty());
    });
    if (!reads_.empty()) {
      out.read = std::move(reads_.front());
      reads_.pop_front();
      return out;
    }
    if (next == jobs_.end()) return out;  // shutdown, write lane drained
    out.file_ = next->file;
    out.queue_ = this;
    owned_.push_back(out.file_.get());
    for (auto it = next; it != jobs_.end() && out.writes.size() < max;) {
      if (it->file == out.file_) {
        out.writes.push_back(std::move(*it));
        it = jobs_.erase(it);
      } else {
        ++it;
      }
    }
    // Waiters blocked on other files' jobs exit once the lane is empty.
    if (shutdown_ && jobs_.empty()) ready_.notify_all();
  }
  stamp_dequeued(out.writes);
  return out;
}

void WorkQueue::release(const FileEntry* file) {
  bool queued = false;
  {
    std::lock_guard lock(mu_);
    owned_.erase(std::find(owned_.begin(), owned_.end(), file));
    queued = std::any_of(jobs_.begin(), jobs_.end(),
                         [&](const WriteJob& job) { return job.file.get() == file; });
  }
  // The file's later jobs are now poppable: wake one waiter for them.
  if (queued) ready_.notify_one();
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
