// Unit tests for WorkQueue and IoThreadPool.
#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "backend/mem_backend.h"
#include "backend/wrappers.h"
#include "crfs/file_table.h"
#include "crfs/io_pool.h"
#include "crfs/work_queue.h"

namespace crfs {
namespace {

WriteJob make_job(std::shared_ptr<FileEntry> file, std::size_t chunk_size,
                  std::uint64_t offset, char fill_byte, std::size_t fill_len) {
  auto chunk = std::make_unique<Chunk>(chunk_size);
  chunk->reset(offset);
  std::vector<std::byte> data(fill_len, static_cast<std::byte>(fill_byte));
  chunk->append(data);
  return WriteJob{std::move(file), std::move(chunk)};
}

// The IO workers' dequeue, seen through the write lane these tests fill.
// The batch is dropped here, so its file is free again for the next pop.
std::vector<WriteJob> pop_writes(WorkQueue& q, std::size_t max) {
  return q.pop_work(max).writes;
}

TEST(WorkQueue, FifoOrder) {
  WorkQueue q;
  auto entry = std::make_shared<FileEntry>("f", 1);
  q.push(make_job(entry, 64, 0, 'a', 1));
  q.push(make_job(entry, 64, 1, 'b', 1));
  q.push(make_job(entry, 64, 2, 'c', 1));
  EXPECT_EQ(q.depth(), 3u);
  EXPECT_EQ(q.total_pushed(), 3u);

  EXPECT_EQ(pop_writes(q, 1).front().chunk->file_offset(), 0u);
  EXPECT_EQ(pop_writes(q, 1).front().chunk->file_offset(), 1u);
  EXPECT_EQ(pop_writes(q, 1).front().chunk->file_offset(), 2u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(WorkQueue, PopBlocksUntilPush) {
  WorkQueue q;
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    auto jobs = pop_writes(q, 1);
    got.store(!jobs.empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got.load());
  q.push(make_job(std::make_shared<FileEntry>("f", 1), 64, 0, 'x', 1));
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(WorkQueue, ShutdownDrainsThenReturnsNullopt) {
  WorkQueue q;
  auto entry = std::make_shared<FileEntry>("f", 1);
  q.push(make_job(entry, 64, 0, 'a', 1));
  q.shutdown();
  EXPECT_EQ(pop_writes(q, 1).size(), 1u);  // queued job still delivered
  EXPECT_TRUE(pop_writes(q, 1).empty());   // then closed
}

TEST(WorkQueue, ShutdownUnblocksWaiters) {
  WorkQueue q;
  std::thread consumer([&] { EXPECT_TRUE(pop_writes(q, 1).empty()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.shutdown();
  consumer.join();
}

TEST(WorkQueue, PopBatchDrainsUpToMaxInFifoOrder) {
  WorkQueue q;
  auto entry = std::make_shared<FileEntry>("f", 1);
  for (int i = 0; i < 5; ++i) {
    q.push(make_job(entry, 64, static_cast<std::uint64_t>(i), 'a', 1));
  }
  auto first = pop_writes(q, 3);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].chunk->file_offset(), 0u);
  EXPECT_EQ(first[1].chunk->file_offset(), 1u);
  EXPECT_EQ(first[2].chunk->file_offset(), 2u);
  auto rest = pop_writes(q, 8);  // only 2 left; must not block for more
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].chunk->file_offset(), 3u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(WorkQueue, PopBatchBlocksForFirstJobOnly) {
  WorkQueue q;
  std::atomic<std::size_t> got{0};
  std::thread consumer([&] { got.store(pop_writes(q, 4).size()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(got.load(), 0u);
  q.push(make_job(std::make_shared<FileEntry>("f", 1), 64, 0, 'x', 1));
  consumer.join();
  EXPECT_EQ(got.load(), 1u);  // returned with the one available job
}

TEST(WorkQueue, PopBatchReturnsEmptyAfterShutdownDrained) {
  WorkQueue q;
  auto entry = std::make_shared<FileEntry>("f", 1);
  q.push(make_job(entry, 64, 0, 'a', 1));
  q.push(make_job(entry, 64, 1, 'b', 1));
  q.shutdown();
  EXPECT_EQ(pop_writes(q, 8).size(), 2u);  // queued jobs still delivered
  EXPECT_TRUE(pop_writes(q, 8).empty());   // then closed
}

TEST(WorkQueue, PopWorkTakesFillsBeforeWrites) {
  WorkQueue q;
  auto entry = std::make_shared<FileEntry>("f", 1);
  q.push(make_job(entry, 64, 0, 'a', 1));
  q.push(make_job(entry, 64, 1, 'b', 1));
  const auto fill = [](std::uint64_t off) {
    ReadJob job;
    job.offset = off;
    return job;
  };
  for (std::uint64_t off : {100u, 200u}) q.push_read(fill(off));
  EXPECT_EQ(q.depth(), 2u);  // the read lane is not counted

  // One fill per pop, oldest first, ahead of the earlier writes.
  for (std::uint64_t off : {100u, 200u}) {
    WorkBatch work = q.pop_work(8);
    ASSERT_TRUE(work.read.has_value());
    EXPECT_EQ(work.read->offset, off);
    EXPECT_TRUE(work.writes.empty());
  }
  {
    WorkBatch work = q.pop_work(8);
    EXPECT_FALSE(work.read.has_value());
    EXPECT_EQ(work.writes.size(), 2u);
  }
  EXPECT_EQ(q.depth(), 0u);

  // After shutdown a queued fill is still handed out, then the pop
  // returns empty.
  q.push_read(fill(300));
  q.shutdown();
  EXPECT_TRUE(q.pop_work(8).read.has_value());
  EXPECT_TRUE(q.pop_work(8).empty());
}

TEST(WorkQueue, PopBatchStampsDequeueTimes) {
  WorkQueue q;
  auto entry = std::make_shared<FileEntry>("f", 1);
  q.push(make_job(entry, 64, 0, 'a', 1));
  auto batch = pop_writes(q, 1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_GT(batch[0].enqueue_ns, 0u);
  EXPECT_GE(batch[0].dequeue_ns, batch[0].enqueue_ns);
}

TEST(WorkQueue, PopBatchHoldsOneFileInFifoOrder) {
  WorkQueue q;
  auto f = std::make_shared<FileEntry>("f", 1);
  auto g = std::make_shared<FileEntry>("g", 2);
  q.push(make_job(f, 64, 0, 'a', 1));
  q.push(make_job(g, 64, 0, 'b', 1));
  q.push(make_job(f, 64, 1, 'c', 1));
  q.push(make_job(g, 64, 1, 'd', 1));
  q.push(make_job(f, 64, 2, 'e', 1));

  // The oldest job's file, then that file's later jobs up to max.
  auto first = pop_writes(q, 2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].file, f);
  EXPECT_EQ(first[0].chunk->file_offset(), 0u);
  EXPECT_EQ(first[1].file, f);
  EXPECT_EQ(first[1].chunk->file_offset(), 1u);
  auto second = pop_writes(q, 8);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].file, g);
  EXPECT_EQ(second[1].file, g);
  EXPECT_EQ(second[1].chunk->file_offset(), 1u);
  auto third = pop_writes(q, 8);
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].chunk->file_offset(), 2u);
  EXPECT_EQ(q.depth(), 0u);
}

// One blocking pop on its own thread, which shares the queue. A pop that
// has not returned when the test ends is left behind rather than joined,
// so it fails the test's bounded wait instead of hanging the suite.
class PendingPop {
 public:
  explicit PendingPop(std::shared_ptr<WorkQueue> q) {
    auto popped = std::make_shared<std::promise<std::vector<WriteJob>>>();
    jobs_ = popped->get_future();
    thread_ = std::thread([q, popped] { popped->set_value(pop_writes(*q, 8)); });
  }
  PendingPop(const PendingPop&) = delete;
  PendingPop& operator=(const PendingPop&) = delete;
  ~PendingPop() {
    if (thread_.joinable()) thread_.detach();
  }

  bool returned_within(std::chrono::milliseconds limit) {
    if (jobs_.wait_for(limit) != std::future_status::ready) return false;
    if (thread_.joinable()) thread_.join();
    return true;
  }
  std::vector<WriteJob> jobs() { return jobs_.get(); }

 private:
  std::future<std::vector<WriteJob>> jobs_;
  std::thread thread_;
};

// While a batch of file f is held, a pop skips f's later job and takes
// g's; a pop with only f's job left blocks until f's batch is dropped.
TEST(WorkQueue, HeldBatchOwnsItsFileUntilDropped) {
  auto q = std::make_shared<WorkQueue>();
  auto f = std::make_shared<FileEntry>("f", 1);
  auto g = std::make_shared<FileEntry>("g", 2);
  q->push(make_job(f, 64, 0, 'a', 1));
  q->push(make_job(f, 64, 1, 'b', 1));
  q->push(make_job(g, 64, 0, 'c', 1));

  auto held = std::make_unique<WorkBatch>(q->pop_work(1));
  ASSERT_EQ(held->writes.size(), 1u);
  EXPECT_EQ(held->writes[0].file, f);
  EXPECT_EQ(held->writes[0].chunk->file_offset(), 0u);

  WorkBatch second = q->pop_work(8);
  ASSERT_EQ(second.writes.size(), 1u);
  EXPECT_EQ(second.writes[0].file, g);

  PendingPop third(q);
  EXPECT_FALSE(third.returned_within(std::chrono::milliseconds(50)))
      << "f's later job was handed out while f's batch was held";
  held.reset();
  ASSERT_TRUE(third.returned_within(std::chrono::seconds(5)))
      << "dropping f's batch did not release f";
  auto jobs = third.jobs();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].file, f);
  EXPECT_EQ(jobs[0].chunk->file_offset(), 1u);
}

// After shutdown a pop still waits for an owned file's queued job rather
// than returning empty, so teardown writes it.
TEST(WorkQueue, ShutdownStillHandsOutAnOwnedFilesJobs) {
  auto q = std::make_shared<WorkQueue>();
  auto f = std::make_shared<FileEntry>("f", 1);
  q->push(make_job(f, 64, 0, 'a', 1));
  q->push(make_job(f, 64, 1, 'b', 1));
  auto held = std::make_unique<WorkBatch>(q->pop_work(1));
  q->shutdown();
  PendingPop pending(q);
  EXPECT_FALSE(pending.returned_within(std::chrono::milliseconds(30)));
  held.reset();
  ASSERT_TRUE(pending.returned_within(std::chrono::seconds(5)));
  EXPECT_EQ(pending.jobs().size(), 1u);
  EXPECT_TRUE(pop_writes(*q, 8).empty());
}

// --------------------------------------------------------- IoThreadPool

class IoPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backend_ = std::make_shared<MemBackend>();
    pool_ = std::make_unique<BufferPool>(16 * 4096, 4096);
  }

  std::shared_ptr<FileEntry> open_entry(const std::string& path) {
    auto bf = backend_->open_file(path, {.create = true, .truncate = true, .write = true});
    EXPECT_TRUE(bf.ok());
    return std::make_shared<FileEntry>(path, bf.value());
  }

  WriteJob pool_job(std::shared_ptr<FileEntry> entry, std::uint64_t offset,
                    const std::string& payload) {
    auto chunk = pool_->acquire_for(offset, std::chrono::seconds(10));
    EXPECT_NE(chunk, nullptr);
    chunk->append({reinterpret_cast<const std::byte*>(payload.data()), payload.size()});
    entry->write_chunks.fetch_add(1);
    return WriteJob{std::move(entry), std::move(chunk)};
  }

  std::shared_ptr<MemBackend> backend_;
  std::unique_ptr<BufferPool> pool_;
  WorkQueue queue_;
};

TEST_F(IoPoolTest, WritesChunksAtRecordedOffsets) {
  auto entry = open_entry("out.bin");
  {
    IoThreadPool io(2, queue_, *pool_, *backend_);
    queue_.push(pool_job(entry, 0, "AAAA"));
    queue_.push(pool_job(entry, 4, "BBBB"));
    entry->wait_for_completion(2);
    EXPECT_EQ(io.chunks_written(), 2u);
    EXPECT_EQ(io.bytes_written(), 8u);
  }
  auto content = backend_->contents("out.bin");
  ASSERT_TRUE(content.ok());
  ASSERT_EQ(content.value().size(), 8u);
  EXPECT_EQ(std::memcmp(content.value().data(), "AAAABBBB", 8), 0);
}

TEST_F(IoPoolTest, ChunksReturnToPoolAfterWrite) {
  auto entry = open_entry("r.bin");
  IoThreadPool io(1, queue_, *pool_, *backend_);
  const std::size_t before = pool_->free_chunks();
  queue_.push(pool_job(entry, 0, "x"));
  entry->wait_for_completion(1);
  // The IO thread releases the chunk after completing; allow a beat.
  for (int i = 0; i < 100 && pool_->free_chunks() != before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool_->free_chunks(), before);
}

TEST_F(IoPoolTest, CompletionCountsTrackJobs) {
  auto entry = open_entry("c.bin");
  IoThreadPool io(4, queue_, *pool_, *backend_);
  constexpr int kJobs = 12;
  for (int i = 0; i < kJobs; ++i) {
    queue_.push(pool_job(entry, static_cast<std::uint64_t>(i), "z"));
  }
  entry->wait_for_completion(kJobs);
  EXPECT_EQ(entry->complete_chunks.load(), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(entry->write_chunks.load(), static_cast<std::uint64_t>(kJobs));
  EXPECT_FALSE(entry->has_error());
}

TEST_F(IoPoolTest, BackendErrorRecordedOnEntry) {
  auto faulty = std::make_shared<FaultyBackend>(backend_);
  faulty->fail_writes_after(0);  // every pwrite fails
  auto bf = faulty->open_file("bad.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(bf.ok());
  auto entry = std::make_shared<FileEntry>("bad.bin", bf.value());

  IoThreadPool io(1, queue_, *pool_, *faulty);
  queue_.push(pool_job(entry, 0, "doomed"));
  entry->wait_for_completion(1);
  EXPECT_TRUE(entry->has_error());
  auto err = entry->take_error();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, EIO);
  EXPECT_FALSE(entry->has_error());  // consumed
  EXPECT_EQ(io.chunks_written(), 0u);
}

TEST_F(IoPoolTest, BatchedWorkerCoalescesAdjacentChunks) {
  auto entry = open_entry("seq.bin");
  // Queue four offset-adjacent chunks BEFORE any worker exists, so the
  // single worker's first pop_work sees them all and must coalesce the
  // run into one vectored backend write.
  const std::string chunks[] = {"AAAA", "BBBB", "CCCC", "DDDD"};
  std::uint64_t off = 0;
  for (const auto& payload : chunks) {
    queue_.push(pool_job(entry, off, payload));
    off += payload.size();
  }
  const std::uint64_t pwrites_before = backend_->total_pwrites();
  obs::Registry metrics;
  IoPoolObs observe;
  observe.batch_chunks = &metrics.histogram("crfs.io.batch_chunks");
  observe.coalesced_pwrites = &metrics.counter("crfs.io.coalesced_pwrites");
  {
    IoThreadPool io(1, queue_, *pool_, *backend_, observe, /*batch=*/8);
    entry->wait_for_completion(4);
    EXPECT_EQ(io.chunks_written(), 4u);
    EXPECT_EQ(io.bytes_written(), 16u);
  }
  // One coalesced pwritev for the whole run, not four pwrites.
  EXPECT_EQ(backend_->total_pwrites() - pwrites_before, 1u);
  EXPECT_GE(observe.coalesced_pwrites->value(), 1u);
  EXPECT_GE(observe.batch_chunks->count(), 1u);
  auto content = backend_->contents("seq.bin");
  ASSERT_TRUE(content.ok());
  ASSERT_EQ(content.value().size(), 16u);
  EXPECT_EQ(std::memcmp(content.value().data(), "AAAABBBBCCCCDDDD", 16), 0);
}

TEST_F(IoPoolTest, BatchedWorkerPreservesFifoOrderForOverlappingChunks) {
  auto entry = open_entry("overlap.bin");
  // A later overwrite at a LOWER offset: batching must not reorder these
  // by offset — the second (newer) chunk has to land after the first, or
  // last-writer-wins breaks for the overlapping bytes.
  queue_.push(pool_job(entry, 2, "XXXX"));  // older write, [2,6)
  queue_.push(pool_job(entry, 0, "yyyy"));  // newer overwrite, [0,4)
  {
    IoThreadPool io(1, queue_, *pool_, *backend_, {}, /*batch=*/4);
    entry->wait_for_completion(2);
  }
  auto content = backend_->contents("overlap.bin");
  ASSERT_TRUE(content.ok());
  ASSERT_EQ(content.value().size(), 6u);
  EXPECT_EQ(std::memcmp(content.value().data(), "yyyyXX", 6), 0);
}

TEST_F(IoPoolTest, BatchedWorkerGroupsByFileAcrossInterleavedStreams) {
  auto a = open_entry("a.bin");
  auto b = open_entry("b.bin");
  // Two streams interleaved in the queue: a batch takes one file's jobs,
  // so each stream's adjacent chunks still coalesce into one write.
  queue_.push(pool_job(a, 0, "AAAA"));
  queue_.push(pool_job(b, 0, "1111"));
  queue_.push(pool_job(a, 4, "BBBB"));
  queue_.push(pool_job(b, 4, "2222"));
  const std::uint64_t pwrites_before = backend_->total_pwrites();
  {
    IoThreadPool io(1, queue_, *pool_, *backend_, {}, /*batch=*/8);
    a->wait_for_completion(2);
    b->wait_for_completion(2);
  }
  EXPECT_EQ(backend_->total_pwrites() - pwrites_before, 2u);  // one per file
  EXPECT_EQ(std::memcmp(backend_->contents("a.bin").value().data(), "AAAABBBB", 8), 0);
  EXPECT_EQ(std::memcmp(backend_->contents("b.bin").value().data(), "11112222", 8), 0);
}

TEST_F(IoPoolTest, BatchedWorkerKeepsNonAdjacentChunksSeparate) {
  auto entry = open_entry("gap.bin");
  queue_.push(pool_job(entry, 0, "AAAA"));
  queue_.push(pool_job(entry, 100, "BBBB"));  // hole: must not coalesce
  const std::uint64_t pwrites_before = backend_->total_pwrites();
  obs::Registry metrics;
  IoPoolObs observe;
  observe.coalesced_pwrites = &metrics.counter("crfs.io.coalesced_pwrites");
  {
    IoThreadPool io(1, queue_, *pool_, *backend_, observe, /*batch=*/4);
    entry->wait_for_completion(2);
  }
  EXPECT_EQ(backend_->total_pwrites() - pwrites_before, 2u);
  EXPECT_EQ(observe.coalesced_pwrites->value(), 0u);
  auto content = backend_->contents("gap.bin");
  ASSERT_TRUE(content.ok());
  ASSERT_EQ(content.value().size(), 104u);
  EXPECT_EQ(std::memcmp(content.value().data(), "AAAA", 4), 0);
  EXPECT_EQ(std::memcmp(content.value().data() + 100, "BBBB", 4), 0);
}

TEST_F(IoPoolTest, DestructorDrainsQueuedJobs) {
  auto entry = open_entry("drain.bin");
  for (int i = 0; i < 8; ++i) {
    queue_.push(pool_job(entry, static_cast<std::uint64_t>(i), "q"));
  }
  {
    IoThreadPool io(2, queue_, *pool_, *backend_);
    // Destroyed immediately: must still write all 8 queued jobs.
  }
  EXPECT_EQ(entry->complete_chunks.load(), 8u);
  EXPECT_EQ(backend_->contents("drain.bin").value().size(), 8u);
}

}  // namespace
}  // namespace crfs
