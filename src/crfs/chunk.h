// Chunk: one fixed-size aggregation buffer from the mount-time pool.
//
// Lifecycle (paper §IV-B):
//   pool --acquire--> current chunk of a file --fill--> work queue
//        <--release-- IO thread after pwrite to the backend
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

namespace crfs {

class Chunk {
 public:
  /// Allocates a chunk with `capacity` bytes of 4 KB-aligned storage
  /// (alignment keeps backend pwrites page-aligned when fills are).
  explicit Chunk(std::size_t capacity)
      : capacity_(capacity),
        storage_(static_cast<std::byte*>(::operator new(capacity, std::align_val_t{4096}))) {}

  ~Chunk() { ::operator delete(storage_, std::align_val_t{4096}); }

  Chunk(const Chunk&) = delete;
  Chunk& operator=(const Chunk&) = delete;

  std::size_t capacity() const { return capacity_; }
  std::size_t fill() const { return fill_; }
  std::size_t remaining() const { return capacity_ - fill_; }
  bool full() const { return fill_ == capacity_; }
  bool empty() const { return fill_ == 0; }

  /// Offset within the target file where this chunk's data begins.
  std::uint64_t file_offset() const { return file_offset_; }

  /// Chunk-lifecycle ledger (docs/OBSERVABILITY.md "Durability lag"):
  /// copy-in timestamp of the first byte, stamped by the writer that
  /// acquired the chunk (reusing its existing clock read — no extra
  /// clock on the hot path). 0 means "not stamped" (uninstrumented
  /// callers); the IO pool then skips the lag derivation.
  std::uint64_t born_ns() const { return born_ns_; }
  void set_born_ns(std::uint64_t ns) { born_ns_ = ns; }

  /// Causal chain id (docs/OBSERVABILITY.md "Causal tracing"): assigned by
  /// the writer that acquired the chunk, from the mount's monotone id
  /// counter. Rides the chunk across the queue so the IO worker can stitch
  /// its spans to the producer's without any lookup. 0 = unattributed.
  std::uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(std::uint64_t id) { trace_id_ = id; }

  /// Pool-wait nanoseconds the producer spent acquiring THIS chunk
  /// (born_ns is stamped before the wait, so fill = born->enqueue splits
  /// into stall + copy using this). Stamped with the writer's existing
  /// clock reads — no extra clock on the hot path.
  std::uint64_t stall_ns() const { return stall_ns_; }
  void set_stall_ns(std::uint64_t ns) { stall_ns_ = ns; }

  /// Rewinds the chunk for reuse against a new file position.
  void reset(std::uint64_t file_offset) {
    fill_ = 0;
    file_offset_ = file_offset;
    born_ns_ = 0;
    trace_id_ = 0;
    stall_ns_ = 0;
  }

  /// File offset one past the last byte currently buffered.
  std::uint64_t append_point() const { return file_offset_ + fill_; }

  /// Copies up to remaining() bytes from `data` into the chunk; returns
  /// the number of bytes consumed.
  std::size_t append(std::span<const std::byte> data) {
    const std::size_t n = data.size() < remaining() ? data.size() : remaining();
    std::memcpy(storage_ + fill_, data.data(), n);
    fill_ += n;
    return n;
  }

  /// The valid buffered bytes, for the IO thread's backend pwrite.
  std::span<const std::byte> payload() const { return {storage_, fill_}; }

  /// Writable view of the whole backing allocation: the read pipeline
  /// fills pool chunks from the backend (prefetch) instead of from the
  /// application, then marks the valid prefix with set_fill().
  std::span<std::byte> mutable_storage() { return {storage_, capacity_}; }

  /// Marks the first `n` bytes valid after a backend fill (clamped
  /// to capacity). Pairs with mutable_storage(); append() is the
  /// write-path way to advance fill.
  void set_fill(std::size_t n) { fill_ = n < capacity_ ? n : capacity_; }

 private:
  std::size_t capacity_;
  std::byte* storage_;
  std::size_t fill_ = 0;
  std::uint64_t file_offset_ = 0;
  std::uint64_t born_ns_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t stall_ns_ = 0;
};

}  // namespace crfs
