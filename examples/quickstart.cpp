// Quickstart: mount CRFS over a real directory, write a file through the
// FUSE-shimmed POSIX-style API, fsync it, read it back, and inspect the
// mount statistics that show aggregation at work.
//
//   ./quickstart [backing-dir]     (default: a fresh temp directory)
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "backend/posix_backend.h"
#include "common/units.h"
#include "crfs/crfs.h"
#include "crfs/file.h"
#include "crfs/fuse_shim.h"

using namespace crfs;

int main(int argc, char** argv) {
  // 1. Pick a backing directory (any existing filesystem: the paper
  //    stacks CRFS over ext3, NFS, or Lustre the same way).
  std::filesystem::path dir = argc > 1 ? argv[1]
                                       : std::filesystem::temp_directory_path() /
                                             "crfs_quickstart";
  std::filesystem::create_directories(dir);
  std::printf("backing directory: %s\n", dir.c_str());

  auto backend = PosixBackend::create(dir.string());
  if (!backend.ok()) {
    std::fprintf(stderr, "backend: %s\n", backend.error().to_string().c_str());
    return 1;
  }

  // 2. Mount CRFS with the paper's defaults: 4 MB chunks, 16 MB pool,
  //    4 IO threads.
  auto fs = Crfs::mount(std::move(backend.value()), Config{});
  if (!fs.ok()) {
    std::fprintf(stderr, "mount: %s\n", fs.error().to_string().c_str());
    return 1;
  }
  std::printf("mounted CRFS (%s)\n", fs.value()->config().describe().c_str());

  // 3. Write a file through the FUSE-request path, the way a checkpoint
  //    library would: many small sequential writes.
  FuseShim shim(*fs.value(), FuseOptions{.big_writes = true});
  {
    auto file = File::open(shim, "hello.ckpt", {.create = true, .truncate = true, .write = true});
    if (!file.ok()) {
      std::fprintf(stderr, "open: %s\n", file.error().to_string().c_str());
      return 1;
    }
    const std::string line = "checkpoint chunk payload line\n";
    for (int i = 0; i < 10000; ++i) {
      if (auto st = file.value().write(line.data(), line.size()); !st.ok()) {
        std::fprintf(stderr, "write: %s\n", st.error().to_string().c_str());
        return 1;
      }
    }
    // fsync flushes the partial chunk and waits for all outstanding chunk
    // writes, then fsyncs the backend file (paper §IV-D2).
    if (auto st = file.value().fsync(); !st.ok()) {
      std::fprintf(stderr, "fsync: %s\n", st.error().to_string().c_str());
      return 1;
    }
    // close() blocks until "complete chunk count" == "write chunk count".
    if (auto st = file.value().close(); !st.ok()) {
      std::fprintf(stderr, "close: %s\n", st.error().to_string().c_str());
      return 1;
    }
  }

  // 4. Read it back through CRFS (reads pass through to the backend).
  {
    auto file = File::open(shim, "hello.ckpt", {.create = false, .truncate = false, .write = false});
    std::vector<std::byte> head(30);
    auto n = file.value().read(head);
    std::printf("read back %zu bytes: %.29s\n", n.value(),
                reinterpret_cast<const char*>(head.data()));
  }

  // 5. Aggregation at work: 10000 application writes became a handful of
  //    large backend writes.
  obs::Registry& metrics = fs.value()->metrics();
  const auto count = [&metrics](const char* name) {
    return static_cast<unsigned long long>(metrics.counter(name).value());
  };
  std::printf("\naggregation statistics:\n");
  std::printf("  application writes : %llu (%s)\n", count("crfs.mount.app_writes"),
              format_bytes(count("crfs.mount.app_bytes")).c_str());
  std::printf("  backend chunk writes: %llu (full flushes %llu, partial %llu)\n",
              static_cast<unsigned long long>(fs.value()->backend_chunks_written()),
              count("crfs.mount.full_flushes"), count("crfs.mount.partial_flushes"));
  std::printf("  file on backing dir : %s/hello.ckpt\n", dir.c_str());
  std::printf("\nthe file is a plain file on the backing filesystem — restart-able\n"
              "without CRFS mounted, exactly as the paper's §V-F notes.\n");
  return 0;
}
