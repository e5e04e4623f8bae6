#include "src/codegen/exec_memory.h"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <mutex>

#include "src/rt/panic.h"

#ifndef MFD_EXEC
#define MFD_EXEC 0x0010U  // linux/memfd.h, Linux 6.3+
#endif

namespace spin {
namespace codegen {

// One memfd mapped once PROT_READ|PROT_EXEC, MAP_SHARED. Chunks are
// bump-allocated from `used` and written through `fd`.
struct CodeBuffer::Slab {
  int fd = -1;
  uint8_t* base = nullptr;
  size_t size = 0;
  size_t used = 0;
  size_t live = 0;  // chunks not yet freed
};

namespace {

// Large enough that one mmap and one munmap amortize over a thousand or
// more stubs (a one-handler stub reserves 64 bytes, a ten-handler stub
// 192); small enough that the pages one long-lived chunk can pin stay a
// rounding error next to the process (EXPERIMENTS §3.1).
constexpr size_t kSlabBytes = 256 * 1024;
constexpr size_t kChunkAlign = 64;

using Slab = CodeBuffer::Slab;

std::atomic<size_t> g_total_mapped{0};

size_t RoundUp(size_t n, size_t to) { return (n + to - 1) / to * to; }

size_t PageSize() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

void DestroySlab(Slab* slab) {
  munmap(slab->base, slab->size);
  close(slab->fd);
  delete slab;
}

Slab* OpenSlab(size_t size) {
  int fd = memfd_create("spin-jit", MFD_CLOEXEC | MFD_EXEC);
  if (fd < 0 && errno == EINVAL) {  // a kernel that predates MFD_EXEC
    fd = memfd_create("spin-jit", MFD_CLOEXEC);
  }
  if (fd < 0) {
    return nullptr;
  }
  void* base = MAP_FAILED;
  if (ftruncate(fd, static_cast<off_t>(size)) == 0) {
    base = mmap(nullptr, size, PROT_READ | PROT_EXEC, MAP_SHARED, fd, 0);
  }
  if (base == MAP_FAILED) {
    close(fd);
    return nullptr;
  }
  return new Slab{.fd = fd, .base = static_cast<uint8_t*>(base), .size = size};
}

bool WriteAll(int fd, const uint8_t* data, size_t n, size_t offset) {
  while (n > 0) {
    ssize_t wrote = pwrite(fd, data, n, static_cast<off_t>(offset));
    if (wrote < 0 && errno == EINTR) {
      continue;
    }
    if (wrote <= 0) {
      return false;
    }
    data += wrote;
    n -= static_cast<size_t>(wrote);
    offset += static_cast<size_t>(wrote);
  }
  return true;
}

// The process-wide arena. `bump_` is the one slab chunks are carved from;
// every other slab is only waiting for its last chunk to die.
class Arena {
 public:
  static Arena& Get() {
    static Arena* arena = new Arena();  // leaked: buffers outlive statics
    return *arena;
  }

  // Returns the chunk's slab and address, or nullptr with *base untouched.
  Slab* Allocate(const std::vector<uint8_t>& code, size_t reserve,
                 void** base) {
    std::lock_guard<std::mutex> lock(mu_);
    Slab* slab = bump_;
    if (slab == nullptr || slab->used + reserve > slab->size) {
      RetireBumpLocked();
      // Code larger than a slab gets a slab sized to fit it.
      slab = bump_ =
          OpenSlab(std::max(kSlabBytes, RoundUp(reserve, PageSize())));
    }
    if (slab == nullptr ||
        !WriteAll(slab->fd, code.data(), code.size(), slab->used)) {
      return nullptr;
    }
    *base = slab->base + slab->used;
    slab->used += reserve;
    ++slab->live;
    return slab;
  }

  void Free(Slab* slab) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--slab->live != 0 || slab == bump_) {
        return;
      }
    }
    // Not the bump slab and empty: nothing can allocate from it again, so
    // the munmap (and its TLB shootdown) runs outside the lock.
    DestroySlab(slab);
  }

 private:
  Arena() {
    pthread_atfork(+[] { Get().mu_.lock(); }, +[] { Get().mu_.unlock(); },
                   +[] { Get().AfterForkInChild(); });
  }

  // The child shares every inherited slab's pages with the parent, which
  // keeps bumping into its own bump slab; carving from it here would
  // overwrite the parent's newer stubs (and the parent ours). Inherited
  // chunks stay valid: neither side ever rewrites a used offset.
  void AfterForkInChild() {
    RetireBumpLocked();
    mu_.unlock();
  }

  void RetireBumpLocked() {
    if (bump_ != nullptr && bump_->live == 0) {
      DestroySlab(bump_);
    }
    bump_ = nullptr;
  }

  std::mutex mu_;
  Slab* bump_ = nullptr;
};

}  // namespace

CodeBuffer::CodeBuffer(Slab* slab, void* base, size_t code_size,
                       size_t mapped_size)
    : slab_(slab),
      base_(base),
      code_size_(code_size),
      mapped_size_(mapped_size) {
  g_total_mapped.fetch_add(mapped_size, std::memory_order_relaxed);
}

std::unique_ptr<CodeBuffer> CodeBuffer::Create(
    const std::vector<uint8_t>& code) {
  SPIN_ASSERT(!code.empty());
  size_t reserve = RoundUp(code.size(), kChunkAlign);
  void* base = nullptr;
  Slab* slab = Arena::Get().Allocate(code, reserve, &base);
  if (slab == nullptr) {
    return nullptr;
  }
  return std::unique_ptr<CodeBuffer>(
      new CodeBuffer(slab, base, code.size(), reserve));
}

CodeBuffer::~CodeBuffer() {
  g_total_mapped.fetch_sub(mapped_size_, std::memory_order_relaxed);
  Arena::Get().Free(slab_);
}

size_t CodeBuffer::TotalMappedBytes() {
  return g_total_mapped.load(std::memory_order_relaxed);
}

}  // namespace codegen
}  // namespace spin
