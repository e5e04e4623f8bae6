// Executable memory for runtime-generated code, with strict W^X: code is
// written with pwrite(2) into a memfd-backed slab whose only mapping in the
// process is PROT_READ|PROT_EXEC. No mapping that holds generated code is
// ever writable.
//
// All buffers share one process-wide arena of slabs. A buffer is a 64-byte
// aligned chunk bump-allocated from the current slab; an address is never
// reused while its slab lives, and a slab is unmapped once it is no longer
// the bump slab and its last chunk dies. So creating or freeing a buffer
// costs no mmap/mprotect/munmap, only one mmap per slab and one munmap per
// dead slab. After fork() the child stops bumping into inherited slabs
// (their pages are shared with the parent) and opens fresh ones.
#ifndef SRC_CODEGEN_EXEC_MEMORY_H_
#define SRC_CODEGEN_EXEC_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace spin {
namespace codegen {

class CodeBuffer {
 public:
  // Copies `code` into the code arena. Returns nullptr if the platform
  // refuses the executable slab mapping or the write.
  static std::unique_ptr<CodeBuffer> Create(const std::vector<uint8_t>& code);

  ~CodeBuffer();
  CodeBuffer(const CodeBuffer&) = delete;
  CodeBuffer& operator=(const CodeBuffer&) = delete;

  const void* entry() const { return base_; }
  size_t code_size() const { return code_size_; }
  // The chunk's reservation in its slab: code_size() rounded up to 64.
  size_t mapped_size() const { return mapped_size_; }

  // Sum of the live chunks' reservations (diagnostics; feeds the "too many
  // handlers" memory-accounting story of §2.6).
  static size_t TotalMappedBytes();

  struct Slab;  // a memfd slab of the code arena (exec_memory.cc)

 private:
  CodeBuffer(Slab* slab, void* base, size_t code_size, size_t mapped_size);

  Slab* slab_;
  void* base_;
  size_t code_size_;
  size_t mapped_size_;
};

}  // namespace codegen
}  // namespace spin

#endif  // SRC_CODEGEN_EXEC_MEMORY_H_
