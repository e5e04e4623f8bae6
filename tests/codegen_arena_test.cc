// The code arena behind CodeBuffer: generated code is never mapped
// writable, chunks cross slab boundaries and free in any order, oversized
// code gets a slab that fits it, and a forked child never writes into the
// slabs it shares with its parent.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/codegen/exec_memory.h"
#include "src/codegen/stub_compiler.h"

namespace spin {
namespace codegen {
namespace {

using Fn0 = uint64_t (*)();

// `pad` NOPs, then mov rax, imm64; ret.
std::vector<uint8_t> ReturnConst(uint64_t value, size_t pad = 0) {
  std::vector<uint8_t> code(pad, 0x90);
  code.push_back(0x48);
  code.push_back(0xb8);
  for (int i = 0; i < 8; ++i) {
    code.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
  code.push_back(0xc3);
  return code;
}

uint64_t Call(const CodeBuffer& buffer) {
  return reinterpret_cast<Fn0>(const_cast<void*>(buffer.entry()))();
}

struct Mapping {
  uintptr_t lo = 0;
  uintptr_t hi = 0;
  std::string perms;
  std::string path;
};

std::vector<Mapping> ReadMaps() {
  std::vector<Mapping> maps;
  std::ifstream in("/proc/self/maps");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string range, offset, dev, inode;
    Mapping m;
    fields >> range >> m.perms >> offset >> dev >> inode;
    std::getline(fields >> std::ws, m.path);
    size_t dash = range.find('-');
    m.lo = std::stoull(range.substr(0, dash), nullptr, 16);
    m.hi = std::stoull(range.substr(dash + 1), nullptr, 16);
    maps.push_back(m);
  }
  return maps;
}

std::vector<Mapping> ArenaMappings() {
  std::vector<Mapping> arena;
  for (const Mapping& m : ReadMaps()) {
    if (m.path.find("spin-jit") != std::string::npos) {
      arena.push_back(m);
    }
  }
  return arena;
}

class ArenaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CodegenAvailable()) {
      GTEST_SKIP() << "codegen unavailable on this host";
    }
  }
};

TEST_F(ArenaTest, CodeIsNeverMappedWritable) {
  std::unique_ptr<CodeBuffer> buffer = CodeBuffer::Create(ReturnConst(7));
  ASSERT_NE(buffer, nullptr);
  EXPECT_EQ(Call(*buffer), 7u);
  auto entry = reinterpret_cast<uintptr_t>(buffer->entry());
  bool found = false;
  for (const Mapping& m : ReadMaps()) {
    if (entry >= m.lo && entry < m.hi) {
      found = true;
      EXPECT_EQ(m.perms.substr(0, 3), "r-x") << m.path;
      EXPECT_NE(m.path.find("spin-jit"), std::string::npos) << m.path;
    }
  }
  EXPECT_TRUE(found);
  std::vector<Mapping> arena = ArenaMappings();
  EXPECT_FALSE(arena.empty());
  for (const Mapping& m : arena) {
    EXPECT_EQ(m.perms.find('w'), std::string::npos) << m.perms;
  }
}

TEST_F(ArenaTest, ChunksCrossSlabsAndFreeInAnyOrder) {
  size_t mapped_start = CodeBuffer::TotalMappedBytes();
  // ~200-byte stubs reserve 256 bytes each: 10k of them fill ten 256 KiB
  // slabs.
  constexpr int kCycles = 10000;
  constexpr size_t kLiveWindow = 300;
  std::mt19937_64 rng(20251018);
  std::vector<std::pair<std::unique_ptr<CodeBuffer>, uint64_t>> live;
  auto free_random = [&] {
    size_t victim = rng() % live.size();
    EXPECT_EQ(Call(*live[victim].first), live[victim].second);
    std::swap(live[victim], live.back());
    live.pop_back();
  };
  // Within a slab chunks are carved back to back; any other step is a move
  // to a fresh slab.
  int slab_switches = 0;
  uintptr_t previous = 0;
  for (int i = 0; i < kCycles; ++i) {
    uint64_t value = rng();
    std::unique_ptr<CodeBuffer> buffer =
        CodeBuffer::Create(ReturnConst(value, 189));
    ASSERT_NE(buffer, nullptr);
    ASSERT_EQ(buffer->mapped_size(), 256u);
    ASSERT_EQ(reinterpret_cast<uintptr_t>(buffer->entry()) % 64, 0u);
    ASSERT_EQ(Call(*buffer), value);
    auto entry = reinterpret_cast<uintptr_t>(buffer->entry());
    slab_switches += entry != previous + 256 ? 1 : 0;
    previous = entry;
    live.emplace_back(std::move(buffer), value);
    if (live.size() > kLiveWindow) {
      free_random();
    }
  }
  while (!live.empty()) {
    free_random();
  }
  EXPECT_EQ(CodeBuffer::TotalMappedBytes(), mapped_start);
  // Only the bump slab may stay mapped once every chunk is gone.
  EXPECT_LE(ArenaMappings().size(), 1u);
  EXPECT_GE(slab_switches, 5);
}

TEST_F(ArenaTest, OversizedCodeGetsASlabThatFits) {
  size_t mapped_start = CodeBuffer::TotalMappedBytes();
  std::unique_ptr<CodeBuffer> small = CodeBuffer::Create(ReturnConst(1));
  ASSERT_NE(small, nullptr);
  size_t pad = 300 * 1024;  // more than one 256 KiB slab
  std::unique_ptr<CodeBuffer> big = CodeBuffer::Create(ReturnConst(2, pad));
  ASSERT_NE(big, nullptr);
  EXPECT_GT(big->code_size(), pad);
  EXPECT_EQ(Call(*big), 2u);
  std::unique_ptr<CodeBuffer> next = CodeBuffer::Create(ReturnConst(3));
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(Call(*small), 1u);
  EXPECT_EQ(Call(*next), 3u);
  auto big_entry = reinterpret_cast<uintptr_t>(big->entry());
  int holders = 0;
  for (const Mapping& m : ArenaMappings()) {
    if (big_entry >= m.lo && big_entry < m.hi) {
      ++holders;
      EXPECT_GE(m.hi - big_entry, big->code_size());
    }
  }
  EXPECT_EQ(holders, 1);
  small.reset();
  big.reset();
  next.reset();
  EXPECT_EQ(CodeBuffer::TotalMappedBytes(), mapped_start);
  EXPECT_LE(ArenaMappings().size(), 1u);
}

// After fork() parent and child share every slab's pages. The parent writes
// stubs after the fork, then the child writes its own: if the child bumped
// into the inherited slab it would land on the parent's new stubs.
TEST_F(ArenaTest, ForkedChildNeverWritesSharedSlabs) {
  std::vector<std::pair<std::unique_ptr<CodeBuffer>, uint64_t>> stubs;
  auto compile = [&](uint64_t value) {
    std::unique_ptr<CodeBuffer> buffer = CodeBuffer::Create(ReturnConst(value));
    ASSERT_NE(buffer, nullptr);
    stubs.emplace_back(std::move(buffer), value);
  };
  for (uint64_t v = 100; v < 110; ++v) {
    compile(v);
  }
  int go[2];
  ASSERT_EQ(pipe(go), 0);
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(go[1]);
    char byte;
    if (read(go[0], &byte, 1) != 1) {
      _exit(2);
    }
    int status = 0;
    std::vector<std::unique_ptr<CodeBuffer>> own;
    for (uint64_t v = 900; v < 920; ++v) {
      own.push_back(CodeBuffer::Create(ReturnConst(v)));
      if (own.back() == nullptr || Call(*own.back()) != v) {
        status = 3;
      }
    }
    for (const auto& [buffer, value] : stubs) {
      if (Call(*buffer) != value) {
        status = 4;
      }
    }
    _exit(status);
  }
  close(go[0]);
  for (uint64_t v = 200; v < 210; ++v) {
    compile(v);
  }
  ASSERT_EQ(write(go[1], "x", 1), 1);
  close(go[1]);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  for (uint64_t v = 300; v < 310; ++v) {
    compile(v);
  }
  for (const auto& [buffer, value] : stubs) {
    EXPECT_EQ(Call(*buffer), value);
  }
}

}  // namespace
}  // namespace codegen
}  // namespace spin
