// Heap allocations made by this process so far (see alloc_count.cc).
#pragma once

#include <cstdint>

namespace perfbench {
std::uint64_t alloc_count();
}  // namespace perfbench
