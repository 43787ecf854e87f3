#pragma once

#include <cstdint>

namespace pb {
/// Global operator new calls made by this process so far.
std::uint64_t allocations();
}  // namespace pb
