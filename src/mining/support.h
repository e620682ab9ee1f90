// Support-threshold arithmetic shared by every miner.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace hetsim::mining {

/// Absolute support count a pattern needs to be frequent among `n`
/// transactions at support fraction `support`: max(1, ceil(support·n)).
[[nodiscard]] inline std::uint32_t min_support_count(double support,
                                                     std::size_t n) {
  return static_cast<std::uint32_t>(
      std::max<double>(1.0, std::ceil(support * static_cast<double>(n))));
}

}  // namespace hetsim::mining
