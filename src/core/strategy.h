// Partitioning strategies compared throughout the paper's evaluation.
#pragma once

#include <cstdint>
#include <string>

namespace hetsim::core {

enum class Strategy : std::uint8_t {
  kRandom,          // non-stratified shuffle (worse than every baseline)
  kStratified,      // equal sizes, strata-driven layout (paper baseline)
  kHetAware,        // LP with alpha = 1 (time only)
  kHetEnergyAware,  // LP with configured alpha < 1
};

[[nodiscard]] inline std::string strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kRandom:
      return "Random";
    case Strategy::kStratified:
      return "Stratified";
    case Strategy::kHetAware:
      return "Het-Aware";
    case Strategy::kHetEnergyAware:
      return "Het-Energy-Aware";
  }
  return "?";
}

}  // namespace hetsim::core
