// Nearest-rank percentile over an ascending sample vector, shared by the
// batch report's stage percentiles and the service's queue-wait stats.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace asynth {

/// The sample at rank round(q * (n - 1)) of @p sorted; 0 when it is empty.
[[nodiscard]] inline double nearest_rank(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace asynth
