#include "util/timeseries.h"

#include <algorithm>

namespace epx {

double WindowedCounter::rate_at(size_t i) const {
  return static_cast<double>(count_at(i)) / to_seconds(window());
}

uint64_t WindowedCounter::total_in(Tick from, Tick to) const {
  // Window i starts at i * width; sum the windows whose start lies in
  // [from, to), i.e. i in [ceil(from / width), ceil(to / width)).
  const Tick width = window();
  const auto first_at_or_after = [width](Tick t) -> size_t {
    return t <= 0 ? 0 : static_cast<size_t>(t / width + (t % width != 0 ? 1 : 0));
  };
  const size_t end = std::min(first_at_or_after(to), size());
  uint64_t sum = 0;
  for (size_t i = first_at_or_after(from); i < end; ++i) sum += count_at(i);
  return sum;
}

double WindowedCounter::average_rate(Tick from, Tick to) const {
  if (to <= from) return 0.0;
  return static_cast<double>(total_in(from, to)) / to_seconds(to - from);
}

std::vector<PhaseAverage> phase_averages(const WindowedCounter& counter,
                                         const std::vector<Tick>& boundaries, Tick end) {
  std::vector<PhaseAverage> result;
  std::vector<Tick> edges = boundaries;
  std::sort(edges.begin(), edges.end());
  edges.insert(edges.begin(), 0);
  edges.push_back(end);
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    if (edges[i + 1] <= edges[i]) continue;
    result.push_back({edges[i], edges[i + 1], counter.average_rate(edges[i], edges[i + 1])});
  }
  return result;
}

}  // namespace epx
