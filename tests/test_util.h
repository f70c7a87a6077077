// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <charconv>
#include <string>

#include "harness/cluster.h"
#include "harness/load_client.h"
#include "util/flat_table.h"
#include "util/logging.h"

namespace epx::testing {

/// "prefix<n>" without string concatenation: `"k" + std::to_string(i)`
/// trips GCC 12's -Wrestrict false positive (PR 105329) when inlined
/// into small loops.
inline std::string numbered(std::string_view prefix, uint64_t n) {
  char buf[48];
  const size_t len = prefix.copy(buf, 24);
  const auto conv = std::to_chars(buf + len, buf + sizeof(buf), n);
  return {buf, conv.ptr};
}

/// The hash whose Fibonacci product (util/flat_table.h) is `product`,
/// so its home slot in a FlatTable of 2^k slots is the top k bits of
/// `product`. The multiplier is odd, so it has an inverse mod 2^64.
constexpr uint64_t hash_with_product(uint64_t product) {
  uint64_t inverse = kFibonacciMultiplier;  // right in 3 bits: odd squares are 1 mod 8
  for (int i = 0; i < 5; ++i) inverse *= 2 - kFibonacciMultiplier * inverse;  // Newton
  return product * inverse;
}

/// Quiet logs by default; set EPX_TEST_LOG=debug for troubleshooting.
inline void init_logging() {
  const char* env = std::getenv("EPX_TEST_LOG");
  if (env == nullptr) {
    log::set_level(log::Level::kError);
  } else if (std::string_view(env) == "debug") {
    log::set_level(log::Level::kDebug);
  } else if (std::string_view(env) == "info") {
    log::set_level(log::Level::kInfo);
  }
}

/// Passes when the invariant monitors (obs/monitor.h), the suite's
/// order oracle, saw no violation; the failure message carries every
/// stored diagnostic. Arm them before adding replicas: only registered
/// members are checked.
inline ::testing::AssertionResult monitors_clean(harness::Cluster& cluster) {
  const obs::MonitorHub& hub = cluster.sim().monitors();
  if (hub.violation_count() == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << hub.violation_count() << " monitor violation(s):\n" << hub.summary();
}

}  // namespace epx::testing
