// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <charconv>
#include <string>

#include "harness/cluster.h"
#include "harness/load_client.h"
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
