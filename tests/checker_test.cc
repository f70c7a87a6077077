// Self-tests for the linearizability oracle: it must accept legal
// histories and flag each class of violation (otherwise green runs mean
// nothing). The order oracle's self-tests live in monitor_test.cc.
#include <gtest/gtest.h>

#include "checker/linearizability.h"

namespace epx {
namespace {

using checker::KvOp;
using checker::LinearizabilityChecker;

// --------------------------------------------- LinearizabilityChecker --

KvOp put(const std::string& key, const std::string& value, Tick invoke, Tick response) {
  return {KvOp::Kind::kPut, key, value, invoke, response};
}
KvOp get(const std::string& key, const std::string& value, Tick invoke, Tick response) {
  return {KvOp::Kind::kGet, key, value, invoke, response};
}

TEST(LinearizabilityTest, AcceptsSequentialHistory) {
  LinearizabilityChecker c;
  c.add(put("k", "v1", 0, 10));
  c.add(get("k", "v1", 20, 30));
  c.add(put("k", "v2", 40, 50));
  c.add(get("k", "v2", 60, 70));
  EXPECT_EQ(c.check(), "");
}

TEST(LinearizabilityTest, AcceptsConcurrentReadOfEitherValue) {
  LinearizabilityChecker c;
  c.add(put("k", "v1", 0, 10));
  c.add(put("k", "v2", 15, 40));       // concurrent with the get
  c.add(get("k", "v1", 20, 30));       // may still see v1
  EXPECT_EQ(c.check(), "");
  LinearizabilityChecker c2;
  c2.add(put("k", "v1", 0, 10));
  c2.add(put("k", "v2", 15, 40));
  c2.add(get("k", "v2", 20, 30));      // or already v2
  EXPECT_EQ(c2.check(), "");
}

TEST(LinearizabilityTest, DetectsStaleRead) {
  LinearizabilityChecker c;
  c.add(put("k", "v1", 0, 10));
  c.add(put("k", "v2", 20, 30));  // fully between v1's write and the get
  c.add(get("k", "v1", 40, 50));
  EXPECT_NE(c.check(), "");
}

TEST(LinearizabilityTest, DetectsFutureRead) {
  LinearizabilityChecker c;
  c.add(get("k", "v1", 0, 10));
  c.add(put("k", "v1", 20, 30));  // started after the get finished
  EXPECT_NE(c.check(), "");
}

TEST(LinearizabilityTest, DetectsPhantomValue) {
  LinearizabilityChecker c;
  c.add(get("k", "never-written", 0, 10));
  EXPECT_NE(c.check(), "");
}

TEST(LinearizabilityTest, EmptyReadBeforeAnyWriteIsFine) {
  LinearizabilityChecker c;
  c.add(get("k", "", 0, 10));
  c.add(put("k", "v1", 20, 30));
  EXPECT_EQ(c.check(), "");
}

TEST(LinearizabilityTest, EmptyReadAfterCompletedWriteIsViolation) {
  LinearizabilityChecker c;
  c.add(put("k", "v1", 0, 10));
  c.add(get("k", "", 20, 30));
  EXPECT_NE(c.check(), "");
}

TEST(LinearizabilityTest, KeysAreIndependent) {
  LinearizabilityChecker c;
  c.add(put("a", "v1", 0, 10));
  c.add(put("b", "v2", 0, 10));
  c.add(get("a", "v1", 20, 30));
  c.add(get("b", "v2", 20, 30));
  EXPECT_EQ(c.check(), "");
}

}  // namespace
}  // namespace epx
