// Unit tests for the utility layer: RNG, histogram, time series, status,
// hashing, the flat hash table, the id window and unit formatting.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "tests/test_util.h"
#include "util/flat_table.h"
#include "util/hash.h"
#include "util/histogram.h"
#include "util/id_window.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timeseries.h"
#include "util/units.h"

namespace epx {
namespace {

// ---------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const int64_t v = rng.uniform_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformCoversFullRange) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

// ---------------------------------------------------------- Histogram --

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), 1000, 1000 * 0.07);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (Tick v = 0; v < 16; ++v) h.record(v);
  // Values below one sub-bucket span are stored exactly.
  EXPECT_EQ(h.quantile(0.0), 0);
  EXPECT_EQ(h.quantile(1.0), 15);
}

TEST(HistogramTest, QuantilePrecisionWithinBucketWidth) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.record(i * kMicrosecond);
  // p50 should be ~5000us within ~7% relative error (16 sub-buckets).
  const double p50 = static_cast<double>(h.p50());
  EXPECT_NEAR(p50, 5000.0 * kMicrosecond, 5000.0 * kMicrosecond * 0.07);
  const double p95 = static_cast<double>(h.p95());
  EXPECT_NEAR(p95, 9500.0 * kMicrosecond, 9500.0 * kMicrosecond * 0.07);
}

TEST(HistogramTest, QuantileIsCappedByMax) {
  Histogram h;
  h.record(100);
  h.record(1000000);
  EXPECT_LE(h.quantile(1.0), 1000000);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.record(-50);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.record(kMillisecond);
  for (int i = 0; i < 100; ++i) b.record(3 * kMillisecond);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.max(), 3 * kMillisecond);
  EXPECT_NEAR(a.mean(), 2.0 * kMillisecond, 0.2 * kMillisecond);
}

TEST(HistogramTest, RecordNIsEquivalentToLoop) {
  Histogram a, b;
  a.record_n(5 * kMillisecond, 50);
  for (int i = 0; i < 50; ++i) b.record(5 * kMillisecond);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.p50(), b.p50());
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.record(123456);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0);
}

TEST(HistogramTest, MeanMatchesArithmetic) {
  Histogram h;
  h.record(100);
  h.record(200);
  h.record(300);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(HistogramTest, EmptyQuantilesAreAllZero) {
  Histogram h;
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), 0) << "q=" << q;
  }
  EXPECT_EQ(h.p50(), 0);
  EXPECT_EQ(h.p99(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, MergeOfDisjointRanges) {
  // Sub-microsecond values in one histogram, multi-second values in the
  // other: no shared buckets at all.
  Histogram low, high;
  for (int i = 0; i < 100; ++i) low.record(100 + i);
  for (int i = 0; i < 100; ++i) high.record(5 * kSecond + i * kMillisecond);
  low.merge(high);
  EXPECT_EQ(low.count(), 200u);
  EXPECT_EQ(low.min(), 100);
  EXPECT_GE(low.max(), 5 * kSecond);
  // The median sits at the junction: p50 from the low cluster's bucket,
  // p95 from the high cluster.
  EXPECT_LE(low.quantile(0.45), 250);
  EXPECT_GE(low.quantile(0.95), 5 * kSecond - kMillisecond);
  // Merging an empty histogram changes nothing.
  Histogram empty;
  const uint64_t before = low.count();
  low.merge(empty);
  EXPECT_EQ(low.count(), before);
  // Merging INTO an empty histogram adopts min/max wholesale.
  empty.merge(low);
  EXPECT_EQ(empty.count(), 200u);
  EXPECT_EQ(empty.min(), 100);
}

TEST(HistogramTest, AdvanceWindowMatchesDeltaSinceQuantiles) {
  // The scrape path's one-pass windowed quantiles must reproduce exactly
  // what materialising the delta histogram would report, window after
  // window, across very different value distributions per window.
  Histogram h;
  Histogram snap;
  static constexpr double kQs[3] = {0.50, 0.95, 0.99};
  uint64_t x = 0x243f6a8885a308d3ULL;  // deterministic xorshift stream
  for (int window = 0; window < 5; ++window) {
    const Histogram before = h;  // reference snapshot for delta_since
    const int n = 37 + 211 * window;
    for (int i = 0; i < n; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      // Windows 0,2,4 cluster near 1ms; windows 1,3 span up to ~4s.
      const Tick v = window % 2 == 0 ? kMillisecond + static_cast<Tick>(x % kMillisecond)
                                     : static_cast<Tick>(x % (4 * kSecond));
      h.record(v);
    }
    Tick q[3];
    const uint64_t total = h.advance_window(snap, kQs, 3, q);
    const Histogram delta = h.delta_since(before);
    EXPECT_EQ(total, delta.count()) << "window " << window;
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(q[k], delta.quantile(kQs[k])) << "window " << window << " q=" << kQs[k];
    }
  }
  // advance_window left `snap` current: an immediately repeated window is
  // empty and reports all-zero quantiles.
  Tick q[3] = {1, 1, 1};
  EXPECT_EQ(h.advance_window(snap, kQs, 3, q), 0u);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[2], 0);
}

TEST(HistogramTest, RecordNWithHugeCountsDoesNotOverflowCount) {
  Histogram h;
  const uint64_t huge = 1ULL << 62;
  h.record_n(kMillisecond, huge);
  h.record_n(2 * kMillisecond, huge);
  EXPECT_EQ(h.count(), 2 * huge);  // 2^63 fits in uint64_t
  // Quantiles still resolve to the recorded bucket range.
  EXPECT_GE(h.quantile(0.99), kMillisecond);
  EXPECT_LE(h.quantile(0.25), 2 * kMillisecond);
  // n == 0 is a no-op, not a min/max update.
  Histogram z;
  z.record_n(5 * kSecond, 0);
  EXPECT_EQ(z.count(), 0u);
  EXPECT_EQ(z.max(), 0);
}

// --------------------------------------------------------- TimeSeries --

TEST(WindowedCounterTest, BucketsEventsByWindow) {
  WindowedCounter c;
  c.add(0, 5);
  c.add(999 * kMillisecond, 5);
  c.add(kSecond, 7);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.count_at(0), 10u);
  EXPECT_EQ(c.count_at(1), 7u);
  EXPECT_DOUBLE_EQ(c.rate_at(0), 10.0);
  EXPECT_EQ(c.total(), 17u);
}

TEST(WindowedCounterTest, AverageRate) {
  WindowedCounter c;
  for (int s = 0; s < 10; ++s) c.add(s * kSecond, 100);
  EXPECT_DOUBLE_EQ(c.average_rate(0, 10 * kSecond), 100.0);
  EXPECT_DOUBLE_EQ(c.average_rate(5 * kSecond, 10 * kSecond), 100.0);
  EXPECT_DOUBLE_EQ(c.average_rate(10 * kSecond, 20 * kSecond), 0.0);
}

TEST(WindowedCounterTest, NegativeTimeClampsToZero) {
  WindowedCounter c;
  c.add(-5, 3);
  EXPECT_EQ(c.count_at(0), 3u);
}

TEST(WindowedCounterTest, ExactWindowBoundaryStartsNewWindow) {
  WindowedCounter c;
  c.add(kSecond - 1, 1);  // last tick of window 0
  c.add(kSecond, 1);      // first tick of window 1
  c.add(2 * kSecond - 1, 1);
  c.add(2 * kSecond, 1);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.count_at(0), 1u);
  EXPECT_EQ(c.count_at(1), 2u);
  EXPECT_EQ(c.count_at(2), 1u);
  // total_in treats [from, to) half-open on window starts.
  EXPECT_EQ(c.total_in(0, kSecond), 1u);
  EXPECT_EQ(c.total_in(kSecond, 2 * kSecond), 2u);
  EXPECT_EQ(c.total_in(0, 2 * kSecond), 3u);
}

TEST(WindowedCounterTest, SparseAddsZeroFillSkippedWindows) {
  WindowedCounter c;
  c.add(0, 2);
  c.add(5 * kSecond + 1, 4);
  ASSERT_EQ(c.size(), 6u);
  for (size_t i = 1; i < 5; ++i) EXPECT_EQ(c.count_at(i), 0u) << i;
  EXPECT_EQ(c.count_at(5), 4u);
  EXPECT_DOUBLE_EQ(c.average_rate(kSecond, 5 * kSecond), 0.0);
}

TEST(WindowedCounterTest, MatchesDenseReferenceWithinRing) {
  // Differential against a dense per-window vector: seeded sparse adds
  // that stay within the ring's reach (so nothing ages out) must read back
  // identically through every accessor. Time mostly walks forward with
  // random gaps (same-window hits, skipped windows), and one add in ten
  // lands in an earlier window, as staged network counters do.
  constexpr Tick kHorizon = static_cast<Tick>(WindowRing<uint64_t>::kCapacity) * kSecond;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    WindowedCounter c;
    std::vector<uint64_t> dense;
    Tick now = 0;
    for (int i = 0; i < 2000; ++i) {
      now += static_cast<Tick>(rng.uniform(static_cast<uint64_t>(kSecond)));
      if (now >= kHorizon) break;
      const Tick at = rng.chance(0.1) ? static_cast<Tick>(rng.uniform(now + 1)) : now;
      const uint64_t n = rng.uniform(5);
      c.add(at, n);
      const auto idx = static_cast<size_t>(at / kSecond);
      if (idx >= dense.size()) dense.resize(idx + 1, 0);
      dense[idx] += n;
    }
    ASSERT_EQ(c.size(), dense.size()) << "seed " << seed;
    for (size_t i = 0; i <= dense.size(); ++i) {
      EXPECT_EQ(c.count_at(i), i < dense.size() ? dense[i] : 0u) << "seed " << seed;
    }
    for (int q = 0; q < 200; ++q) {
      const Tick from = rng.uniform_range(-kSecond, now + kSecond);
      const Tick to = rng.uniform_range(-kSecond, now + 2 * kSecond);
      uint64_t want = 0;
      for (size_t i = 0; i < dense.size(); ++i) {
        const Tick start = static_cast<Tick>(i) * kSecond;
        if (start >= from && start < to) want += dense[i];
      }
      EXPECT_EQ(c.total_in(from, to), want) << "seed " << seed << " [" << from << ", " << to << ")";
      const double rate = to > from ? static_cast<double>(want) / to_seconds(to - from) : 0.0;
      EXPECT_DOUBLE_EQ(c.average_rate(from, to), rate) << "seed " << seed;
    }
  }
}

TEST(PhaseAveragesTest, SplitsAtBoundaries) {
  WindowedCounter c;
  for (int s = 0; s < 4; ++s) c.add(s * kSecond, 100);
  for (int s = 4; s < 8; ++s) c.add(s * kSecond, 200);
  const auto phases = phase_averages(c, {4 * kSecond}, 8 * kSecond);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_DOUBLE_EQ(phases[0].rate, 100.0);
  EXPECT_DOUBLE_EQ(phases[1].rate, 200.0);
}

TEST(PhaseAveragesTest, UnsortedBoundariesAreSorted) {
  WindowedCounter c;
  c.add(0, 10);
  const auto phases = phase_averages(c, {3 * kSecond, 1 * kSecond}, 5 * kSecond);
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].to, 1 * kSecond);
  EXPECT_EQ(phases[1].to, 3 * kSecond);
}

// ------------------------------------------------------------- Status --

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::timeout("no reply after 1s");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_EQ(s.to_string(), "TIMEOUT: no reply after 1s");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::not_found("missing"));
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

// --------------------------------------------------------------- Hash --

TEST(HashTest, StableAcrossCalls) {
  EXPECT_EQ(key_hash("alpha"), key_hash("alpha"));
  EXPECT_NE(key_hash("alpha"), key_hash("beta"));
}

TEST(HashTest, KnownFnvVector) {
  // FNV-1a of the empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
}

TEST(HashTest, SimilarKeysSpreadAcrossSpace) {
  // Sequential keys should land in different halves of the hash space
  // often enough for hash partitioning to balance.
  int upper = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    if (key_hash("key" + std::to_string(i)) > (~0ULL / 2)) ++upper;
  }
  EXPECT_NEAR(upper, n / 2, n / 10);
}

// ----------------------------------------------------------- IdWindow --

/// The structures IdWindow replaced in the replica and the coordinator:
/// a std::set for membership and a std::deque for insertion order.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(size_t capacity) : capacity_(capacity) {}

  bool insert(uint64_t id, int64_t stamp) {
    if (!ids_.insert(id).second) return false;
    order_.emplace_back(id, stamp);
    if (order_.size() > capacity_) pop_oldest();
    return true;
  }
  bool contains(uint64_t id) const { return ids_.count(id) != 0; }
  void pop_oldest() {
    ids_.erase(order_.front().first);
    order_.pop_front();
  }
  size_t size() const { return order_.size(); }
  bool empty() const { return order_.empty(); }
  uint64_t oldest() const { return order_.front().first; }
  int64_t oldest_stamp() const { return order_.front().second; }
  const std::deque<std::pair<uint64_t, int64_t>>& order() const { return order_; }

 private:
  size_t capacity_;
  std::set<uint64_t> ids_;
  std::deque<std::pair<uint64_t, int64_t>> order_;
};

/// Replica-shaped ids: `node << 32 | seq` from six client nodes, three
/// with dense sequence numbers and three with sparse ones (one of them
/// node 0xffffffff, so keys reach the top of the id space).
class ClientIds {
 public:
  explicit ClientIds(uint64_t seed) : rng_(seed) {}

  uint64_t next() {
    const size_t k = rng_.uniform(kNodes.size());
    seq_[k] += k < 3 ? 1 : 1 + rng_.uniform(500);
    return (kNodes[k] << 32) | (seq_[k] & 0xffffffffULL);
  }
  Rng& rng() { return rng_; }

 private:
  static constexpr std::array<uint64_t, 6> kNodes = {1, 2, 7, 3, 40, 0xffffffffULL};
  Rng rng_;
  std::array<uint64_t, 6> seq_ = {};
};

/// Checks every member of `ref` is in `w`, then drains both in lockstep.
void expect_same_contents(IdWindow& w, ReferenceWindow& ref) {
  ASSERT_EQ(w.size(), ref.size());
  for (const auto& [id, stamp] : ref.order()) ASSERT_TRUE(w.contains(id)) << id;
  while (!ref.empty()) {
    ASSERT_FALSE(w.empty());
    ASSERT_EQ(w.oldest(), ref.oldest());
    ASSERT_EQ(w.oldest_stamp(), ref.oldest_stamp());
    const uint64_t id = ref.oldest();
    w.pop_oldest();
    ref.pop_oldest();
    ASSERT_FALSE(w.contains(id));
  }
  EXPECT_TRUE(w.empty());
}

TEST(IdWindowTest, MatchesSetDequeReference) {
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (size_t cap : {size_t{1}, size_t{64}, size_t{1} << 16, size_t{1} << 17}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " capacity " << cap);
      IdWindow w(cap);
      ReferenceWindow ref(cap);
      ClientIds ids(seed);
      Rng& rng = ids.rng();
      std::vector<uint64_t> accepted;  // every id inserted, in order
      const size_t ops = 2 * cap + 3000;
      for (size_t op = 0; op < ops; ++op) {
        uint64_t id;
        const uint64_t dice = rng.uniform(100);
        if (dice == 0 && accepted.size() >= cap) {
          id = accepted[accepted.size() - cap];  // distance W: still held
        } else if (dice == 1 && accepted.size() > cap) {
          id = accepted[accepted.size() - cap - 1];  // distance W+1: evicted
        } else if (dice == 2 && !accepted.empty()) {
          // ~1% re-sends at a random distance up to twice the window.
          const size_t reach = std::min(accepted.size(), 2 * cap);
          id = accepted[accepted.size() - 1 - rng.uniform(reach)];
        } else if (dice == 3) {
          const uint64_t edge[] = {0, kMax, kMax - 63, 63, 64};
          id = edge[rng.uniform(5)];
        } else {
          id = ids.next();
        }
        const auto stamp = static_cast<int64_t>(op);
        const bool added = ref.insert(id, stamp);
        ASSERT_EQ(w.insert(id, stamp), added) << "op " << op << " id " << id;
        if (added) accepted.push_back(id);
        ASSERT_EQ(w.size(), ref.size());
        ASSERT_EQ(w.oldest(), ref.oldest());
        if (op % 61 == 0) {
          const uint64_t probes[] = {accepted[rng.uniform(accepted.size())], ids.next(),
                                     rng.next(), 0, kMax};
          for (uint64_t p : probes) ASSERT_EQ(w.contains(p), ref.contains(p)) << p;
        }
      }
      expect_same_contents(w, ref);
    }
  }
}

TEST(IdWindowTest, ReinsertAtWindowDistance) {
  // W ids later an id is the oldest member; one more and it is gone.
  for (size_t cap : {size_t{1}, size_t{64}, size_t{100}}) {
    IdWindow w(cap);
    const uint64_t base = (uint64_t{5} << 32) | 1000;
    for (uint64_t i = 0; i < cap; ++i) ASSERT_TRUE(w.insert(base + i));
    EXPECT_FALSE(w.insert(base)) << "distance W: still a member";
    EXPECT_EQ(w.oldest(), base) << "a rejected re-insert does not refresh";
    ASSERT_TRUE(w.insert(base + cap));
    EXPECT_FALSE(w.contains(base));
    EXPECT_TRUE(w.insert(base)) << "distance W+1: evicted, admitted again";
    EXPECT_EQ(w.size(), cap);
  }
}

TEST(IdWindowTest, ExtremeIds) {
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  IdWindow w(3);
  EXPECT_FALSE(w.contains(0));
  EXPECT_FALSE(w.contains(kMax));
  EXPECT_TRUE(w.insert(0));
  EXPECT_TRUE(w.insert(kMax));
  EXPECT_TRUE(w.insert(kMax - 1));  // shares kMax's bitmap word
  EXPECT_FALSE(w.insert(0));
  EXPECT_FALSE(w.insert(kMax));
  EXPECT_TRUE(w.contains(0));
  EXPECT_FALSE(w.contains(1));
  EXPECT_FALSE(w.contains(kMax - 2));
  EXPECT_TRUE(w.insert(1));  // evicts 0
  EXPECT_FALSE(w.contains(0));
  EXPECT_TRUE(w.insert(2));  // evicts kMax
  EXPECT_FALSE(w.contains(kMax));
  EXPECT_TRUE(w.contains(kMax - 1));
  EXPECT_EQ(w.oldest(), kMax - 1);
}

TEST(IdWindowTest, TtlExpiryMatchesReference) {
  // The coordinator's shape: a 2^16 window whose owner first pops every
  // entry older than the TTL, then inserts stamped with the current
  // time. Bursts push the live count past 2^16 so the capacity
  // backstop evicts too; idle gaps expire everything.
  constexpr size_t kCap = size_t{1} << 16;
  constexpr int64_t kTtl = 100000;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    IdWindow w(kCap);
    ReferenceWindow ref(kCap);
    ClientIds ids(seed + 100);
    Rng& rng = ids.rng();
    std::vector<uint64_t> recent;
    int64_t now = 0;
    size_t expired = 0;
    for (size_t op = 0; op < 250000; ++op) {
      const uint64_t dice = rng.uniform(1000);
      if (dice == 0) {
        now += 2 * kTtl;  // idle gap
      } else if (dice < 500) {
        now += static_cast<int64_t>(rng.uniform(4));
      }
      while (!ref.empty() && now - ref.oldest_stamp() > kTtl) {
        ASSERT_FALSE(w.empty());
        ASSERT_EQ(w.oldest(), ref.oldest());
        ASSERT_GT(now - w.oldest_stamp(), kTtl);
        w.pop_oldest();
        ref.pop_oldest();
        ++expired;
      }
      ASSERT_TRUE(w.empty() || now - w.oldest_stamp() <= kTtl);
      uint64_t id = ids.next();
      if (!recent.empty() && rng.uniform(100) == 0) {
        id = recent[recent.size() - 1 - rng.uniform(std::min<size_t>(recent.size(), 4096))];
      }
      const bool added = ref.insert(id, now);
      ASSERT_EQ(w.insert(id, now), added) << "op " << op;
      if (added) recent.push_back(id);
      ASSERT_EQ(w.size(), ref.size());
    }
    EXPECT_GT(expired, 0u);
    expect_same_contents(w, ref);
  }
}

// ---------------------------------------------------------- FlatTable --

/// One entry: `id` names it (0: the slot is empty), `hash` places it.
struct Item {
  uint64_t h = 0;
  uint32_t id = 0;
  uint32_t value = 0;
  bool empty() const { return id == 0; }
  uint64_t hash() const { return h; }
};

/// Chosen placements for entry `id`, in any table of up to 2^16 slots:
/// a quarter have a mixed hash, a quarter start at the last slot (their
/// probe runs wrap past the end), a quarter start at slot 0, behind the
/// wrapped runs, and the last quarter share the whole 64-bit hash of the
/// wrapping entry two ids below.
uint64_t placed_hash(uint32_t id) {
  const uint64_t mixed = mix64(id);
  switch (id % 4) {
    case 0:
      return mixed;
    case 1:
      return testing::hash_with_product(mixed | uint64_t{0xffff} << 48);
    case 2:
      return testing::hash_with_product(mixed >> 16);
    default:
      return placed_hash(id - 2);
  }
}

TEST(FlatTableTest, MatchesAMapReferenceAcrossGrowth) {
  // The placements hold only if hash_with_product inverts the multiplier.
  for (const uint64_t p : {uint64_t{0xffff} << 48 | 1, uint64_t{0xffff} >> 1}) {
    ASSERT_EQ(testing::hash_with_product(p) * kFibonacciMultiplier, p);
  }
  constexpr uint32_t kUniverse = 3000;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    FlatTable<Item> table;
    std::map<uint32_t, uint32_t> ref;  // id -> value
    const auto lookup = [&table](uint32_t id) {
      return table.find(placed_hash(id), [id](const Item& it) { return it.id == id; });
    };
    const auto expect_same = [&] {
      ASSERT_EQ(table.size(), ref.size());
      for (uint32_t id = 1; id <= kUniverse; ++id) {
        const Item* got = lookup(id);
        const auto want = ref.find(id);
        ASSERT_EQ(got != nullptr, want != ref.end()) << id;
        if (got != nullptr) {
          ASSERT_EQ(got->id, id);
          ASSERT_EQ(got->value, want->second) << id;
        }
      }
    };
    for (int step = 1; step <= 30000; ++step) {
      if (step % 10000 == 0) {  // start over, to grow from the smallest table again
        expect_same();
        table = FlatTable<Item>();
        ref.clear();
      }
      const auto id = static_cast<uint32_t>(1 + rng.uniform(kUniverse));
      const uint64_t dice = rng.uniform(1000);
      Item* hit = lookup(id);
      ASSERT_EQ(hit != nullptr, ref.count(id) == 1) << id;
      if (dice < 600) {  // insert, or update in place
        const auto value = static_cast<uint32_t>(rng.next());
        if (hit != nullptr) {
          hit->value = value;
        } else {
          table.insert(Item{placed_hash(id), id, value});
        }
        ref[id] = value;
      } else if (dice < 995) {
        if (hit != nullptr) table.erase(hit);
        ref.erase(id);
      } else {  // keep one residue class of the values
        const uint32_t m = 2 + static_cast<uint32_t>(rng.uniform(3));
        const auto keep = [m](uint32_t value) { return value % m != 0; };
        table.retain([&](const Item& it) { return keep(it.value); });
        std::erase_if(ref, [&](const auto& entry) { return !keep(entry.second); });
      }
      if (step % 997 == 0) expect_same();
    }
  }
}

// -------------------------------------------------------------- Units --

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(1500 * kMillisecond), 1.5);
  EXPECT_DOUBLE_EQ(to_millis(2500 * kMicrosecond), 2.5);
  EXPECT_EQ(from_seconds(0.25), 250 * kMillisecond);
}

TEST(UnitsTest, DurationFormatting) {
  EXPECT_EQ(format_duration(1500 * kMillisecond), "1.500s");
  EXPECT_EQ(format_duration(2500 * kMicrosecond), "2.500ms");
  EXPECT_EQ(format_duration(1500), "1.500us");
  EXPECT_EQ(format_duration(999), "999ns");
}

TEST(UnitsTest, ByteFormatting) {
  EXPECT_EQ(format_bytes(512), "512B");
  EXPECT_EQ(format_bytes(32 * kKiB), "32.0KiB");
  EXPECT_EQ(format_bytes(3 * kMiB), "3.0MiB");
}

}  // namespace
}  // namespace epx
