// Tests for the obs layer's LatencyHistogram and MetricRegistry: bucket
// geometry (log-linear, <= 25% bound ratio), quantile accuracy vs the exact
// sorted-sample answer (the satellite contract: within one bucket), and
// element-wise merge semantics the sharded snapshot path relies on.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"

namespace setrec::obs {
namespace {

TEST(LatencyHistogramTest, BucketIndexExactBelowEight) {
  for (uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), v);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(v), v);
  }
}

TEST(LatencyHistogramTest, BucketIndexMonotoneAndInverted) {
  // Sweep exponentially-spaced values plus neighbors across the full range.
  std::vector<uint64_t> values;
  for (int shift = 0; shift < 64; ++shift) {
    const uint64_t base = uint64_t{1} << shift;
    values.push_back(base - 1);
    values.push_back(base);
    values.push_back(base + 1);
  }
  values.push_back(UINT64_MAX);
  std::sort(values.begin(), values.end());
  size_t prev = 0;
  for (uint64_t v : values) {
    const size_t idx = LatencyHistogram::BucketIndex(v);
    ASSERT_LT(idx, LatencyHistogram::kBuckets);
    EXPECT_GE(idx, prev) << "non-monotone at v=" << v;
    prev = idx;
    // v lands inside [lower(idx), lower(idx+1)).
    EXPECT_LE(LatencyHistogram::BucketLowerBound(idx), v);
    if (idx < LatencyHistogram::BucketIndex(UINT64_MAX)) {
      EXPECT_GT(LatencyHistogram::BucketLowerBound(idx + 1), v);
    }
  }
}

TEST(LatencyHistogramTest, ConsecutiveBoundsWithinQuarter) {
  // Log-linear resolution claim: above the unit buckets, consecutive bucket
  // lower bounds never differ by more than 25% (checked over the buckets
  // actually reachable — the top index is BucketIndex(UINT64_MAX)).
  const size_t top = LatencyHistogram::BucketIndex(UINT64_MAX);
  for (size_t i = 8; i + 1 <= top; ++i) {
    const double lo =
        static_cast<double>(LatencyHistogram::BucketLowerBound(i));
    const double hi =
        static_cast<double>(LatencyHistogram::BucketLowerBound(i + 1));
    EXPECT_LE(hi / lo, 1.25) << "bucket " << i;
  }
}

TEST(LatencyHistogramTest, CountSumMax) {
  LatencyHistogram h;
  EXPECT_EQ(h.Quantile(0.5), 0u);  // Empty histogram reads zero.
  h.Record(5);
  h.Record(100);
  h.Record(7);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 112u);
  EXPECT_EQ(h.max(), 100u);
}

// The satellite contract: histogram quantiles land within one bucket of the
// exact sorted-vector answer on a known distribution.
void ExpectQuantilesWithinOneBucket(const std::vector<uint64_t>& samples) {
  LatencyHistogram h;
  std::vector<uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (uint64_t v : samples) h.Record(v);
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const size_t rank = std::min(
        sorted.size() - 1,
        static_cast<size_t>(q * static_cast<double>(sorted.size())));
    const uint64_t exact = sorted[rank];
    const uint64_t approx = h.Quantile(q);
    const auto exact_idx =
        static_cast<long>(LatencyHistogram::BucketIndex(exact));
    const auto approx_idx =
        static_cast<long>(LatencyHistogram::BucketIndex(approx));
    EXPECT_LE(std::abs(exact_idx - approx_idx), 1)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(LatencyHistogramTest, QuantilesMatchSortedUniform) {
  std::mt19937_64 rng(41);
  std::uniform_int_distribution<uint64_t> dist(100, 5'000'000);
  std::vector<uint64_t> samples(20'000);
  for (uint64_t& v : samples) v = dist(rng);
  ExpectQuantilesWithinOneBucket(samples);
}

TEST(LatencyHistogramTest, QuantilesMatchSortedHeavyTail) {
  // Latency-shaped: lognormal-ish heavy tail spanning several octaves.
  std::mt19937_64 rng(97);
  std::lognormal_distribution<double> dist(11.0, 1.5);  // ~60us median.
  std::vector<uint64_t> samples(20'000);
  for (uint64_t& v : samples) v = static_cast<uint64_t>(dist(rng)) + 1;
  ExpectQuantilesWithinOneBucket(samples);
}

TEST(LatencyHistogramTest, MergeEqualsSingleRecorder) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<uint64_t> dist(1, 1'000'000);
  LatencyHistogram whole;
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t v = dist(rng);
    whole.Record(v);
    (i % 2 == 0 ? a : b).Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.sum(), whole.sum());
  EXPECT_EQ(a.max(), whole.max());
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    ASSERT_EQ(a.bucket(i), whole.bucket(i)) << "bucket " << i;
  }
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.Quantile(q), whole.Quantile(q)) << "q=" << q;
  }
}

TEST(MetricRegistryTest, MergeAccumulatesEveryField) {
  MetricRegistry a;
  MetricRegistry b;
  a.session_latency[1][0].Record(100);
  b.session_latency[1][0].Record(200);
  b.round_latency[3][1].Record(50);
  a.flush_occupancy.Record(512);
  b.flush_occupancy.Record(1024);
  a.decode_failures = 2;
  b.decode_failures = 3;
  b.retry_rounds = 7;
  a.Merge(b);
  EXPECT_EQ(a.session_latency[1][0].count(), 2u);
  EXPECT_EQ(a.round_latency[3][1].count(), 1u);
  EXPECT_EQ(a.flush_occupancy.count(), 2u);
  EXPECT_EQ(a.flush_occupancy.max(), 1024u);
  EXPECT_EQ(a.decode_failures, 5u);
  EXPECT_EQ(a.retry_rounds, 7u);
}

TEST(PumpMetricsTest, MergeTakesWatermarkMax) {
  PumpMetrics a;
  PumpMetrics b;
  a.outbuf_high_watermark = 4096;
  b.outbuf_high_watermark = 1024;
  a.stat_requests = 1;
  b.stat_requests = 2;
  b.trace_requests = 4;
  b.frame_decode_failures = 1;
  a.Merge(b);
  EXPECT_EQ(a.outbuf_high_watermark, 4096u);
  EXPECT_EQ(a.stat_requests, 3u);
  EXPECT_EQ(a.trace_requests, 4u);
  EXPECT_EQ(a.frame_decode_failures, 1u);
}

constexpr uint64_t kSec = RateRing::kWindowNs;

TEST(RateRingTest, EmptyAndSingleObservationReadZero) {
  RateRing ring;
  EXPECT_EQ(ring.SnapshotAt(5 * kSec).sessions_per_sec, 0.0);
  ring.Advance(10 * kSec, {});  // Baseline only: no span yet.
  const RateRing::Rates r = ring.SnapshotAt(10 * kSec);
  EXPECT_EQ(r.span_ns, 0u);
  EXPECT_EQ(r.sessions_per_sec, 0.0);
}

TEST(RateRingTest, RatesOverOneSecond) {
  RateRing ring;
  ring.Advance(10 * kSec, {0, 0, 0});
  ring.Advance(11 * kSec, {10, 20'000, 2});
  const RateRing::Rates r = ring.SnapshotAt(11 * kSec);
  EXPECT_EQ(r.span_ns, kSec);
  EXPECT_DOUBLE_EQ(r.sessions_per_sec, 10.0);
  EXPECT_DOUBLE_EQ(r.bytes_per_sec, 20'000.0);
  EXPECT_DOUBLE_EQ(r.decode_failures_per_min, 120.0);
}

TEST(RateRingTest, SubSecondAdvancesLandInTheOpenWindow) {
  RateRing ring;
  ring.Advance(10 * kSec, {0, 0, 0});
  // Four advances inside one window, then read at the half-second mark:
  // the open window's age is what divides the counts.
  ring.Advance(10 * kSec + kSec / 4, {5, 500, 0});
  ring.Advance(10 * kSec + kSec / 2, {10, 1'000, 0});
  const RateRing::Rates r = ring.SnapshotAt(10 * kSec + kSec / 2);
  EXPECT_EQ(r.span_ns, kSec / 2);
  EXPECT_DOUBLE_EQ(r.sessions_per_sec, 20.0);
}

TEST(RateRingTest, IdleRingDecaysTowardZero) {
  RateRing ring;
  ring.Advance(10 * kSec, {0, 0, 0});
  ring.Advance(11 * kSec, {100, 0, 0});  // One busy second: 100/s.
  EXPECT_DOUBLE_EQ(ring.SnapshotAt(11 * kSec).sessions_per_sec, 100.0);
  // Reading later without traffic stretches the open window: the same
  // 100 sessions over 1 closed + 10 open seconds.
  EXPECT_NEAR(ring.SnapshotAt(21 * kSec).sessions_per_sec, 100.0 / 11.0,
              1e-9);
}

TEST(RateRingTest, WrapKeepsOnlyTheRetainedMinute) {
  RateRing ring;
  ring.Advance(0 * kSec + 1, {0, 0, 0});
  // 100 windows at 60/s each; only the last kWindows survive.
  for (uint64_t i = 1; i <= 100; ++i) {
    ring.Advance(i * kSec + 1, {i * 60, 0, 0});
  }
  const RateRing::Rates r = ring.SnapshotAt(100 * kSec + 1);
  EXPECT_EQ(r.span_ns, RateRing::kWindows * kSec);
  EXPECT_DOUBLE_EQ(r.sessions_per_sec, 60.0);
}

TEST(RateRingTest, GapLongerThanTheRingSkipsAhead) {
  RateRing ring;
  ring.Advance(10 * kSec, {0, 0, 0});
  ring.Advance(11 * kSec, {600, 0, 0});
  // A 10-minute silence then one more advance: the busy second fell off
  // the ring, so the retained minute is all idle and reads zero — a
  // long-stopped server does not report its last busy second forever.
  const uint64_t later = 611 * kSec;
  ring.Advance(later, {600, 0, 0});
  const RateRing::Rates r = ring.SnapshotAt(later);
  EXPECT_EQ(r.span_ns, RateRing::kWindows * kSec);
  EXPECT_DOUBLE_EQ(r.sessions_per_sec, 0.0);
  // New traffic after the gap shows up immediately in the open window.
  ring.Advance(later + kSec / 2, {660, 0, 0});
  EXPECT_GT(ring.SnapshotAt(later + kSec / 2).sessions_per_sec, 0.0);
}

TEST(RateRingTest, AccumulateSumsAcrossShards) {
  RateRing::Rates a;
  a.sessions_per_sec = 5.0;
  a.bytes_per_sec = 100.0;
  a.span_ns = 2 * kSec;
  RateRing::Rates b;
  b.sessions_per_sec = 7.0;
  b.decode_failures_per_min = 3.0;
  b.span_ns = 3 * kSec;
  a.Accumulate(b);
  EXPECT_DOUBLE_EQ(a.sessions_per_sec, 12.0);
  EXPECT_DOUBLE_EQ(a.bytes_per_sec, 100.0);
  EXPECT_DOUBLE_EQ(a.decode_failures_per_min, 3.0);
  EXPECT_EQ(a.span_ns, 3 * kSec);  // Longest shard span wins.
}

TEST(ExpositionTest, HeaderValidationAcceptsKnownVersionsOnly) {
  EXPECT_TRUE(ValidMetricsExpositionHeader("# setrec-metrics v2\n"));
  EXPECT_TRUE(ValidMetricsExpositionHeader("# setrec-metrics v2"));
  EXPECT_FALSE(ValidMetricsExpositionHeader("# setrec-metrics v1\n"));
  EXPECT_FALSE(ValidMetricsExpositionHeader("# setrec-metrics v3\n"));
  EXPECT_FALSE(ValidMetricsExpositionHeader("# setrec-metrics v12\n"));
  EXPECT_FALSE(ValidMetricsExpositionHeader("# setrec-metrics v21\n"));
  EXPECT_FALSE(ValidMetricsExpositionHeader("# setrec-trace v1\n"));
  EXPECT_FALSE(ValidMetricsExpositionHeader(""));
  EXPECT_FALSE(ValidMetricsExpositionHeader("counter x{} 1\n"));
}

TEST(ExpositionTest, WritesCounterAndRateLines) {
  ExpositionWriter w;
  w.Counter("setrec_sessions_completed", "", 4);
  RateRing::Rates rates;
  rates.sessions_per_sec = 12.4;
  rates.bytes_per_sec = 182'333.0;
  rates.span_ns = 2 * RateRing::kWindowNs;
  AppendRates(rates, w);
  const std::string text = w.Take();
  EXPECT_EQ(text.rfind("# setrec-metrics v2\n", 0), 0u);
  EXPECT_NE(text.find("counter setrec_sessions_completed{} 4"),
            std::string::npos);
  EXPECT_NE(text.find("rate setrec_sessions_per_sec{} 12.400"),
            std::string::npos);
  EXPECT_NE(text.find("rate setrec_bytes_per_sec{} 182333.000"),
            std::string::npos);
  EXPECT_NE(text.find("rate setrec_decode_failures_per_min{} 0.000"),
            std::string::npos);
  EXPECT_NE(text.find("rate setrec_rate_window_seconds{} 2.000"),
            std::string::npos);
}

}  // namespace
}  // namespace setrec::obs
