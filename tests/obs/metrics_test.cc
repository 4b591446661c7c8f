#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace irbuf::obs {
namespace {

/// A component that keeps its count once, as a relaxed atomic, and
/// exports it the way every irbuf component does: one source binding,
/// declared after the count it reads.
struct CountingComponent {
  void Bind(MetricsRegistry* registry, std::string name = "disk.reads") {
    binding = registry->BindSource([this, name](const Emit& emit) {
      emit(name, count.load(std::memory_order_relaxed));
    });
  }
  void Add(uint64_t delta = 1) {
    count.fetch_add(delta, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> count{0};
  SourceBinding binding;
};

TEST(HistogramTest, BucketsAreInclusiveUpperBounds) {
  Histogram h({1.0, 4.0, 16.0});
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 bounds + implicit +inf.
  h.Observe(1.0);   // exactly on a bound -> that bucket
  h.Observe(0.0);   // first bucket
  h.Observe(4.0);   // second bucket (inclusive)
  h.Observe(4.5);   // third bucket
  h.Observe(100.0); // +inf bucket
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 109.5);
  EXPECT_DOUBLE_EQ(h.Mean(), 109.5 / 5.0);
}

TEST(HistogramTest, ResetZeroesButKeepsLayout) {
  Histogram h({2.0});
  h.Observe(1.0);
  h.Observe(3.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  ASSERT_EQ(h.bucket_counts().size(), 2u);
  EXPECT_EQ(h.bucket_counts()[0], 0u);
  EXPECT_EQ(h.bucket_counts()[1], 0u);
  EXPECT_EQ(h.bounds().size(), 1u);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  CountingComponent a;
  CountingComponent b;
  a.Bind(&registry);
  b.Bind(&registry);
  EXPECT_EQ(registry.size(), 1u);  // One counter, two sources.
  Histogram* h1 = registry.AddHistogram("lat", {1.0}, "latency");
  Histogram* h2 = registry.AddHistogram("lat", {5.0});
  EXPECT_EQ(h1, h2);  // Same handle: components may bind independently.
  EXPECT_EQ(registry.size(), 2u);
  h1->Observe(0.5);
  EXPECT_EQ(registry.FindHistogram("lat")->count(), 1u);
}

TEST(MetricsRegistryTest, WrongKindReRegistrationReturnsNull) {
  MetricsRegistry registry;
  CountingComponent c;
  c.Bind(&registry, "x");
  EXPECT_EQ(registry.AddHistogram("x", {1.0}), nullptr);
  EXPECT_EQ(registry.size(), 1u);
  // A source emitting a histogram's name is not counted under it.
  ASSERT_NE(registry.AddHistogram("h", {1.0}), nullptr);
  CountingComponent clash;
  clash.Bind(&registry, "h");
  clash.Add(4);
  EXPECT_EQ(registry.CounterValue("h"), std::nullopt);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistryTest, HandlesAreStableAcrossGrowth) {
  MetricsRegistry registry;
  Histogram* first = registry.AddHistogram("first", {1.0});
  CountingComponent counted;
  counted.Bind(&registry, "counted");
  // Force plenty of internal growth; `first` must stay valid (the hot
  // path records through handles resolved once at wiring time), and so
  // must the counter's source.
  std::vector<std::unique_ptr<CountingComponent>> others;
  for (int i = 0; i < 200; ++i) {
    registry.AddHistogram("h" + std::to_string(i), {1.0});
    others.push_back(std::make_unique<CountingComponent>());
    others.back()->Bind(&registry, "c" + std::to_string(i));
  }
  first->Observe(0.5);
  counted.Add(3);
  EXPECT_EQ(registry.FindHistogram("first")->count(), 1u);
  EXPECT_EQ(registry.CounterValue("counted"), 3u);
}

TEST(MetricsRegistryTest, FindRespectsKindAndAbsence) {
  MetricsRegistry registry;
  CountingComponent c;
  c.Bind(&registry, "c");
  registry.AddHistogram("h", {1.0, 2.0});
  EXPECT_EQ(registry.CounterValue("c"), 0u);
  EXPECT_NE(registry.FindHistogram("h"), nullptr);
  EXPECT_EQ(registry.CounterValue("h"), std::nullopt);  // wrong kind
  EXPECT_EQ(registry.FindHistogram("c"), nullptr);
  EXPECT_EQ(registry.CounterValue("missing"), std::nullopt);
  EXPECT_EQ(registry.FindHistogram("missing"), nullptr);
}

TEST(MetricsRegistryTest, ResetZeroesEveryInstrumentKeepsHandles) {
  MetricsRegistry registry;
  CountingComponent c;
  c.Bind(&registry, "c");
  Histogram* h = registry.AddHistogram("h", {10.0});
  c.Add(5);
  h->Observe(3.0);
  registry.Reset();
  EXPECT_EQ(registry.CounterValue("c"), 0u);
  EXPECT_EQ(h->count(), 0u);
  // The same source and handles keep working after Reset.
  c.Add(1);
  h->Observe(3.0);
  EXPECT_EQ(registry.CounterValue("c"), 1u);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(c.count.load(), 6u);  // The component's own count is untouched.
}

TEST(MetricsRegistryTest, ToJsonGroupsByKind) {
  MetricsRegistry registry;
  CountingComponent disk;
  disk.Bind(&registry, "disk.reads");
  disk.Add(12);
  Histogram* h = registry.AddHistogram("lat", {1.0, 2.0});
  h->Observe(1.5);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"disk.reads\":12}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("gauges"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat\":{\"count\":1,\"sum\":1.5,"
                      "\"p50\":1.5,\"p90\":1.5,\"p99\":1.5,"
                      "\"bounds\":[1,2],\"buckets\":[0,1,0]}"),
            std::string::npos)
      << json;
}

// ---- Pulled counters: baselines, sums, retention, lifetimes. ----

TEST(MetricsRegistryTest, BindAfterTrafficCountsOnlyLaterEvents) {
  MetricsRegistry registry;
  CountingComponent c;
  c.Add(7);  // Before the bind: not the registry's to count.
  c.Bind(&registry);
  EXPECT_EQ(registry.CounterValue("disk.reads"), 0u);
  c.Add(3);
  EXPECT_EQ(registry.CounterValue("disk.reads"), 3u);
  // Rebinding keeps what was counted and starts a new baseline.
  c.Bind(&registry);
  c.Add(2);
  EXPECT_EQ(registry.CounterValue("disk.reads"), 5u);
  // Unbound, later events are not counted; earlier ones stay.
  c.binding.Unbind();
  EXPECT_FALSE(c.binding.bound());
  c.Add(100);
  EXPECT_EQ(registry.CounterValue("disk.reads"), 5u);
}

TEST(MetricsRegistryTest, SourcesUnderOneNameAddUp) {
  MetricsRegistry registry;
  CountingComponent a;
  CountingComponent b;
  b.Add(50);  // b's pre-bind history stays out of the sum.
  a.Bind(&registry, "fault.retries");
  b.Bind(&registry, "fault.retries");
  a.Add(4);
  b.Add(6);
  EXPECT_EQ(registry.CounterValue("fault.retries"), 10u);
  EXPECT_NE(registry.DumpText().find("10"), std::string::npos);
}

TEST(MetricsRegistryTest, CountsSurviveSourceDestruction) {
  MetricsRegistry registry;
  CountingComponent survivor;
  survivor.Bind(&registry);
  {
    CountingComponent dying;
    dying.Bind(&registry);
    dying.Add(8);
  }
  survivor.Add(1);
  EXPECT_EQ(registry.CounterValue("disk.reads"), 9u);
  EXPECT_NE(registry.ToJson().find("\"disk.reads\":9"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetRebaselinesLiveSources) {
  MetricsRegistry registry;
  CountingComponent live;
  live.Bind(&registry);
  {
    CountingComponent gone;
    gone.Bind(&registry);
    gone.Add(20);
  }
  live.Add(5);
  EXPECT_EQ(registry.CounterValue("disk.reads"), 25u);
  registry.Reset();  // Drops the retained 20 and re-baselines `live` at 5.
  EXPECT_EQ(registry.CounterValue("disk.reads"), 0u);
  live.Add(2);
  EXPECT_EQ(registry.CounterValue("disk.reads"), 2u);
}

TEST(MetricsRegistryTest, RegistryMayDieBeforeItsSources) {
  CountingComponent c;
  {
    MetricsRegistry registry;
    c.Bind(&registry);
    c.Add(1);
  }
  // The binding notices the registry is gone: unbinding, rebinding and
  // destroying the component touch no freed memory (checked under ASan).
  c.Add(1);
  EXPECT_FALSE(c.binding.bound());
  c.binding.Unbind();
  MetricsRegistry second;
  c.Bind(&second);
  c.Add(2);
  EXPECT_EQ(second.CounterValue("disk.reads"), 2u);
}

TEST(MetricsRegistryTest, SourcesMayDieBeforeTheirRegistry) {
  MetricsRegistry registry;
  for (int i = 0; i < 3; ++i) {
    auto c = std::make_unique<CountingComponent>();
    c->Bind(&registry);
    c->Add(1);
  }
  // No collector of a destroyed component is ever called again.
  EXPECT_EQ(registry.CounterValue("disk.reads"), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, MovedBindingKeepsCounting) {
  MetricsRegistry registry;
  CountingComponent c;
  c.Bind(&registry);
  SourceBinding moved = std::move(c.binding);
  EXPECT_FALSE(c.binding.bound());
  EXPECT_TRUE(moved.bound());
  c.Add(4);
  EXPECT_EQ(registry.CounterValue("disk.reads"), 4u);
  moved.Unbind();
  c.Add(1);
  EXPECT_EQ(registry.CounterValue("disk.reads"), 4u);
}

TEST(HistogramTest, PercentileInterpolatesBucketRepresentatives) {
  // Buckets: (0,10] rep 5, (10,20] rep 15, +inf rep 20.
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 90; ++i) h.Observe(5.0);
  for (int i = 0; i < 10; ++i) h.Observe(15.0);
  // 90 copies of 5 then 10 of 15: expanded ranks 0..89 are 5.
  EXPECT_DOUBLE_EQ(h.Percentile(50.0), 5.0);
  EXPECT_NEAR(h.Percentile(90.0), 5.0 + 0.1 * 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.Percentile(99.0), 15.0);
  // Overflow observations are pinned to the last finite bound.
  Histogram over({10.0, 20.0});
  over.Observe(1000.0);
  EXPECT_DOUBLE_EQ(over.Percentile(50.0), 20.0);
  // Empty histogram yields 0.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 5.0);
  Histogram empty({10.0});
  EXPECT_DOUBLE_EQ(empty.Percentile(50.0), 0.0);
}

TEST(MetricsRegistryTest, DumpTextListsEveryInstrument) {
  MetricsRegistry registry;
  CountingComponent pool;
  pool.Bind(&registry, "buffer.fetches");
  pool.Add(9);
  registry.AddHistogram("age", {4.0})->Observe(2.0);
  std::string text = registry.DumpText();
  EXPECT_NE(text.find("buffer.fetches"), std::string::npos);
  EXPECT_NE(text.find("9"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);
  EXPECT_NE(text.find("+inf:0"), std::string::npos);
}

TEST(MetricsRegistryTest, EmptyRegistryExportsAreWellFormed) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.ToJson(), "{\"counters\":{},\"histograms\":{}}");
  EXPECT_EQ(registry.DumpText(), "");
}

}  // namespace
}  // namespace irbuf::obs
