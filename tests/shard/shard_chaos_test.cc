// Shard-level failure domains under chaos: one shard blacked out, one
// shard straggling, one shard flapping — at 2 and 4 shards, through the
// bare engine and the full QueryServer. The invariants:
//
//   * a dead / straggling / flapping shard never fails or hangs a
//     query — the answer comes from the surviving shards, degraded;
//   * conservation: a forfeited shard's whole possible contribution is
//     charged to the merged result — quality_bound equals the sum over
//     the query's terms of LostShardTermBound EXACTLY, pages_lost the
//     sum of ShardTermPages — whether the shard died page by page or
//     was forfeited wholesale;
//   * the degraded ranking equals ground truth over the surviving
//     shards' documents (thresholds off), and recall@10 against the
//     full collection keeps a floor;
//   * at p = 0 the whole failure-domain apparatus (breakers on, soft
//     deadline armed, injector attached) is bit-invisible.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "../core/test_index.h"
#include "core/filtering_evaluator.h"
#include "fault/fault_injector.h"
#include "serve/query_server.h"
#include "shard/index_sharder.h"
#include "shard/sharded_engine.h"

namespace irbuf {
namespace {

using core::MakeRandomCollection;
using core::TestCollection;

constexpr uint32_t kPageSize = 3;

fault::ResilienceOptions FastResilience() {
  fault::ResilienceOptions options;
  options.enabled = true;
  options.sleep_on_backoff = false;
  options.backoff.max_retries = 1;
  return options;
}

/// Breaker that trips after two failed steps — small enough that a
/// blacked-out shard is forfeited wholesale mid-query.
fault::BreakerOptions TwitchyBreaker() {
  fault::BreakerOptions options;
  options.window = 2;
  options.min_samples = 2;
  options.trip_error_rate = 0.5;
  options.open_cooldown_us = 1000;
  return options;
}

shard::ShardedEngineOptions ChaosEngineOptions() {
  shard::ShardedEngineOptions options;
  // Thresholds off: every live shard computes exact cosine over its doc
  // range, so the degraded answer is deterministic and the conservation
  // assertions are exact (no skip path contributes to quality_bound).
  options.eval.c_ins = 0.0;
  options.eval.c_add = 0.0;
  options.eval.top_n = 20;
  options.pool.total_pages = 16;
  options.pool.resilience = FastResilience();
  options.shard_breaker = TwitchyBreaker();
  return options;
}

std::vector<core::Query> ChaosQueries(uint32_t num_terms) {
  std::vector<core::Query> queries;
  for (uint32_t take : {4u, 7u, num_terms}) {
    core::Query q;
    for (TermId t = 0; t < std::min(take, num_terms); ++t) {
      q.AddTerm(t, 1 + t % 3);
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Ground truth restricted to documents outside [lost_begin, lost_end):
/// what a query answered without one shard's doc range must score.
std::vector<core::ScoredDoc> SurvivorRanking(const TestCollection& tc,
                                             const core::Query& query,
                                             uint32_t n, DocId lost_begin,
                                             DocId lost_end) {
  std::map<DocId, double> scores;
  for (const core::QueryTerm& qt : query.terms()) {
    const double idf = tc.index.lexicon().info(qt.term).idf;
    for (const Posting& p : tc.lists[qt.term]) {
      if (p.doc >= lost_begin && p.doc < lost_end) continue;
      scores[p.doc] += static_cast<double>(p.freq) * idf *
                       static_cast<double>(qt.fq) * idf;
    }
  }
  std::vector<core::ScoredDoc> ranked;
  for (auto& [doc, acc] : scores) {
    double norm = tc.index.doc_norm(doc);
    ranked.push_back(core::ScoredDoc{doc, norm > 0.0 ? acc / norm : 0.0});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const core::ScoredDoc& a, const core::ScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (ranked.size() > n) ranked.resize(n);
  return ranked;
}

double RecallAt10(const std::vector<core::ScoredDoc>& got,
                  const std::vector<core::ScoredDoc>& reference) {
  const size_t n = std::min<size_t>(10, reference.size());
  if (n == 0) return 1.0;
  size_t found = 0;
  const size_t got_n = std::min<size_t>(10, got.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < got_n; ++j) {
      if (got[j].doc == reference[i].doc) {
        ++found;
        break;
      }
    }
  }
  return static_cast<double>(found) / static_cast<double>(n);
}

/// The charge a dead shard must have left on the merge: the sum over
/// the query's terms of its shard-local per-term bounds. When the shard
/// was forfeited wholesale (shards_lost == 1, partial dropped) the
/// engine accumulates in exactly this order, so the double equality is
/// EXACT; when it died page by page without being forfeited the total
/// is the same sum in page order, identical up to FP associativity.
void ExpectForfeitureConserved(const shard::ShardedEngine& engine,
                               size_t shard, const core::Query& query,
                               const core::EvalResult& merged) {
  double expected_bound = 0.0;
  uint32_t expected_lost = 0;
  for (const core::QueryTerm& qt : query.terms()) {
    expected_bound += engine.LostShardTermBound(shard, qt);
    expected_lost += engine.ShardTermPages(shard, qt.term);
  }
  if (merged.shards_lost == 1) {
    EXPECT_EQ(merged.quality_bound, expected_bound);
  } else {
    EXPECT_NEAR(merged.quality_bound, expected_bound,
                1e-9 * std::max(1.0, expected_bound));
  }
  EXPECT_EQ(merged.pages_lost, expected_lost);
}

// ---- Single-shard blackout: every query answered, degraded, exact. ----

class ShardBlackoutTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardBlackoutTest, BlackoutDegradesToSurvivingShards) {
  const size_t num_shards = GetParam();
  TestCollection tc = MakeRandomCollection(811, 240, 10, kPageSize);
  shard::ShardOptions sharding;
  sharding.num_shards = num_shards;
  sharding.page_size = kPageSize;
  auto sharded = shard::ShardIndex(tc.index, sharding);
  ASSERT_TRUE(sharded.ok());

  const size_t dead_shard = num_shards - 1;
  fault::FaultSpec spec;
  spec.rules.push_back({fault::FaultKind::kPermanentBadPage, 1.0});
  fault::FaultInjector injector(spec);
  sharded.value().shard(dead_shard).disk().SetFaultInjector(&injector);

  shard::ShardedEngine engine(&sharded.value(), ChaosEngineOptions());
  const DocId lost_begin = sharded.value().doc_begin(dead_shard);
  const DocId lost_end = sharded.value().doc_end(dead_shard);

  for (const core::Query& q : ChaosQueries(10)) {
    auto r = engine.Evaluate(q, nullptr, 0);
    // A dead shard degrades the query; it never fails it.
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const core::EvalResult& er = r.value();
    EXPECT_TRUE(er.degraded);
    EXPECT_TRUE(std::isfinite(er.quality_bound));
    EXPECT_GT(er.quality_bound, 0.0);

    // Conservation: the merge charges the dead shard's whole possible
    // contribution, bit-exactly — whether it died page by page (before
    // the breaker tripped) or was forfeited wholesale (after).
    ExpectForfeitureConserved(engine, dead_shard, q, er);

    // The degraded ranking IS the ground truth over surviving docs.
    const auto reference =
        SurvivorRanking(tc, q, 20, lost_begin, lost_end);
    ASSERT_EQ(er.top_docs.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(er.top_docs[i].doc, reference[i].doc) << "rank " << i;
      EXPECT_NEAR(er.top_docs[i].score, reference[i].score, 1e-9);
    }

    // Recall against the FULL collection is deterministic: a surviving
    // doc in the full top-10 only moves UP when the dead range's docs
    // drop out, so recall@10 is exactly the surviving fraction of the
    // full top-10 — and at 4 shards that keeps the committed 0.5 floor.
    const auto full = core::BruteForceRanking(tc, q, 20);
    const size_t n = std::min<size_t>(10, full.size());
    size_t survived = 0;
    for (size_t i = 0; i < n; ++i) {
      if (full[i].doc < lost_begin || full[i].doc >= lost_end) ++survived;
    }
    const double recall = RecallAt10(er.top_docs, full);
    EXPECT_DOUBLE_EQ(recall, static_cast<double>(survived) /
                                 static_cast<double>(n));
    if (num_shards == 4) {
      EXPECT_GE(recall, 0.5);
    }
  }

  // After the first couple of probing steps the breaker is open and the
  // shard is forfeited per query without touching its device.
  ASSERT_NE(engine.shard_breaker(dead_shard), nullptr);
  EXPECT_GE(engine.shard_breaker(dead_shard)->trips(), 1u);
  sharded.value().shard(dead_shard).disk().SetFaultInjector(nullptr);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardBlackoutTest,
                         ::testing::Values<size_t>(2, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param) + "shards";
                         });

// ---- Straggler: a latency-spiking shard is abandoned, not waited on. ----

TEST(ShardStragglerTest, StragglingShardForfeitedAtSoftDeadline) {
  TestCollection tc = MakeRandomCollection(823, 200, 8, kPageSize);
  shard::ShardOptions sharding;
  sharding.num_shards = 4;
  sharding.page_size = kPageSize;
  auto sharded = shard::ShardIndex(tc.index, sharding);
  ASSERT_TRUE(sharded.ok());

  // Every miss on shard 1 sleeps 200x the base device delay: a
  // straggler, not a failure — no read ever errors. One spiked miss
  // (40 ms) alone overshoots the 20 ms soft step deadline, while a
  // healthy shard's whole term (a handful of 200 us misses) stays an
  // order of magnitude inside it.
  const size_t slow_shard = 1;
  fault::FaultSpec spec;
  fault::FaultRule latency{fault::FaultKind::kLatencySpike, 1.0};
  latency.latency_multiplier = 200.0;
  spec.rules.push_back(latency);
  fault::FaultInjector injector(spec);
  sharded.value().shard(slow_shard).disk().SetFaultInjector(&injector);

  shard::ShardedEngineOptions options = ChaosEngineOptions();
  options.pool.io_delay_us_per_miss = 200;
  options.shard_step_soft_deadline_us = 20'000;
  shard::ShardedEngine engine(&sharded.value(), options);

  core::Query q;
  for (TermId t = 0; t < 8; ++t) q.AddTerm(t, 1);
  auto r = engine.Evaluate(q, nullptr, 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const core::EvalResult& er = r.value();
  EXPECT_TRUE(er.degraded);
  EXPECT_EQ(er.shards_lost, 1u);
  ExpectForfeitureConserved(engine, slow_shard, q, er);

  // Wholesale forfeiture drops the straggler's partial entirely, so the
  // answer equals ground truth over the other three shards' docs.
  const auto reference =
      SurvivorRanking(tc, q, 20, sharded.value().doc_begin(slow_shard),
                      sharded.value().doc_end(slow_shard));
  ASSERT_EQ(er.top_docs.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(er.top_docs[i].doc, reference[i].doc) << "rank " << i;
    EXPECT_NEAR(er.top_docs[i].score, reference[i].score, 1e-9);
  }
  // No SetFaultInjector(nullptr) here: the straggler's abandoned step
  // may still be inside ReadPage when Evaluate returns (that is the
  // point of the forfeit), so clearing the injector now would race the
  // lane thread. Declaration order already guarantees safety — the
  // engine (which joins its lanes) dies before the injector does.
}

// ---- Flapping: a shard that fails intermittently across a sequence. ----

class ShardFlappingTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardFlappingTest, FlappingShardNeverFailsOrHangsQueries) {
  const size_t num_shards = GetParam();
  TestCollection tc = MakeRandomCollection(829, 260, 10, kPageSize);
  shard::ShardOptions sharding;
  sharding.num_shards = num_shards;
  sharding.page_size = kPageSize;
  auto sharded = shard::ShardIndex(tc.index, sharding);
  ASSERT_TRUE(sharded.ok());

  // Transient failures at 60%: with one retry some pages recover, some
  // are lost, so the shard's breaker flaps open/half-open/closed across
  // the sequence.
  const size_t flappy = 0;
  fault::FaultSpec spec;
  spec.seed = 7;
  spec.rules.push_back({fault::FaultKind::kTransientRead, 0.6});
  fault::FaultInjector injector(spec);
  sharded.value().shard(flappy).disk().SetFaultInjector(&injector);

  shard::ShardedEngineOptions options = ChaosEngineOptions();
  options.shard_breaker.window = 4;
  options.shard_breaker.min_samples = 4;
  options.shard_breaker.open_cooldown_us = 200;
  shard::ShardedEngine engine(&sharded.value(), options);

  const std::vector<core::Query> queries = ChaosQueries(10);
  for (int round = 0; round < 4; ++round) {
    for (const core::Query& q : queries) {
      auto r = engine.Evaluate(q, nullptr, 0);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const core::EvalResult& er = r.value();
      // Degradation accounts for itself under flapping too.
      EXPECT_EQ(er.degraded,
                er.pages_lost > 0 || er.deadline_hit || er.work_trimmed ||
                    er.shards_lost > 0);
      EXPECT_GE(er.quality_bound, 0.0);
      EXPECT_TRUE(std::isfinite(er.quality_bound));
      if (er.pages_lost > 0) {
        EXPECT_GT(er.quality_bound, 0.0);
      }
      // Pool-stat conservation survives the chaos.
      const buffer::BufferStats stats = engine.PoolStats();
      EXPECT_EQ(stats.fetches, stats.hits + stats.misses);
    }
  }
  sharded.value().shard(flappy).disk().SetFaultInjector(nullptr);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardFlappingTest,
                         ::testing::Values<size_t>(2, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param) + "shards";
                         });

// ---- p = 0: breakers + soft deadline + injector are bit-invisible. ----

TEST(ShardChaosZeroRateTest, FailureDomainApparatusIsBitInvisible) {
  TestCollection tc = MakeRandomCollection(31, 160, 12, kPageSize);
  core::EvalOptions eval;  // DF, default thresholds.

  // Unsharded reference: one pool warmed across the whole sequence.
  std::vector<core::Query> queries;
  {
    Pcg32 rng(77);
    const uint32_t num_terms =
        static_cast<uint32_t>(tc.index.lexicon().size());
    for (size_t i = 0; i < 6; ++i) {
      core::Query q;
      const uint32_t width = 2 + rng.NextBounded(3);
      for (TermId t : SampleDistinct(num_terms, width, &rng)) {
        q.AddTerm(t, 1 + rng.NextBounded(2));
      }
      queries.push_back(std::move(q));
    }
  }
  core::FilteringEvaluator reference(&tc.index, eval);

  for (size_t num_shards : {2u, 4u}) {
    // Fresh reference pool per shard count: each sharded run below
    // replays the same warm sequence from cold.
    serve::ConcurrentBufferPool reference_pool(&tc.index.disk(),
                                               serve::PoolOptions(16));
    shard::ShardOptions sharding;
    sharding.num_shards = num_shards;
    sharding.page_size = kPageSize;
    auto sharded = shard::ShardIndex(tc.index, sharding);
    ASSERT_TRUE(sharded.ok());

    // The whole apparatus armed, zero faults injected.
    fault::FaultSpec empty_spec;
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    for (size_t s = 0; s < num_shards; ++s) {
      injectors.push_back(std::make_unique<fault::FaultInjector>(empty_spec));
      sharded.value().shard(s).disk().SetFaultInjector(injectors.back().get());
    }
    shard::ShardedEngineOptions options;
    options.pool.total_pages = 16;
    options.pool.resilience = FastResilience();
    options.shard_breakers = true;
    options.shard_step_soft_deadline_us = 10'000'000;  // Armed, generous.
    shard::ShardedEngine engine(&sharded.value(), options);

    for (size_t i = 0; i < queries.size(); ++i) {
      auto expected = reference.Evaluate(queries[i], &reference_pool);
      auto got = engine.Evaluate(queries[i], nullptr, 0);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_FALSE(got.value().degraded);
      EXPECT_EQ(got.value().shards_lost, 0u);
      ASSERT_EQ(got.value().top_docs.size(),
                expected.value().top_docs.size());
      for (size_t j = 0; j < got.value().top_docs.size(); ++j) {
        EXPECT_EQ(got.value().top_docs[j].doc,
                  expected.value().top_docs[j].doc)
            << "shards " << num_shards << " query " << i << " rank " << j;
        // Bit-identical, not just close.
        EXPECT_EQ(got.value().top_docs[j].score,
                  expected.value().top_docs[j].score)
            << "shards " << num_shards << " query " << i << " rank " << j;
      }
    }
    for (size_t s = 0; s < num_shards; ++s) {
      EXPECT_EQ(engine.shard_breaker(s)->trips(), 0u);
      sharded.value().shard(s).disk().SetFaultInjector(nullptr);
    }
  }
}

// ---- Blackout through the full serving stack, concurrent clients. ----

TEST(ShardChaosServerTest, ServerAbsorbsShardBlackoutAcrossWorkers) {
  TestCollection tc = MakeRandomCollection(839, 240, 10, kPageSize);
  shard::ShardOptions sharding;
  sharding.num_shards = 4;
  sharding.page_size = kPageSize;
  auto sharded = shard::ShardIndex(tc.index, sharding);
  ASSERT_TRUE(sharded.ok());

  const size_t dead_shard = 2;
  fault::FaultSpec spec;
  spec.rules.push_back({fault::FaultKind::kPermanentBadPage, 1.0});
  fault::FaultInjector injector(spec);
  sharded.value().shard(dead_shard).disk().SetFaultInjector(&injector);

  shard::ShardedEngineOptions engine_options = ChaosEngineOptions();
  engine_options.lanes_per_shard = 8;
  shard::ShardedEngine engine(&sharded.value(), engine_options);

  serve::ServerOptions options;
  options.num_threads = 8;
  options.queue_depth = 64;
  options.engine = &engine;
  serve::QueryServer server(&tc.index, options);
  server.Start();

  const std::vector<core::Query> queries = ChaosQueries(10);
  std::vector<std::thread> clients;
  std::atomic<uint64_t> failures{0};
  for (size_t session = 0; session < 4; ++session) {
    clients.emplace_back([&, session] {
      for (int loop = 0; loop < 3; ++loop) {
        for (const core::Query& q : queries) {
          auto response = server.Execute(session, q);
          if (!response.ok()) {
            ++failures;
            continue;
          }
          const core::EvalResult& er = response.value().eval;
          // Every answer is degraded — the dead shard always costs
          // something — and accounts for itself.
          EXPECT_TRUE(er.degraded);
          EXPECT_TRUE(er.pages_lost > 0 || er.shards_lost > 0);
          EXPECT_GT(er.quality_bound, 0.0);
          EXPECT_TRUE(std::isfinite(er.quality_bound));
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  server.Stop();
  sharded.value().shard(dead_shard).disk().SetFaultInjector(nullptr);

  EXPECT_EQ(failures.load(), 0u);
  const serve::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.submitted, 4u * 3u * queries.size());
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
  const buffer::BufferStats pool = server.PoolStatsSnapshot();
  EXPECT_EQ(pool.fetches, pool.hits + pool.misses);
}

}  // namespace
}  // namespace irbuf
