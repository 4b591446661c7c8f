// Sharded serving under real concurrency: 8 server workers fanning out
// over 4 shard pools (TSan coverage for the lane handoff, the Smax
// barrier and the per-shard latches). Registered with the `concurrency`
// label so CI's ThreadSanitizer job picks it up.

#include <gtest/gtest.h>

#include <future>
#include <tuple>
#include <vector>

#include "../core/test_index.h"
#include "core/filtering_evaluator.h"
#include "fault/backoff.h"
#include "serve/concurrent_buffer_pool.h"
#include "serve/query_server.h"
#include "shard/index_sharder.h"
#include "shard/sharded_engine.h"

namespace irbuf {
namespace {

using core::MakeRandomCollection;
using core::TestCollection;

TEST(ShardedStressTest, EightWorkersFourShardsThousandQueries) {
  constexpr size_t kWorkers = 8;
  constexpr size_t kShards = 4;
  constexpr size_t kQueries = 1000;
  constexpr uint32_t kPageSize = 4;

  TestCollection tc = MakeRandomCollection(71, 200, 12, kPageSize);

  // A small distinct query mix; expected rankings precomputed with the
  // sequential evaluator (DF ranking is buffer-state independent, so
  // every concurrent interleaving must reproduce them exactly).
  Pcg32 rng(9001);
  std::vector<core::Query> mix;
  std::vector<std::vector<core::ScoredDoc>> expected;
  {
    core::EvalOptions eval;
    core::FilteringEvaluator reference(&tc.index, eval);
    for (size_t i = 0; i < 20; ++i) {
      core::Query q;
      for (TermId t : SampleDistinct(12, 2 + rng.NextBounded(3), &rng)) {
        q.AddTerm(t, 1 + rng.NextBounded(2));
      }
      serve::ConcurrentBufferPool pool(&tc.index.disk(),
                                       serve::PoolOptions(16));
      auto result = reference.Evaluate(q, &pool);
      ASSERT_TRUE(result.ok());
      expected.push_back(std::move(result.value().top_docs));
      mix.push_back(std::move(q));
    }
  }

  shard::ShardOptions sharding;
  sharding.num_shards = kShards;
  sharding.page_size = kPageSize;
  auto sharded = shard::ShardIndex(tc.index, sharding);
  ASSERT_TRUE(sharded.ok());

  shard::ShardedEngineOptions engine_options;
  engine_options.pool.total_pages = 64;
  engine_options.pool.policy = buffer::PolicyKind::kRap;
  engine_options.lanes_per_shard = kWorkers;
  engine_options.shared_context = true;
  shard::ShardedEngine engine(&sharded.value(), engine_options);

  serve::ServerOptions server_options;
  server_options.num_threads = kWorkers;
  server_options.queue_depth = kQueries;
  server_options.engine = &engine;
  serve::QueryServer server(&tc.index, server_options);
  server.Start();

  std::vector<std::future<Result<serve::QueryResponse>>> futures;
  std::vector<size_t> which;
  futures.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    const size_t q = i % mix.size();
    auto submitted = server.Submit(1 + (i % kWorkers), mix[q]);
    ASSERT_TRUE(submitted.ok()) << submitted.status().message();
    futures.push_back(std::move(submitted.value()));
    which.push_back(q);
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status().message();
    EXPECT_EQ(response.value().annotation, StatusCode::kOk);
    const std::vector<core::ScoredDoc>& got =
        response.value().eval.top_docs;
    const std::vector<core::ScoredDoc>& want = expected[which[i]];
    ASSERT_EQ(got.size(), want.size()) << "query " << i;
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r].doc, want[r].doc) << "query " << i << " rank " << r;
      EXPECT_EQ(got[r].score, want[r].score)
          << "query " << i << " rank " << r;
    }
  }
  server.Stop();

  const serve::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.submitted, kQueries);
  EXPECT_EQ(stats.completed, kQueries);
  EXPECT_EQ(stats.failed, 0u);

  // Aggregate conservation across the shard pools.
  const buffer::BufferStats pool_stats = server.PoolStatsSnapshot();
  EXPECT_EQ(pool_stats.fetches, pool_stats.hits + pool_stats.misses);
  EXPECT_GT(pool_stats.fetches, 0u);
}

// Same workload with per-shard readahead at depth 8: the async miss
// pipeline (coalescing FSM, prefetch workers, window reclaim) under
// 8 server workers x 4 shard pools, with the rankings still exact (DF
// ranking is buffer-state independent, so readahead must be invisible)
// and device-read conservation holding per shard.
TEST(ShardedStressTest, PrefetchDepth8KeepsRankingsExactAcrossShards) {
  constexpr size_t kWorkers = 8;
  constexpr size_t kShards = 4;
  constexpr size_t kQueries = 1000;
  constexpr uint32_t kPageSize = 4;

  TestCollection tc = MakeRandomCollection(71, 200, 12, kPageSize);

  Pcg32 rng(9001);
  std::vector<core::Query> mix;
  std::vector<std::vector<core::ScoredDoc>> expected;
  {
    core::EvalOptions eval;
    core::FilteringEvaluator reference(&tc.index, eval);
    for (size_t i = 0; i < 20; ++i) {
      core::Query q;
      for (TermId t : SampleDistinct(12, 2 + rng.NextBounded(3), &rng)) {
        q.AddTerm(t, 1 + rng.NextBounded(2));
      }
      serve::ConcurrentBufferPool pool(&tc.index.disk(),
                                       serve::PoolOptions(16));
      auto result = reference.Evaluate(q, &pool);
      ASSERT_TRUE(result.ok());
      expected.push_back(std::move(result.value().top_docs));
      mix.push_back(std::move(q));
    }
  }

  shard::ShardOptions sharding;
  sharding.num_shards = kShards;
  sharding.page_size = kPageSize;
  auto sharded = shard::ShardIndex(tc.index, sharding);
  ASSERT_TRUE(sharded.ok());

  shard::ShardedEngineOptions engine_options;
  engine_options.pool.total_pages = 64;
  engine_options.pool.policy = buffer::PolicyKind::kRap;
  engine_options.pool.prefetch_depth = 8;
  engine_options.lanes_per_shard = kWorkers;
  engine_options.shared_context = true;
  shard::ShardedEngine engine(&sharded.value(), engine_options);

  serve::ServerOptions server_options;
  server_options.num_threads = kWorkers;
  server_options.queue_depth = kQueries;
  server_options.engine = &engine;
  serve::QueryServer server(&tc.index, server_options);
  server.Start();

  std::vector<std::future<Result<serve::QueryResponse>>> futures;
  std::vector<size_t> which;
  futures.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    const size_t q = i % mix.size();
    auto submitted = server.Submit(1 + (i % kWorkers), mix[q]);
    ASSERT_TRUE(submitted.ok()) << submitted.status().message();
    futures.push_back(std::move(submitted.value()));
    which.push_back(q);
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status().message();
    EXPECT_EQ(response.value().annotation, StatusCode::kOk);
    const std::vector<core::ScoredDoc>& got =
        response.value().eval.top_docs;
    const std::vector<core::ScoredDoc>& want = expected[which[i]];
    ASSERT_EQ(got.size(), want.size()) << "query " << i;
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r].doc, want[r].doc) << "query " << i << " rank " << r;
      EXPECT_EQ(got[r].score, want[r].score)
          << "query " << i << " rank " << r;
    }
  }
  server.Stop();

  const serve::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.completed, kQueries);
  EXPECT_EQ(stats.failed, 0u);

  // Per-shard device-read conservation: demand misses plus successful
  // readaheads account for every read each shard pool issued. Readahead
  // runs on background workers, so poll until the counters go quiet
  // (Stop() joined the server workers, not the prefetch workers).
  auto totals = [&] {
    uint64_t misses = 0, issued = 0, device = 0;
    for (size_t s = 0; s < kShards; ++s) {
      const serve::ConcurrentBufferPool* pool =
          engine.mutable_pool()->shard(s);
      const serve::PoolPrefetchStats ps = pool->PrefetchStatsSnapshot();
      misses += pool->StatsSnapshot().misses;
      issued += ps.issued;
      device += ps.device_reads;
    }
    return std::tuple<uint64_t, uint64_t, uint64_t>(misses, issued, device);
  };
  auto [misses, issued, device] = totals();
  for (int i = 0; i < 100 && misses + issued != device; ++i) {
    fault::SleepUs(20000);
    std::tie(misses, issued, device) = totals();
  }
  EXPECT_EQ(misses + issued, device);
  EXPECT_GT(device, 0u);
}

}  // namespace
}  // namespace irbuf
