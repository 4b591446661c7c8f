// Golden differentials for the scatter-gather engine: the sharded
// ranking must equal the unsharded evaluator's BIT FOR BIT (exact
// double equality, not tolerance), across {DF warm sequences, BAF cold
// queries} x {LRU, RAP, FIFO, CLOCK} x shard counts — and at shards=1
// the whole QueryServer response (counters and trace included) must be
// byte-identical to the legacy single-pool serving path.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "../core/test_index.h"
#include "core/filtering_evaluator.h"
#include "serve/query_server.h"
#include "shard/index_sharder.h"
#include "shard/sharded_engine.h"

namespace irbuf {
namespace {

using core::MakeRandomCollection;
using core::TestCollection;

constexpr uint32_t kPageSize = 4;
constexpr buffer::PolicyKind kPolicies[] = {
    buffer::PolicyKind::kLru, buffer::PolicyKind::kRap,
    buffer::PolicyKind::kFifo, buffer::PolicyKind::kClock};

// A deterministic refinement-ish sequence of multi-term queries.
std::vector<core::Query> MakeQueries(const TestCollection& tc, uint64_t seed,
                                     size_t count) {
  Pcg32 rng(seed);
  const uint32_t num_terms =
      static_cast<uint32_t>(tc.index.lexicon().size());
  std::vector<core::Query> queries;
  for (size_t i = 0; i < count; ++i) {
    core::Query q;
    const uint32_t width = 2 + rng.NextBounded(3);
    for (TermId t : SampleDistinct(num_terms, width, &rng)) {
      q.AddTerm(t, 1 + rng.NextBounded(2));
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

void ExpectBitIdentical(const std::vector<core::ScoredDoc>& sharded,
                        const std::vector<core::ScoredDoc>& reference,
                        const std::string& what) {
  ASSERT_EQ(sharded.size(), reference.size()) << what;
  for (size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_EQ(sharded[i].doc, reference[i].doc) << what << " rank " << i;
    // Exact FP equality — the whole point of the barrier design.
    EXPECT_EQ(sharded[i].score, reference[i].score) << what << " rank " << i;
  }
}

// FNV-1a digests of the unsharded reference rankings (doc ids and the
// raw bits of every score), recorded from the single-threaded buffer
// manager the reference pool replaced. They pin the reference itself, so
// a change in the unsharded path cannot move both sides of a comparison
// together. DF and BAF rankings do not depend on the replacement policy,
// so every policy shares one digest.
constexpr uint64_t kDfWarmDigest = 0xB17D18264A333556ull;
constexpr uint64_t kBafColdDigest = 0x0A1EECBD42547DFCull;
constexpr uint64_t kSharedRapDigest = 0x5A19F0E47CD917A1ull;

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}

constexpr uint64_t kFnvSeed = 0xCBF29CE484222325ull;

uint64_t FoldRanking(uint64_t h, const std::vector<core::ScoredDoc>& docs) {
  for (const core::ScoredDoc& sd : docs) {
    h = Fnv(h, sd.doc);
    uint64_t bits;
    std::memcpy(&bits, &sd.score, sizeof(bits));
    h = Fnv(h, bits);
  }
  return Fnv(h, docs.size());
}

shard::ShardedEngineOptions EngineOptions(buffer::PolicyKind policy,
                                          bool buffer_aware) {
  shard::ShardedEngineOptions options;
  options.eval.buffer_aware = buffer_aware;
  options.pool.total_pages = 16;
  options.pool.policy = policy;
  return options;
}

// ---- DF: warm sequences, every policy, several shard counts. ----

TEST(ShardedGoldenTest, DfWarmSequencesMatchUnshardedBitForBit) {
  TestCollection tc = MakeRandomCollection(31, 160, 12, kPageSize);
  const std::vector<core::Query> queries = MakeQueries(tc, 77, 6);
  core::EvalOptions eval;  // DF

  for (buffer::PolicyKind policy : kPolicies) {
    // Unsharded reference: one pool warmed across the whole sequence.
    serve::ConcurrentBufferPool reference_pool(
        &tc.index.disk(), serve::PoolOptions(16, policy));
    core::FilteringEvaluator reference(&tc.index, eval);
    std::vector<std::vector<core::ScoredDoc>> expected;
    uint64_t digest = kFnvSeed;
    for (const core::Query& q : queries) {
      auto result = reference.Evaluate(q, &reference_pool);
      ASSERT_TRUE(result.ok());
      digest = FoldRanking(digest, result.value().top_docs);
      expected.push_back(std::move(result.value().top_docs));
    }
    EXPECT_EQ(digest, kDfWarmDigest) << buffer::PolicyKindName(policy);

    for (size_t num_shards : {1u, 2u, 3u, 4u}) {
      shard::ShardOptions sharding;
      sharding.num_shards = num_shards;
      sharding.page_size = kPageSize;
      auto sharded = shard::ShardIndex(tc.index, sharding);
      ASSERT_TRUE(sharded.ok());
      shard::ShardedEngine engine(&sharded.value(),
                                  EngineOptions(policy, false));
      for (size_t i = 0; i < queries.size(); ++i) {
        auto result = engine.Evaluate(queries[i], nullptr, 0);
        ASSERT_TRUE(result.ok());
        ExpectBitIdentical(
            result.value().top_docs, expected[i],
            "DF policy " + std::to_string(static_cast<int>(policy)) +
                " shards " + std::to_string(num_shards) + " query " +
                std::to_string(i));
      }
    }
  }
}

// ---- BAF: cold single queries, every policy. Both paths see b_t = 0
// for every unprocessed term throughout, so the buffer-aware order (and
// hence everything downstream) coincides. ----

TEST(ShardedGoldenTest, BafColdQueriesMatchUnshardedBitForBit) {
  TestCollection tc = MakeRandomCollection(37, 140, 10, kPageSize);
  const std::vector<core::Query> queries = MakeQueries(tc, 101, 5);
  core::EvalOptions eval;
  eval.buffer_aware = true;

  for (buffer::PolicyKind policy : kPolicies) {
    // Fresh pools on both sides: the cold-start contract.
    std::vector<std::vector<core::ScoredDoc>> expected;
    uint64_t digest = kFnvSeed;
    for (const core::Query& q : queries) {
      serve::ConcurrentBufferPool reference_pool(
          &tc.index.disk(), serve::PoolOptions(16, policy));
      core::FilteringEvaluator reference(&tc.index, eval);
      auto result = reference.Evaluate(q, &reference_pool);
      ASSERT_TRUE(result.ok());
      digest = FoldRanking(digest, result.value().top_docs);
      expected.push_back(std::move(result.value().top_docs));
    }
    EXPECT_EQ(digest, kBafColdDigest) << buffer::PolicyKindName(policy);

    for (size_t num_shards : {1u, 2u, 4u}) {
      shard::ShardOptions sharding;
      sharding.num_shards = num_shards;
      sharding.page_size = kPageSize;
      auto sharded = shard::ShardIndex(tc.index, sharding);
      ASSERT_TRUE(sharded.ok());
      for (size_t i = 0; i < queries.size(); ++i) {
        shard::ShardedEngine engine(&sharded.value(),
                                    EngineOptions(policy, true));
        auto result = engine.Evaluate(queries[i], nullptr, 0);
        ASSERT_TRUE(result.ok());
        ExpectBitIdentical(
            result.value().top_docs, expected[i],
            "BAF policy " + std::to_string(static_cast<int>(policy)) +
                " shards " + std::to_string(num_shards) + " query " +
                std::to_string(i));
      }
    }
  }
}

// ---- Shared-context RAP: per-shard SharedQueryContext snapshots must
// not change the (DF) ranking either. ----

TEST(ShardedGoldenTest, SharedContextDfStillMatches) {
  TestCollection tc = MakeRandomCollection(41, 120, 10, kPageSize);
  const std::vector<core::Query> queries = MakeQueries(tc, 55, 4);
  core::EvalOptions eval;

  serve::ConcurrentBufferPool reference_pool(
      &tc.index.disk(), serve::PoolOptions(16, buffer::PolicyKind::kRap));
  core::FilteringEvaluator reference(&tc.index, eval);

  shard::ShardOptions sharding;
  sharding.num_shards = 4;
  sharding.page_size = kPageSize;
  auto sharded = shard::ShardIndex(tc.index, sharding);
  ASSERT_TRUE(sharded.ok());
  shard::ShardedEngineOptions options =
      EngineOptions(buffer::PolicyKind::kRap, false);
  options.shared_context = true;
  options.lanes_per_shard = 2;
  shard::ShardedEngine engine(&sharded.value(), options);

  uint64_t digest = kFnvSeed;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto expected = reference.Evaluate(queries[i], &reference_pool);
    auto result = engine.Evaluate(queries[i], nullptr, 0);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(result.ok());
    digest = FoldRanking(digest, expected.value().top_docs);
    ExpectBitIdentical(result.value().top_docs, expected.value().top_docs,
                       "shared-context query " + std::to_string(i));
  }
  EXPECT_EQ(digest, kSharedRapDigest);
}

// ---- shards=1 through the server: the engine-routed QueryServer must
// reproduce the legacy single-pool path byte for byte — ranking,
// counters and the per-term trace. ----

TEST(ShardedGoldenTest, SingleShardServerResponseByteIdenticalToLegacy) {
  TestCollection tc = MakeRandomCollection(43, 150, 10, kPageSize);
  const std::vector<core::Query> queries = MakeQueries(tc, 203, 8);

  serve::ServerOptions legacy;
  legacy.num_threads = 1;
  legacy.buffer_pages = 16;
  legacy.policy = buffer::PolicyKind::kRap;
  serve::QueryServer legacy_server(&tc.index, legacy);
  legacy_server.Start();

  shard::ShardOptions sharding;
  sharding.num_shards = 1;
  sharding.page_size = kPageSize;  // Source page size: byte-identical shard.
  auto sharded = shard::ShardIndex(tc.index, sharding);
  ASSERT_TRUE(sharded.ok());
  shard::ShardedEngineOptions engine_options =
      EngineOptions(buffer::PolicyKind::kRap, false);
  shard::ShardedEngine engine(&sharded.value(), engine_options);

  serve::ServerOptions routed;
  routed.num_threads = 1;
  routed.engine = &engine;
  serve::QueryServer routed_server(&tc.index, routed);
  routed_server.Start();

  for (size_t i = 0; i < queries.size(); ++i) {
    auto legacy_response = legacy_server.Execute(1, queries[i]);
    auto routed_response = routed_server.Execute(1, queries[i]);
    ASSERT_TRUE(legacy_response.ok());
    ASSERT_TRUE(routed_response.ok());
    const core::EvalResult& want = legacy_response.value().eval;
    const core::EvalResult& got = routed_response.value().eval;

    ExpectBitIdentical(got.top_docs, want.top_docs,
                       "server query " + std::to_string(i));
    EXPECT_EQ(got.disk_reads, want.disk_reads);
    EXPECT_EQ(got.pages_processed, want.pages_processed);
    EXPECT_EQ(got.postings_processed, want.postings_processed);
    EXPECT_EQ(got.accumulators, want.accumulators);
    EXPECT_EQ(got.terms_skipped, want.terms_skipped);
    EXPECT_EQ(got.degraded, want.degraded);
    EXPECT_EQ(got.deadline_hit, want.deadline_hit);
    EXPECT_EQ(got.quality_bound, want.quality_bound);
    ASSERT_EQ(got.trace.size(), want.trace.size());
    for (size_t j = 0; j < got.trace.size(); ++j) {
      EXPECT_EQ(got.trace[j].term, want.trace[j].term);
      EXPECT_EQ(got.trace[j].idf, want.trace[j].idf);
      EXPECT_EQ(got.trace[j].total_pages, want.trace[j].total_pages);
      EXPECT_EQ(got.trace[j].smax_before, want.trace[j].smax_before);
      EXPECT_EQ(got.trace[j].smax_after, want.trace[j].smax_after);
      EXPECT_EQ(got.trace[j].f_ins, want.trace[j].f_ins);
      EXPECT_EQ(got.trace[j].f_add, want.trace[j].f_add);
      EXPECT_EQ(got.trace[j].pages_processed, want.trace[j].pages_processed);
      EXPECT_EQ(got.trace[j].pages_read, want.trace[j].pages_read);
      EXPECT_EQ(got.trace[j].postings_processed,
                want.trace[j].postings_processed);
      EXPECT_EQ(got.trace[j].skipped, want.trace[j].skipped);
      EXPECT_EQ(got.trace[j].pages_lost, want.trace[j].pages_lost);
    }
  }

  // Identical decisions -> identical pool stats, shard prefix aside.
  const buffer::BufferStats legacy_stats =
      legacy_server.PoolStatsSnapshot();
  const buffer::BufferStats routed_stats =
      routed_server.PoolStatsSnapshot();
  EXPECT_EQ(routed_stats.fetches, legacy_stats.fetches);
  EXPECT_EQ(routed_stats.hits, legacy_stats.hits);
  EXPECT_EQ(routed_stats.misses, legacy_stats.misses);
  EXPECT_EQ(routed_stats.evictions, legacy_stats.evictions);
}

// ---- Multi-shard ranking still agrees with ground truth. ----

TEST(ShardedGoldenTest, ShardedRankingMatchesBruteForceOnLooseThresholds) {
  TestCollection tc = MakeRandomCollection(47, 100, 8, kPageSize);
  const std::vector<core::Query> queries = MakeQueries(tc, 19, 5);

  shard::ShardOptions sharding;
  sharding.num_shards = 4;
  sharding.page_size = kPageSize;
  auto sharded = shard::ShardIndex(tc.index, sharding);
  ASSERT_TRUE(sharded.ok());
  shard::ShardedEngineOptions options =
      EngineOptions(buffer::PolicyKind::kLru, false);
  // Thresholds off: the filtered evaluation degenerates to exact
  // cosine, so the merged answer must equal brute force exactly.
  options.eval.c_ins = 0.0;
  options.eval.c_add = 0.0;
  shard::ShardedEngine engine(&sharded.value(), options);

  for (const core::Query& q : queries) {
    auto result = engine.Evaluate(q, nullptr, 0);
    ASSERT_TRUE(result.ok());
    const std::vector<core::ScoredDoc> truth =
        BruteForceRanking(tc, q, options.eval.top_n);
    ASSERT_EQ(result.value().top_docs.size(), truth.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(result.value().top_docs[i].doc, truth[i].doc);
      EXPECT_NEAR(result.value().top_docs[i].score, truth[i].score, 1e-9);
    }
  }
}

}  // namespace
}  // namespace irbuf
