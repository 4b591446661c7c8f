#include "serve/query_server.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "../core/test_index.h"
#include "ir/ir_system.h"
#include "ir/multi_user.h"
#include "workload/refinement.h"

namespace irbuf::serve {
namespace {

class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tc_.emplace(core::MakeRandomCollection(123, 500, 18, 4));
  }

  core::Query MakeQuery(const std::vector<TermId>& terms) {
    core::Query q;
    for (TermId t : terms) q.AddTerm(t);
    return q;
  }

  /// A short stream of overlapping queries (refinement-style growth).
  std::vector<core::Query> QueryStream() {
    return {
        MakeQuery({0, 1, 2}),        MakeQuery({0, 1, 2, 3}),
        MakeQuery({4, 5, 6}),        MakeQuery({0, 1, 2, 3, 7}),
        MakeQuery({4, 5, 6, 8, 9}),  MakeQuery({10, 11}),
        MakeQuery({0, 2, 7, 10}),    MakeQuery({12, 13, 14, 15}),
    };
  }

  std::optional<core::TestCollection> tc_;
};

/// The tentpole equivalence: a 1-thread server answers exactly what the
/// single-user IrSystem facade answers, query for query — same ranked
/// docs, same scores, same per-query I/O attribution.
void ExpectMatchesIrSystem(const core::TestCollection& tc,
                           buffer::PolicyKind policy, bool buffer_aware,
                           bool shared_context,
                           const std::vector<core::Query>& queries) {
  ir::IrSystemOptions sys_opts;
  sys_opts.buffer_pages = 16;
  sys_opts.policy = policy;
  sys_opts.eval.buffer_aware = buffer_aware;
  ir::IrSystem system(&tc.index, sys_opts);

  ServerOptions srv_opts;
  srv_opts.num_threads = 1;
  srv_opts.buffer_pages = 16;
  srv_opts.policy = policy;
  srv_opts.eval.buffer_aware = buffer_aware;
  srv_opts.shared_context = shared_context;
  QueryServer server(&tc.index, srv_opts);
  server.Start();

  for (size_t i = 0; i < queries.size(); ++i) {
    auto expected = system.Search(queries[i]);
    auto served = server.Execute(1, queries[i]);
    ASSERT_TRUE(expected.ok()) << "query " << i;
    ASSERT_TRUE(served.ok()) << "query " << i;
    EXPECT_EQ(served.value().eval.top_docs, expected.value().top_docs)
        << "query " << i;
    EXPECT_EQ(served.value().eval.disk_reads, expected.value().disk_reads)
        << "query " << i;
    EXPECT_EQ(served.value().eval.pages_processed,
              expected.value().pages_processed)
        << "query " << i;
  }

  const buffer::BufferStats direct = system.buffers().StatsSnapshot();
  const buffer::BufferStats pooled = server.PoolStatsSnapshot();
  EXPECT_EQ(direct.fetches, pooled.fetches);
  EXPECT_EQ(direct.hits, pooled.hits);
  EXPECT_EQ(direct.misses, pooled.misses);
  EXPECT_EQ(direct.evictions, pooled.evictions);
}

TEST_F(QueryServerTest, OneThreadMatchesIrSystemDfLru) {
  ExpectMatchesIrSystem(*tc_, buffer::PolicyKind::kLru, false, false,
                        QueryStream());
}

TEST_F(QueryServerTest, OneThreadMatchesIrSystemBafLru) {
  ExpectMatchesIrSystem(*tc_, buffer::PolicyKind::kLru, true, false,
                        QueryStream());
}

TEST_F(QueryServerTest, OneThreadMatchesIrSystemDfRap) {
  ExpectMatchesIrSystem(*tc_, buffer::PolicyKind::kRap, false, false,
                        QueryStream());
}

TEST_F(QueryServerTest, OneThreadMatchesIrSystemBafRapSharedContext) {
  // With one query in flight the merged shared context degenerates to
  // that query's own weights, so even shared-context mode must
  // reproduce the single-user answers exactly.
  ExpectMatchesIrSystem(*tc_, buffer::PolicyKind::kRap, true, true,
                        QueryStream());
}

TEST_F(QueryServerTest, OneThreadRoundRobinMatchesMultiUserWorkload) {
  // ir::RunMultiUserWorkload is the 1-thread special case of the server:
  // submitting the same user/step interleave to a 1-thread server must
  // reproduce its per-user I/O accounting.
  std::vector<workload::RefinementSequence> sequences;
  for (const auto& terms : std::vector<std::vector<TermId>>{
           {0, 1, 2, 3, 4, 5, 6, 7, 8},
           {4, 5, 6, 7, 8, 9, 10, 11, 12},
           {13, 14, 15, 16, 17}}) {
    core::Query q;
    for (TermId t : terms) q.AddTerm(t);
    auto seq = workload::BuildRefinementSequence(
        "user", q, tc_->index, workload::RefinementKind::kAddOnly);
    ASSERT_TRUE(seq.ok());
    sequences.push_back(std::move(seq).value());
  }

  ir::MultiUserOptions mu;
  mu.buffer_pages = 16;
  mu.policy = buffer::PolicyKind::kLru;
  auto reference = ir::RunMultiUserWorkload(tc_->index, sequences, mu);
  ASSERT_TRUE(reference.ok());

  ServerOptions srv_opts;
  srv_opts.num_threads = 1;
  srv_opts.buffer_pages = 16;
  srv_opts.policy = buffer::PolicyKind::kLru;
  srv_opts.eval.top_n = mu.top_n;
  srv_opts.eval.record_trace = false;
  QueryServer server(&tc_->index, srv_opts);
  server.Start();

  size_t max_steps = 0;
  for (const auto& seq : sequences) {
    max_steps = std::max(max_steps, seq.steps.size());
  }
  for (size_t step = 0; step < max_steps; ++step) {
    for (size_t user = 0; user < sequences.size(); ++user) {
      if (step >= sequences[user].steps.size()) continue;
      auto response = server.Execute(user, sequences[user].steps[step].query);
      ASSERT_TRUE(response.ok());
    }
  }

  for (size_t user = 0; user < sequences.size(); ++user) {
    const SessionStats session = server.SessionSnapshot(user);
    EXPECT_EQ(session.queries, reference.value().users[user].steps_run)
        << "user " << user;
    EXPECT_EQ(session.disk_reads, reference.value().users[user].disk_reads)
        << "user " << user;
    EXPECT_EQ(session.pages_processed,
              reference.value().users[user].pages_processed)
        << "user " << user;
  }
  const buffer::BufferStats pooled = server.PoolStatsSnapshot();
  EXPECT_EQ(pooled.fetches, reference.value().total_fetches);
  EXPECT_EQ(pooled.hits, reference.value().total_hits);
}

TEST_F(QueryServerTest, AdmissionQueueRejectsWhenFull) {
  ServerOptions opts;
  opts.num_threads = 2;
  opts.queue_depth = 2;
  opts.buffer_pages = 16;
  QueryServer server(&tc_->index, opts);
  // Not started: submissions stack up deterministically.
  auto a = server.Submit(1, MakeQuery({0, 1}));
  auto b = server.Submit(2, MakeQuery({2, 3}));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(server.QueueDepth(), 2u);

  auto c = server.Submit(3, MakeQuery({4, 5}));
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.StatsSnapshot().rejected, 1u);

  // Once workers drain the queue, the backlog clears and admissions
  // succeed again.
  server.Start();
  ASSERT_TRUE(a.value().get().ok());
  ASSERT_TRUE(b.value().get().ok());
  auto d = server.Execute(3, MakeQuery({4, 5}));
  ASSERT_TRUE(d.ok());
  const ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(QueryServerTest, StopFailsPendingAndRefusesNewWork) {
  ServerOptions opts;
  opts.num_threads = 1;
  opts.buffer_pages = 16;
  QueryServer server(&tc_->index, opts);
  auto pending = server.Submit(1, MakeQuery({0, 1}));
  ASSERT_TRUE(pending.ok());
  server.Stop();  // Never started: the queued query is orphaned.

  Result<QueryResponse> outcome = pending.value().get();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);

  auto refused = server.Submit(2, MakeQuery({2, 3}));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(QueryServerTest, SessionAccountingSeparatesUsers) {
  ServerOptions opts;
  opts.num_threads = 1;
  opts.buffer_pages = 32;
  QueryServer server(&tc_->index, opts);
  server.Start();

  auto r1 = server.Execute(7, MakeQuery({0, 1, 2}));
  auto r2 = server.Execute(9, MakeQuery({3, 4}));
  auto r3 = server.Execute(7, MakeQuery({0, 1, 2, 5}));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r1.value().session_step, 1u);
  EXPECT_EQ(r3.value().session_step, 2u);

  const SessionStats s7 = server.SessionSnapshot(7);
  const SessionStats s9 = server.SessionSnapshot(9);
  EXPECT_EQ(s7.queries, 2u);
  EXPECT_EQ(s9.queries, 1u);
  EXPECT_EQ(s7.disk_reads,
            r1.value().eval.disk_reads + r3.value().eval.disk_reads);
  EXPECT_EQ(server.SessionSnapshot(42).queries, 0u);  // Unknown session.
}

TEST_F(QueryServerTest, ServedAnswersMatchBruteForceGroundTruth) {
  ServerOptions opts;
  opts.num_threads = 2;
  opts.buffer_pages = 64;
  // Safe evaluation: no filtering, exact cosine ranking.
  opts.eval.c_ins = 0.0;
  opts.eval.c_add = 0.0;
  opts.eval.top_n = 10;
  QueryServer server(&tc_->index, opts);
  server.Start();

  core::Query q = MakeQuery({0, 1, 2, 3});
  auto served = server.Execute(1, q);
  ASSERT_TRUE(served.ok());
  std::vector<core::ScoredDoc> expected =
      core::BruteForceRanking(*tc_, q, 10);
  ASSERT_EQ(served.value().eval.top_docs.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(served.value().eval.top_docs[i].doc, expected[i].doc);
    EXPECT_NEAR(served.value().eval.top_docs[i].score, expected[i].score,
                1e-9);
  }
}

TEST_F(QueryServerTest, BindMetricsExportsServeInstruments) {
  obs::MetricsRegistry registry;
  ServerOptions opts;
  opts.num_threads = 1;
  opts.buffer_pages = 16;
  QueryServer server(&tc_->index, opts);
  server.BindMetrics(&registry);
  server.Start();
  ASSERT_TRUE(server.Execute(1, MakeQuery({0, 1, 2})).ok());
  server.Stop();

  ASSERT_TRUE(registry.CounterValue("serve.submitted").has_value());
  EXPECT_EQ(registry.CounterValue("serve.submitted"), 1u);
  EXPECT_EQ(registry.CounterValue("serve.completed"), 1u);
  const obs::Histogram* latency = registry.FindHistogram("serve.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 1u);
  // The JSON telemetry carries the percentile satellite.
  EXPECT_NE(registry.ToJson().find("\"p99\""), std::string::npos);
}

}  // namespace
}  // namespace irbuf::serve
