// Golden differential tests for the evaluation hot path: every
// (evaluator x replacement-policy) combination is run over the seeded
// WSJ-calibrated corpus and folded into a digest that covers the ranked
// answers bit-for-bit (doc ids and the raw IEEE-754 bits of every
// score) plus the paper's telemetry (accumulator counts, postings
// processed, disk reads, pages processed).
//
// The expected digests below were recorded from the tree BEFORE the
// block-decode / open-addressing rewrite of the hot path (the scalar
// VByte + std::unordered_map implementation). They pin the rewrite to
// byte-identical ranking output and identical telemetry: any change to
// evaluation semantics — a float accumulated in a different order, an
// accumulator admitted under a different threshold, a posting counted
// differently — shows up as a digest mismatch.
//
// To regenerate after an INTENTIONAL semantic change (none are expected;
// think hard before touching these), run with IRBUF_GOLDEN_PRINT=1 and
// paste the printed table.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "buffer/policy_factory.h"
#include "core/boolean_evaluator.h"
#include "core/filtering_evaluator.h"
#include "core/quit_continue_evaluator.h"
#include "corpus/synthetic_corpus.h"
#include "serve/concurrent_buffer_pool.h"

namespace irbuf {
namespace {

// One shared corpus for the whole file: deterministic in (seed, scale).
const corpus::SyntheticCorpus& GoldenCorpus() {
  static const corpus::SyntheticCorpus* corpus = [] {
    corpus::CorpusOptions options;
    options.scale = 0.01;
    options.num_random_topics = 8;
    auto result = corpus::GenerateSyntheticCorpus(options);
    if (!result.ok()) std::abort();
    return result.value().release();
  }();
  return *corpus;
}

// FNV-1a over 64-bit words: simple, stable across platforms.
uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}

uint64_t MixDouble(uint64_t h, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix(h, bits);
}

constexpr uint64_t kFnvSeed = 0xCBF29CE484222325ull;

const buffer::PolicyKind kPolicies[] = {
    buffer::PolicyKind::kLru, buffer::PolicyKind::kRap,
    buffer::PolicyKind::kFifo, buffer::PolicyKind::kClock};

constexpr size_t kPoolPages = 32;

uint64_t FilteringDigest(bool buffer_aware, buffer::PolicyKind policy) {
  const corpus::SyntheticCorpus& corpus = GoldenCorpus();
  serve::ConcurrentBufferPool pool(&corpus.index().disk(),
                                   serve::PoolOptions(kPoolPages, policy));
  core::EvalOptions options;
  options.buffer_aware = buffer_aware;
  options.top_n = 20;
  core::FilteringEvaluator evaluator(&corpus.index(), options);
  uint64_t h = kFnvSeed;
  for (const corpus::Topic& topic : corpus.topics()) {
    auto result = evaluator.Evaluate(topic.query, &pool);
    if (!result.ok()) std::abort();
    const core::EvalResult& r = result.value();
    for (const core::ScoredDoc& sd : r.top_docs) {
      h = Mix(h, sd.doc);
      h = MixDouble(h, sd.score);
    }
    h = Mix(h, r.accumulators);
    h = Mix(h, r.postings_processed);
    h = Mix(h, r.disk_reads);
    h = Mix(h, r.pages_processed);
    h = Mix(h, r.terms_skipped);
  }
  return h;
}

uint64_t BooleanDigest(buffer::PolicyKind policy) {
  const corpus::SyntheticCorpus& corpus = GoldenCorpus();
  serve::ConcurrentBufferPool pool(&corpus.index().disk(),
                                   serve::PoolOptions(kPoolPages, policy));
  core::BooleanEvaluator evaluator(&corpus.index());
  uint64_t h = kFnvSeed;
  for (const corpus::Topic& topic : corpus.topics()) {
    for (core::BooleanOp op :
         {core::BooleanOp::kAnd, core::BooleanOp::kOr}) {
      auto result = evaluator.Evaluate(topic.query, op, &pool);
      if (!result.ok()) std::abort();
      const core::BooleanResult& r = result.value();
      for (DocId d : r.docs) h = Mix(h, d);
      h = Mix(h, r.docs.size());
      h = Mix(h, r.postings_processed);
      h = Mix(h, r.disk_reads);
    }
  }
  return h;
}

uint64_t QuitContinueDigest(core::LimitMode mode,
                            buffer::PolicyKind policy) {
  const corpus::SyntheticCorpus& corpus = GoldenCorpus();
  serve::ConcurrentBufferPool pool(&corpus.index().disk(),
                                   serve::PoolOptions(kPoolPages, policy));
  core::QuitContinueOptions options;
  options.mode = mode;
  options.accumulator_limit = 200;
  options.top_n = 20;
  core::QuitContinueEvaluator evaluator(&corpus.index(), options);
  uint64_t h = kFnvSeed;
  for (const corpus::Topic& topic : corpus.topics()) {
    auto result = evaluator.Evaluate(topic.query, &pool);
    if (!result.ok()) std::abort();
    const core::EvalResult& r = result.value();
    for (const core::ScoredDoc& sd : r.top_docs) {
      h = Mix(h, sd.doc);
      h = MixDouble(h, sd.score);
    }
    h = Mix(h, r.accumulators);
    h = Mix(h, r.postings_processed);
  }
  return h;
}

struct GoldenEntry {
  const char* name;
  uint64_t digest;
};

// --- Recorded from the pre-rewrite (scalar VByte + unordered_map)
// implementation; see the file comment. ---
const GoldenEntry kGolden[] = {
    {"DF/LRU", 0xbf868283ac1e963full},
    {"DF/RAP", 0x71aca84db928d232ull},
    {"DF/FIFO", 0xbf868283ac1e963full},
    {"DF/CLOCK", 0xbf868283ac1e963full},
    {"BAF/LRU", 0xc7af5d28eed1e03eull},
    {"BAF/RAP", 0xf4cb9ed1b90d2139ull},
    {"BAF/FIFO", 0xc7af5d28eed1e03eull},
    {"BAF/CLOCK", 0xc7af5d28eed1e03eull},
    {"BOOL/LRU", 0xcce3e89bcca73446ull},
    {"BOOL/RAP", 0x0b74c6a224e26296ull},
    {"BOOL/FIFO", 0x639e5baa79ae948full},
    {"BOOL/CLOCK", 0x639e5baa79ae948full},
    {"QUIT/lru", 0xc6b05343f84848c8ull},
    {"CONTINUE/lru", 0x1177ee41d22af572ull},
};

uint64_t Lookup(const char* name) {
  for (const GoldenEntry& e : kGolden) {
    if (std::strcmp(e.name, name) == 0) return e.digest;
  }
  ADD_FAILURE() << "no golden entry named " << name;
  return 0;
}

bool PrintMode() {
  return std::getenv("IRBUF_GOLDEN_PRINT") != nullptr;
}

void CheckOrPrint(const std::string& name, uint64_t got) {
  if (PrintMode()) {
    std::printf("    {\"%s\", 0x%016llxull},\n", name.c_str(),
                static_cast<unsigned long long>(got));
    return;
  }
  EXPECT_EQ(got, Lookup(name.c_str()))
      << name << ": hot-path output diverged from the pre-rewrite "
      << "implementation (actual digest 0x" << std::hex << got << ")";
}

TEST(HotpathGoldenTest, DfBitIdenticalAcrossPolicies) {
  for (buffer::PolicyKind policy : kPolicies) {
    CheckOrPrint(std::string("DF/") + buffer::PolicyKindName(policy),
                 FilteringDigest(/*buffer_aware=*/false, policy));
  }
}

TEST(HotpathGoldenTest, BafBitIdenticalAcrossPolicies) {
  for (buffer::PolicyKind policy : kPolicies) {
    CheckOrPrint(std::string("BAF/") + buffer::PolicyKindName(policy),
                 FilteringDigest(/*buffer_aware=*/true, policy));
  }
}

TEST(HotpathGoldenTest, BooleanBitIdenticalAcrossPolicies) {
  for (buffer::PolicyKind policy : kPolicies) {
    CheckOrPrint(std::string("BOOL/") + buffer::PolicyKindName(policy),
                 BooleanDigest(policy));
  }
}

TEST(HotpathGoldenTest, QuitContinueBitIdentical) {
  CheckOrPrint("QUIT/lru",
               QuitContinueDigest(core::LimitMode::kQuit,
                                  buffer::PolicyKind::kLru));
  CheckOrPrint("CONTINUE/lru",
               QuitContinueDigest(core::LimitMode::kContinue,
                                  buffer::PolicyKind::kLru));
}

}  // namespace
}  // namespace irbuf
