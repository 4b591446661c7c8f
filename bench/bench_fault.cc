// Resilience bench: what the fault layer costs when nothing fails, and
// what answers degrade to when things do.
//
// Two measurements across fault rates {0, 0.1%, 1%, 5%}:
//   1. Overhead: an ADD-ONLY refinement run with the resilience stack
//      enabled but fault-free must match the plain run's reads exactly
//      (bit-identical results are asserted in tests; here the claim is
//      the counters) and stay within noise on wall time.
//   2. Degradation curve: under mixed transient/bad-page/bit-flip
//      campaigns, disk reads, retries, pages lost and effectiveness as
//      a function of the fault rate — the graceful-degradation story in
//      numbers.
//
// Machine-readable output: bench_results/bench_fault.json.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/fault_injector.h"
#include "util/str.h"
#include "workload/refinement.h"

using namespace irbuf;

namespace {

/// A mixed campaign at overall rate `rate`: mostly transient errors,
/// with bad media and in-flight corruption at a quarter of the rate
/// each. Deterministic per rate (seed fixed).
fault::FaultSpec CampaignAt(double rate) {
  fault::FaultSpec spec;
  spec.seed = 7;
  if (rate > 0.0) {
    spec.rules.push_back({fault::FaultKind::kTransientRead, rate});
    spec.rules.push_back({fault::FaultKind::kPermanentBadPage, rate / 4});
    spec.rules.push_back({fault::FaultKind::kBitFlip, rate / 4});
  }
  return spec;
}

struct FaultRun {
  double rate = 0.0;
  std::string label;
  bool resilience = false;
  uint64_t disk_reads = 0;
  uint64_t injected = 0;
  uint64_t retries = 0;
  uint32_t degraded_steps = 0;
  uint64_t pages_lost = 0;
  double map = 0.0;
  double wall_ms = 0.0;
};

std::string FaultRunJson(const FaultRun& r) {
  return StrFormat(
      "{\"rate\":%g,\"label\":\"%s\",\"resilience\":%s,"
      "\"disk_reads\":%llu,\"faults_injected\":%llu,\"retries\":%llu,"
      "\"degraded_steps\":%u,\"pages_lost\":%llu,"
      "\"mean_avg_precision\":%.4f,\"wall_ms\":%.2f}",
      r.rate, r.label.c_str(), r.resilience ? "true" : "false",
      static_cast<unsigned long long>(r.disk_reads),
      static_cast<unsigned long long>(r.injected),
      static_cast<unsigned long long>(r.retries), r.degraded_steps,
      static_cast<unsigned long long>(r.pages_lost), r.map, r.wall_ms);
}

FaultRun RunOnce(const corpus::SyntheticCorpus& corpus,
                 const workload::RefinementSequence& sequence,
                 const std::vector<DocId>& relevant,
                 const bench::Combo& combo, size_t pages, double rate,
                 bool resilience) {
  FaultRun out;
  out.rate = rate;
  out.label = combo.label;
  out.resilience = resilience;

  const fault::FaultSpec spec = CampaignAt(rate);
  fault::FaultInjector injector(spec);
  if (!spec.rules.empty()) {
    corpus.index().disk().SetFaultInjector(&injector);
  }

  ir::SequenceRunOptions options = bench::ComboOptions(combo, pages);
  options.resilience.enabled = resilience;
  // The registry reports how many backoff retries the run absorbed;
  // binding it changes no counters or results.
  obs::MetricsRegistry registry;
  options.metrics = &registry;
  const auto start = std::chrono::steady_clock::now();
  auto result = ir::RunRefinementSequence(corpus.index(), sequence,
                                          relevant, options);
  const auto end = std::chrono::steady_clock::now();
  corpus.index().disk().SetFaultInjector(nullptr);
  if (!result.ok()) {
    std::fprintf(stderr, "run failed (rate %g): %s\n", rate,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  out.retries = registry.CounterValue("fault.retries").value_or(0);
  out.disk_reads = result.value().total_disk_reads;
  out.injected = injector.total_injected();
  out.degraded_steps = result.value().degraded_steps;
  out.pages_lost = result.value().total_pages_lost;
  out.map = result.value().mean_avg_precision;
  out.wall_ms = std::chrono::duration<double, std::milli>(end - start)
                    .count();
  return out;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Resilience - overhead at p=0 and the degradation curve",
      "fault-free runs through the resilience stack match plain runs "
      "exactly; under faults, queries degrade (bounded pages lost) "
      "instead of failing");
  const corpus::SyntheticCorpus& corpus = bench::GetCorpus();
  const corpus::Topic& topic = corpus.topics()[0];
  auto sequence = workload::BuildRefinementSequence(
      "QUERY1", topic.query, corpus.index(),
      workload::RefinementKind::kAddOnly);
  if (!sequence.ok()) {
    std::fprintf(stderr, "sequence build failed\n");
    return 1;
  }
  const uint64_t working_set =
      ir::SequenceWorkingSetPages(corpus.index(), sequence.value());
  const size_t pages = static_cast<size_t>(working_set / 2 + 1);
  std::printf("ADD-ONLY-QUERY1, working set %llu pages, %zu buffers\n",
              static_cast<unsigned long long>(working_set), pages);

  std::vector<FaultRun> runs;
  AsciiTable table({"rate", "config", "resil", "reads", "injected",
                    "retries", "degraded", "lost", "MAP", "wall ms"});
  const std::vector<bench::Combo> combos = {
      {false, buffer::PolicyKind::kLru, "DF/LRU"},
      {true, buffer::PolicyKind::kRap, "BAF/RAP"},
  };
  for (const bench::Combo& combo : combos) {
    // The p=0 overhead pair: plain, then through the enabled stack.
    for (bool resilience : {false, true}) {
      runs.push_back(RunOnce(corpus, sequence.value(),
                             topic.relevant_docs, combo, pages, 0.0,
                             resilience));
    }
    const FaultRun& plain = runs[runs.size() - 2];
    const FaultRun& wrapped = runs[runs.size() - 1];
    if (plain.disk_reads != wrapped.disk_reads ||
        wrapped.degraded_steps != 0) {
      std::fprintf(stderr,
                   "p=0 mismatch for %s: %llu vs %llu reads, %u "
                   "degraded\n",
                   combo.label.c_str(),
                   static_cast<unsigned long long>(plain.disk_reads),
                   static_cast<unsigned long long>(wrapped.disk_reads),
                   wrapped.degraded_steps);
      return 1;
    }
    // The degradation curve.
    for (double rate : {0.001, 0.01, 0.05}) {
      runs.push_back(RunOnce(corpus, sequence.value(),
                             topic.relevant_docs, combo, pages, rate,
                             /*resilience=*/true));
    }
  }
  for (const FaultRun& r : runs) {
    table.AddRow({
        StrFormat("%.3g", r.rate),
        r.label,
        r.resilience ? "on" : "off",
        StrFormat("%llu", static_cast<unsigned long long>(r.disk_reads)),
        StrFormat("%llu", static_cast<unsigned long long>(r.injected)),
        StrFormat("%llu", static_cast<unsigned long long>(r.retries)),
        StrFormat("%u", r.degraded_steps),
        StrFormat("%llu", static_cast<unsigned long long>(r.pages_lost)),
        StrFormat("%.4f", r.map),
        StrFormat("%.1f", r.wall_ms),
    });
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("p=0 through the resilience stack: reads identical, 0 "
              "degraded steps (asserted)\n");

  const std::string path = bench::ResultsDir() + "/bench_fault.json";
  std::string json = StrFormat("{\"bench\":\"bench_fault\",\"scale\":%g,"
                               "\"runs\":[",
                               bench::CorpusScale());
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) json += ",";
    json += FaultRunJson(runs[i]);
  }
  json += "]}";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  const bool wrote =
      std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
      std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (!wrote) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return 1;
  }
  std::printf("json         : %s\n", path.c_str());
  return 0;
}
