// Reproduces Figure 4 ("Evolution of Smax during processing of query
// terms") for QUERY1-QUERY3: Smax rises fastest and highest for QUERY1
// (one dominant mid-idf-order term), in two steps for QUERY2, and stays
// low for QUERY3.

#include <cstdio>

#include "bench_util.h"
#include "util/str.h"

using namespace irbuf;

int main() {
  const corpus::SyntheticCorpus& corpus = bench::GetCorpus();
  const index::InvertedIndex& index = corpus.index();

  bench::PrintHeader(
      "Figure 4 - evolution of Smax while processing query terms",
      "QUERY1 rises fastest/highest (big jump at term ~12); QUERY2 rises "
      "in two steps (terms ~13 and ~23); QUERY3 stays flat and low");

  // The trajectory is the per-term trace's Smax after each term that
  // read its list (the rows Tables 1-2 print), so no recorder is needed.
  bench::TelemetryFile telemetry("bench_fig4_smax_evolution");
  std::vector<std::vector<double>> series(3);
  size_t longest = 0;
  for (int qi = 0; qi < 3; ++qi) {
    core::EvalOptions tuned;  // DF with Persin's constants.
    auto result = ir::RunColdQuery(index, corpus.topics()[qi].query, tuned);
    if (!result.ok()) {
      std::fprintf(stderr, "query %d failed\n", qi);
      return 1;
    }
    for (const core::TermTrace& row : result.value().trace) {
      if (!row.skipped) series[qi].push_back(row.smax_after);
    }
    longest = std::max(longest, series[qi].size());

    obs::JsonWriter run;
    run.BeginObject();
    run.Key("label").Str(StrFormat("QUERY%d", qi + 1));
    run.Key("disk_reads").UInt(result.value().disk_reads);
    run.Key("smax_trajectory").BeginArray();
    for (double s : series[qi]) run.Num(s);
    run.EndArray();
    run.EndObject();
    telemetry.AddRaw(std::move(run).Take());
  }

  std::printf("%6s %14s %14s %14s\n", "term", "QUERY1", "QUERY2",
              "QUERY3");
  for (size_t i = 0; i < longest; ++i) {
    std::printf("%6zu", i + 1);
    for (int qi = 0; qi < 3; ++qi) {
      if (i < series[qi].size()) {
        std::printf(" %14.1f", series[qi][i]);
      } else {
        std::printf(" %14s", "-");
      }
    }
    std::printf("\n");
  }

  std::printf("\nFinal Smax: QUERY1=%.0f QUERY2=%.0f QUERY3=%.0f "
              "(paper figure peaks near 30000 / 15000 / 7000 at scale 1; "
              "shape, ordering and jump positions are the reproduced "
              "features)\n",
              series[0].back(), series[1].back(), series[2].back());
  return telemetry.Close() ? 0 : 1;
}
