// irbuf_perfbench: one run of one benchmark workload.
//
//   irbuf_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --corpus-dir DIR
//
// Untraced runs (--trace 0) compute the end-to-end metrics; traced runs
// (--trace 1) the per-layer metrics and the layer ledger. stdout is one
// JSON object with the run's verdict, metric values, failed checks and
// detail; perfbench/run.py labels the values with the names and units
// BENCHMARK.json lists. Exit code 0 when the run completed (its verdict
// may still be "correct": false), 2 on bad arguments or a corpus that
// cannot be made.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "corpus/corpus_io.h"
#include "corpus/synthetic_corpus.h"
#include "harness.h"
#include "obs/json.h"
#include "util/str.h"
#include "workloads.h"

using namespace irbench;

namespace {

/// The paper's full WSJ profile; fixed so every commit sees the same
/// corpus.
constexpr double kScale = 1.0;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "irbuf_perfbench: %s\nusage: irbuf_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --corpus-dir DIR\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  std::string corpus_dir;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing flag value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--corpus-dir") == 0) {
      corpus_dir = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (args.workload.empty() || corpus_dir.empty()) {
    Usage("--workload and --corpus-dir are required");
  }
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  args.corpus_path = corpus_dir + StrFormat("/corpus_s%.1f.irbc", kScale);
  return args;
}

/// Generates the corpus file once; later runs only load it.
bool EnsureCorpus(const Args& args) {
  if (std::filesystem::exists(args.corpus_path)) return true;
  corpus::CorpusOptions options;
  options.scale = kScale;
  auto corpus = corpus::GenerateSyntheticCorpus(options);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus.status().ToString().c_str());
    return false;
  }
  const std::string tmp = args.corpus_path + ".tmp";
  const Status saved = corpus::SaveCorpus(*corpus.value(), tmp);
  if (!saved.ok()) {
    std::fprintf(stderr, "corpus save failed: %s\n", saved.ToString().c_str());
    return false;
  }
  std::filesystem::rename(tmp, args.corpus_path);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Progress("%s: seed %llu, %.1f s, trace %d", args.workload.c_str(),
           static_cast<unsigned long long>(args.seed), args.seconds,
           args.trace ? 1 : 0);
  if (!EnsureCorpus(args)) return 2;

  Report report;
  Values values;
  if (!RunWorkload(args, &report, &values)) Usage("unknown workload");
  Progress("done");

  obs::JsonWriter host;
  host.BeginObject()
      .Key("workload").Str(args.workload)
      .Key("seed").UInt(args.seed)
      .Key("seconds").Num(args.seconds)
      .Key("trace").Bool(args.trace)
      .Key("IRBUF_SCALE").Num(kScale)
      .Key("nproc").UInt(std::thread::hardware_concurrency())
      .Key("build_type").Str(IRBENCH_BUILD_TYPE)
      .Key("compiler").Str(IRBENCH_COMPILER)
      .EndObject();
  report.Detail("host", std::move(host).Take());
  std::printf("%s\n", report.Json(values).c_str());
  return 0;
}
