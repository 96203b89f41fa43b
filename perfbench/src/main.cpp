// perfbench: one workload, one process.
//
//   perfbench --workload grid-apsp|rmat-serve|grid-paths --seed N
//             --seconds S [--trace-out FILE]
//
// Without --trace-out the run is untraced and its end-to-end numbers are
// the ones to report.  With it, spans are recorded in memory around every
// library call the workload makes and written to FILE as one JSON document
// at the end; perfbench/run.py derives the per-layer metrics from it.  The
// last stdout line is one JSON object with the run's results.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "grid-apsp|rmat-serve|grid-paths --seed N --seconds S "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const MachineInfo machine = machine_info();
#ifndef NDEBUG
  const bool asserts_on = true;
#else
  const bool asserts_on = false;
#endif
  if (machine.build_type != "Release" || asserts_on) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 machine.build_type.c_str());
    return 3;
  }

  RunConfig cfg;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(cfg.seconds > 0 && cfg.seconds <= 600)) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }

  std::unique_ptr<Tracer> tracer;
  if (!trace_out.empty()) {
    // Every op of the slow grid-paths mix; one rmat-serve point query in
    // 256, which keeps a full run under the op-span cap.
    const std::uint32_t stride = cfg.workload == "grid-paths" ? 1 : 256;
    tracer = std::make_unique<Tracer>(stride, std::size_t{1} << 19);
    cfg.tracer = tracer.get();
  }

  // The pool's workers must exist before the client thread is pinned, or
  // they would inherit its single-CPU mask.
  dapsp::util::ThreadPool::global();
  CpuPicker cpu;
  cpu.repin();
  cfg.cpu = &cpu;

  RunResult res;
  try {
    if (cfg.workload == "grid-apsp") {
      res = run_grid_apsp(cfg);
    } else if (cfg.workload == "rmat-serve") {
      res = run_rmat_serve(cfg);
    } else if (cfg.workload == "grid-paths") {
      res = run_grid_paths(cfg);
    } else {
      usage("unknown --workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  if (tracer && !tracer->write_json(trace_out, cfg.workload)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }

  const double tail = tail_percentile(res.latency.count());
  JsonLine metrics;
  metrics.num("setup_s", res.setup_s)
      .num("build_s", res.build_s)
      .num("qps", res.qps)
      .num("p50_us", res.latency.percentile(50) / 1e3)
      .num("p99_us", res.latency.percentile(tail) / 1e3)
      .num("peak_rss_mb", peak_rss_mb());
  std::string errors = "[";
  for (const std::string& e : res.errors) {
    if (errors.size() > 1) errors += ',';
    errors.append("\"").append(json_escape(e)).append("\"");
  }
  errors += ']';
  JsonLine info;
  info.integer("builds", res.builds)
      .integer("latency_samples", res.latency.count())
      .num("p99_percentile", tail)
      .integer("rounds", res.rounds)
      .integer("messages", res.messages)
      .num("client_cpu", cpu.current())
      .integer("client_cpu_moves", cpu.moves())
      .raw("errors", errors);
  JsonLine meta;
  meta.integer("nproc", machine.nproc)
      .str("cpu_model", machine.cpu_model)
      .str("compiler", machine.compiler)
      .str("build_type", machine.build_type);
  JsonLine line;
  line.str("workload", cfg.workload)
      .integer("seed", cfg.seed)
      .boolean("traced", tracer != nullptr)
      .boolean("correct", res.tally.all_ok())
      .integer("attempted", res.tally.attempted)
      .integer("failed", res.tally.failed)
      .raw("metrics", metrics.done())
      .raw("info", info.done())
      .raw("meta", meta.done());
  std::printf("%s\n", line.done().c_str());
  return 0;
}
