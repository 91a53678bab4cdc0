// adqbench — the repository benchmark program.
//
//   adqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload (offline_b32, serve_sparse_b1, serve_overload_swap,
// ad_train) for the given seconds on inputs made from the seed, checks its
// outputs, and prints as its LAST stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, the spans are written to
// .bench_out/trace-<workload>-<seed>.json
// (Chrome trace-event format) and a per-layer self-time table is printed.
// Exits 1 when any output check failed, 2 on bad arguments.
#include <sched.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <unistd.h>

#include "stats.h"
#include "tensor/parallel.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace adqbench;

const char* const kWorkloads[] = {"offline_b32", "serve_sparse_b1",
                                  "serve_overload_swap", "ad_train"};

int usage(const char* why) {
  std::fprintf(stderr,
               "adqbench: %s\nusage: adqbench --workload <offline_b32|"
               "serve_sparse_b1|serve_overload_swap|ad_train> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

// CPUs this process may run on (what nproc prints).
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool contains(const std::string& s, const char* part) {
  return s.find(part) != std::string::npos;
}

// Unit of a metric, from its name.
std::string unit_of(const std::string& name) {
  if (name == "imgs_per_s") return "1/s";
  if (name == "peak_rss_mb") return "MiB";
  if (contains(name, "uj_per_img")) return "uJ";
  if (contains(name, "_frac")) return "frac";
  if (contains(name, "_gmacs")) return "GMAC/s";
  if (contains(name, "_gbps")) return "GB/s";
  if (contains(name, "_bytes")) return "bytes";
  if (contains(name, "_ms")) return "ms";
  if (contains(name, "_us")) return "us";
  if (ends_with(name, "_s")) return "s";
  if (name == "serve.batch_mean" || name == "serve.max_queue_depth") {
    return "requests";
  }
  if (name == "tensor.pool_busy_peak") return "threads";
  return "count";
}

std::string metrics_json(const std::map<std::string, double>& metrics) {
  std::string out = "{";
  char buf[64];
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += "\"" + json_escape(name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + unit_of(name) + "\"}";
  }
  return out + "}";
}

void print_table(const char* title,
                 const std::map<std::string, double>& metrics) {
  std::printf("\n%s\n", title);
  for (const auto& [name, value] : metrics) {
    std::printf("  %-44s %14.6g %s\n", name.c_str(), value,
                unit_of(name).c_str());
  }
}

void print_self_times(const std::vector<Span>& spans) {
  std::printf("\nper-layer self time (traced run)\n  %-8s %-26s %8s %12s "
              "%12s\n", "layer", "span", "count", "total ms", "self ms");
  for (const SelfTime& t : self_times(spans)) {
    std::printf("  %-8s %-26s %8lld %12.3f %12.3f\n", t.layer.c_str(),
                t.name.c_str(), static_cast<long long>(t.count), t.total_ms,
                t.self_ms);
  }
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string trace_flag;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed" && parse_u64(v, &n)) {
      cfg.seed = n;
      have_seed = true;
    } else if (a == "--seconds" && parse_u64(v, &n) && n >= 1 && n <= 600) {
      cfg.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (a == "--trace" && (std::strcmp(v, "0") == 0 ||
                                  std::strcmp(v, "1") == 0)) {
      trace_flag = v;
    } else {
      return usage(("bad argument " + a + " " + v).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || cfg.workload == w;
  if (!known) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || trace_flag.empty()) {
    return usage("--seed, --seconds and --trace are required");
  }
  cfg.trace = trace_flag == "1";

  // The scheduler pool is sized to the CPUs before anything touches it;
  // every computing caller then runs under kComputeThreadsPerCaller.
  const int cores = usable_cpus();
  setenv("ADQ_THREADS", std::to_string(cores).c_str(), 1);
  const std::string out_dir = ".bench_out";
  mkdir(out_dir.c_str(), 0755);
  cfg.plan_dir = out_dir + "/plans-" + std::to_string(getpid());
  mkdir(cfg.plan_dir.c_str(), 0755);
  std::printf("adqbench %s seed %llu, %g s, trace %d, ADQ_THREADS=%d, "
              "%d thread(s) per computing caller\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cores,
              kComputeThreadsPerCaller);
  tracer().set_enabled(cfg.trace);

  Result r;
  try {
    const adq::ScopedThreadBudget budget(kComputeThreadsPerCaller);
    if (cfg.workload == "offline_b32") r = run_offline_b32(cfg);
    if (cfg.workload == "serve_sparse_b1") r = run_serve_sparse_b1(cfg);
    if (cfg.workload == "serve_overload_swap") r = run_serve_overload_swap(cfg);
    if (cfg.workload == "ad_train") r = run_ad_train(cfg);
    if (cfg.trace) layer_sweep(cfg, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adqbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  // Plans were scratch; the trace stays.
  for (const char* key : {"vgg19_mixed", "resnet18_mixed", "mobilenet_int4"}) {
    std::remove((cfg.plan_dir + "/" + key + ".adqplan").c_str());
  }
  rmdir(cfg.plan_dir.c_str());

  for (const auto* m : {&r.e2e, &r.layer}) {
    for (const auto& [name, value] : *m) {
      if (!std::isfinite(value)) r.fail(name + " is not finite");
    }
  }
  print_table("end-to-end metrics", r.e2e);
  if (cfg.trace) {
    const std::vector<Span> spans = tracer().spans();
    const std::string path = out_dir + "/trace-" + cfg.workload + "-" +
                             std::to_string(cfg.seed) + ".json";
    std::ofstream f(path);
    f << chrome_trace_json(spans);
    if (!f) r.fail("cannot write " + path);
    print_self_times(spans);
    print_table("per-layer metrics", r.layer);
    std::printf("\ntrace: %s (%zu spans)\n", path.c_str(), spans.size());
    // The traced run's own end-to-end numbers, for the tracing overhead
    // (adqbench/run.py --steady subtracts the untraced medians).
    std::printf("TRACED_E2E %s\n", metrics_json(r.e2e).c_str());
  }
  for (const std::string& f : r.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              r.correct() ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed),
              metrics_json(cfg.trace ? r.layer : r.e2e).c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
