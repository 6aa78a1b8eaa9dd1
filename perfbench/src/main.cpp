// perfbench — host-cost benchmark of the COOL/DASH simulator.
//
//   perfbench --workload <name> --seed <n> --serve [--reference-dir <dir>]
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 1
//             [--reference-dir <dir>] [--spans-dir <dir>]
//   perfbench --workload <name> --seed 1 --reference-dir <dir> --write-reference
//
// --serve runs one untraced round (set-ups, the timed run with every tap
// off, the output checks) per "round" line on stdin and answers each with
// one "round {...}" line on stdout (its times, counts and the process's peak
// memory so far); any other line or end of input ends it with "end {}".
// run.py pairs such a server built from the repository's sources with one
// built from the frozen baseline copy and computes the end-to-end metrics.
// --trace 1 makes a separate traced run that times each layer from outside,
// through its public functions; the last line of its stdout is one JSON
// object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "runner.hpp"

namespace perfbench {

double set_up(Workload& w, const cool::SystemConfig& cfg,
              std::unique_ptr<cool::Runtime>& rt) {
  rt.reset();
  const Clock::time_point t0 = Clock::now();
  rt = std::make_unique<cool::Runtime>(cfg);
  w.make_inputs(*rt);
  return seconds_between(t0, Clock::now());
}

void check_digest(const Args& a, const Digest& d, Digest& first, Checks& c) {
  if (first.empty()) {
    first = d;
    for (const auto& [k, v] : d) {
      std::printf("digest %s %s %" PRIu64 "\n", a.workload.c_str(), k.c_str(),
                  v);
    }
  }
  c.expect("digest_repeats_within_run", [&] { return digest_diff(first, d); });
  if (a.seed != kDefaultSeed || a.reference_dir.empty()) return;
  c.expect("digest_matches_reference", [&] {
    const std::string path = a.reference_dir + "/" + a.workload + ".digest";
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    Digest ref;
    if (!in || !parse_digest(text.str(), ref)) return "cannot read " + path;
    const std::string diff = digest_diff(ref, d);
    return unless(diff.empty(), diff + " (regenerate with --write-reference "
                                       "if the model change is intended)");
  });
}

int serve(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  const cool::SystemConfig cfg = w->config();
  std::unique_ptr<cool::Runtime> rt;
  Digest first;
  std::string line;
  for (int round = 0; std::getline(std::cin, line) && line == "round";
       ++round) {
    std::vector<double> setup;
    for (int i = 0; i < kSetupsPerRound; ++i) {
      setup.push_back(set_up(*w, cfg, rt));
    }
    std::uint64_t attempted = 1 + w->units();
    std::uint64_t failed = 0;
    const Clock::time_point t0 = Clock::now();
    bool ran = true;
    try {
      w->run(*rt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "RUN FAILED: %s\n", e.what());
      ran = false;
    }
    const double wall_s = seconds_between(t0, Clock::now());
    std::uint64_t refs = 0;
    std::uint64_t tasks = 0;
    if (ran) {
      Checks c;
      w->check(*rt, c);
      check_digest(a, digest_of(*rt, *w), first, c);
      attempted += c.attempted();
      failed += w->failed_units() + c.failed();
      refs = Workload::refs(*rt);
      tasks = rt->tasks_completed();
    } else {
      failed = attempted;
    }
    rt.reset();
    std::string reply = "round {\"setup_s\": [";
    char buf[160];
    for (std::size_t i = 0; i < setup.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.9g", i == 0 ? "" : ", ", setup[i]);
      reply += buf;
    }
    std::snprintf(buf, sizeof buf,
                  "], \"wall_s\": %.9g, \"refs\": %" PRIu64
                  ", \"tasks\": %" PRIu64 ", \"attempted\": %" PRIu64
                  ", \"failed\": %" PRIu64 ", \"peak_rss_mb\": %.6f}",
                  wall_s, refs, tasks, attempted, failed, peak_rss_mb());
    reply += buf;
    std::printf("%s\n", reply.c_str());
    std::fflush(stdout);
    std::fprintf(stderr, "round %d: setup_s %.6f wall_s %.6f\n", round,
                 setup.back(), wall_s);
  }
  std::printf("end {}\n");
  return 0;
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "(--serve | --seconds <s> --trace 1 | --write-reference) "
               "[--reference-dir <dir>] [--spans-dir <dir>]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--write-reference") {
      a.write_reference = true;
      continue;
    }
    if (k == "--serve") {
      a.serve = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      if (!parse_u64(v, n)) return usage("--seed takes a whole number");
      a.seed = n;
    } else if (k == "--seconds") {
      if (!parse_u64(v, n) || n == 0) return usage("--seconds takes a positive whole number");
      a.seconds = static_cast<double>(n);
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      a.trace = v[0] == '1';
    } else if (k == "--reference-dir") {
      a.reference_dir = v;
    } else if (k == "--spans-dir") {
      a.spans_dir = v;
    } else {
      return usage(("unknown argument " + k).c_str());
    }
  }
  if (make_workload(a.workload, a.seed) == nullptr) {
    return usage(("unknown workload '" + a.workload + "'").c_str());
  }
  if (a.write_reference) {
    // Regenerate the reference digest from one untraced run on the default
    // seed: a deliberate model change commits the new file with its reason.
    if (a.seed != kDefaultSeed || a.reference_dir.empty()) {
      return usage("--write-reference needs --reference-dir and the default seed");
    }
    std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
    std::unique_ptr<cool::Runtime> rt;
    set_up(*w, w->config(), rt);
    w->run(*rt);
    const std::string path = a.reference_dir + "/" + a.workload + ".digest";
    std::ofstream out(path);
    out << digest_text(digest_of(*rt, *w));
    if (!out) return usage(("cannot write " + path).c_str());
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }

  if (a.serve) return serve(a);
  if (!a.trace) return usage("untraced rounds run under --serve (see run.py)");

  RunReport rep;
  try {
    rep = run_traced(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (rep.attempted == 0) return 1;
  std::string json = "{\"correct\": ";
  json += rep.failed == 0 ? "true" : "false";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                rep.attempted, rep.failed);
  json += buf;
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
