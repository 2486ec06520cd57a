// Shared helpers for the ANTAREX claim/figure benchmarks.
//
// Every bench prints a REPRODUCTION table with the paper's number next to the
// measured one plus a qualitative verdict, so `for b in build/bench/*; do $b;
// done` produces the full EXPERIMENTS.md evidence.
//
// Each bench additionally writes BENCH_<name>.json next to the working
// directory: header() starts the report, metric() attaches numbers
// (iterations, simulated joules, ...), attribution() attaches per-phase
// energy rows, verdict() records the claim outcome, and the file is flushed
// at process exit — so the perf trajectory is machine-trackable across PRs
// without scraping stdout.
//
// Uniform flags, parsed by parse_threads() / parse_strategy() /
// parse_telemetry():
//   --threads N              worker threads (benches that parallelize)
//   --strategy NAME          search strategy (autotuning benches):
//                            flat | epsilon-greedy | model-guided | evolutionary
//   --telemetry=off|on|trace off (default): no telemetry overhead;
//                            on: record metrics, print the registry summary;
//                            trace: additionally write BENCH_<name>_trace.json
//   --help                   print the flags and exit
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::bench {

enum class TelemetryMode { Off, On, Trace };

namespace detail {

struct AttributionEntry {
  std::string key;
  double joules = 0.0;
  double seconds = 0.0;
};

struct Report {
  std::string name;
  std::string what;
  std::string paper;
  std::string measured;
  bool has_verdict = false;
  bool shape_holds = false;
  std::map<std::string, double> metrics;
  std::vector<AttributionEntry> attribution;
  std::chrono::steady_clock::time_point start{};
  bool active = false;
};

inline Report& report() {
  static Report r;
  return r;
}

/// Survives the header() report reset: flags may be parsed on either side.
inline TelemetryMode& telemetry_mode() {
  static TelemetryMode mode = TelemetryMode::Off;
  return mode;
}

/// `BENCH_CLAIM-DVFS.json` etc. — keep the id readable, drop anything a
/// filesystem might object to.
inline std::string report_filename(const std::string& id,
                                   const std::string& suffix = ".json") {
  std::string name;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    name += ok ? c : '_';
  }
  return "BENCH_" + name + suffix;
}

inline void write_report() {
  Report& r = report();
  if (!r.active) return;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - r.start)
          .count();
  const std::string path = report_filename(r.name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return;  // benches never fail on an unwritable cwd
  std::string body;
  body += "{\n";
  body += format("  \"schema\": \"antarex.bench/v1\",\n");
  body += "  \"name\": " + json_quote(r.name) + ",\n";
  body += "  \"description\": " + json_quote(r.what) + ",\n";
  body += format("  \"wall_seconds\": %.9g,\n", wall);
  body += format("  \"iterations\": %.9g,\n",
                 r.metrics.count("iterations") ? r.metrics.at("iterations")
                                               : 0.0);
  body += format("  \"simulated_joules\": %.9g,\n",
                 r.metrics.count("simulated_joules")
                     ? r.metrics.at("simulated_joules")
                     : 0.0);
  body += format("  \"threads\": %.9g,\n",
                 r.metrics.count("threads") ? r.metrics.at("threads") : 1.0);
  body += "  \"metrics\": {";
  bool first = true;
  for (const auto& [key, value] : r.metrics) {
    if (!first) body += ",";
    first = false;
    body += "\n    " + json_quote(key) + format(": %.9g", value);
  }
  body += first ? "},\n" : "\n  },\n";
  if (!r.attribution.empty()) {
    body += "  \"attribution\": [";
    first = true;
    for (const AttributionEntry& a : r.attribution) {
      if (!first) body += ",";
      first = false;
      body += "\n    {\"span\": " + json_quote(a.key) +
              format(", \"joules\": %.9g, \"seconds\": %.9g}", a.joules,
                     a.seconds);
    }
    body += "\n  ],\n";
  }
  body += "  \"verdict\": ";
  if (r.has_verdict) {
    body += "{\n    \"paper\": " + json_quote(r.paper) +
            ",\n    \"measured\": " + json_quote(r.measured) +
            format(",\n    \"shape_reproduced\": %s\n  }\n",
                   r.shape_holds ? "true" : "false");
  } else {
    body += "null\n";
  }
  body += "}\n";
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  if (telemetry_mode() != TelemetryMode::Off) {
    std::puts("\n-- telemetry registry --");
    telemetry::summary_table().print();
  }
  if (telemetry_mode() == TelemetryMode::Trace) {
    const std::string trace_path = report_filename(r.name, "_trace.json");
    try {
      telemetry::write_text_file(trace_path, telemetry::chrome_trace_json());
      std::printf("wrote %s\n", trace_path.c_str());
    } catch (const std::exception&) {
      // same contract as the report itself: unwritable cwd is not an error
    }
  }
}

}  // namespace detail

inline void header(const std::string& id, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("[%s] %s\n", id.c_str(), what.c_str());
  std::printf("================================================================\n");
  detail::Report& r = detail::report();
  if (!r.active) std::atexit(detail::write_report);
  r = {};
  r.name = id;
  r.what = what;
  r.start = std::chrono::steady_clock::now();
  r.active = true;
}

/// Attach a number to the bench's JSON report. Well-known keys "iterations",
/// "simulated_joules", and "threads" surface as top-level fields (threads
/// defaults to 1 — a bench that never parallelizes is a one-thread run);
/// everything else lands under "metrics".
inline void metric(const std::string& key, double value) {
  detail::report().metrics[key] = value;
}

/// Attach one energy-attribution row (phase/span name, simulated joules it
/// consumed, seconds it was live). Emitted as the report's "attribution"
/// array — the same shape the obs::EnergyAccountant dumps.
inline void attribution(const std::string& key, double joules,
                        double seconds) {
  detail::report().attribution.push_back(
      detail::AttributionEntry{key, joules, seconds});
}

/// Parse `--threads N` from a bench's argv; any other arguments are left
/// alone. N <= 0 (or no flag) selects hardware concurrency as reported by
/// the runtime; an N that is not an integer ends the bench with exit code 2
/// and the parse error on stderr, before any report is written. The chosen
/// value is also recorded as the report's top-level "threads" field.
inline int parse_threads(int argc, char** argv, int hardware_default) {
  int threads = hardware_default;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) != "--threads") continue;
    try {
      threads = parse_int<int>(argv[i + 1], "--threads");
    } catch (const Error& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      std::fflush(stdout);
      std::_Exit(2);
    }
  }
  if (threads <= 0) threads = hardware_default;
  metric("threads", static_cast<double>(threads));
  return threads;
}

/// Parse `--strategy <name>` (also accepted as `--strategy=<name>`) from a
/// bench's argv. Pure string parsing — the bench resolves the name via
/// search::make_strategy, which throws on unknown names, so a typo is a hard
/// error at the resolution site rather than a silent fallback here.
inline std::string parse_strategy(int argc, char** argv,
                                  const std::string& fallback) {
  std::string name = fallback;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--strategy=", 0) == 0)
      name = arg.substr(std::strlen("--strategy="));
    else if (arg == "--strategy" && i + 1 < argc)
      name = argv[i + 1];
  }
  return name;
}

/// Parse the uniform `--telemetry=<off|on|trace>` flag (also accepted as
/// `--telemetry <mode>`) and `--help`. Enables the telemetry runtime for
/// `on` and `trace`; `trace` additionally writes BENCH_<name>_trace.json at
/// exit. Unknown arguments are left alone (benches own their other flags);
/// an unknown *mode* is a hard error. --help prints the uniform flags and
/// exits.
inline TelemetryMode parse_telemetry(int argc, char** argv) {
  TelemetryMode mode = TelemetryMode::Off;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "uniform bench flags:\n"
          "  --threads N              worker threads (parallel benches)\n"
          "  --strategy NAME          search strategy (autotuning benches):\n"
          "                           flat | epsilon-greedy | model-guided |\n"
          "                           evolutionary\n"
          "  --telemetry=off|on|trace off (default): no telemetry;\n"
          "                           on: metrics + registry summary;\n"
          "                           trace: also write "
          "BENCH_<name>_trace.json\n"
          "  --help                   this text\n");
      std::exit(0);
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      value = arg.substr(std::strlen("--telemetry="));
    } else if (arg == "--telemetry" && i + 1 < argc) {
      value = argv[++i];
    } else {
      continue;
    }
    if (value == "off") {
      mode = TelemetryMode::Off;
    } else if (value == "on") {
      mode = TelemetryMode::On;
    } else if (value == "trace") {
      mode = TelemetryMode::Trace;
    } else {
      std::fprintf(stderr,
                   "unknown --telemetry mode '%s' (want off|on|trace)\n",
                   value.c_str());
      std::exit(2);
    }
  }
  detail::telemetry_mode() = mode;
  telemetry::set_enabled(mode != TelemetryMode::Off);
  return mode;
}

/// Prints one claim line: the paper's statement vs our measurement. Also
/// recorded into BENCH_<name>.json.
inline void verdict(const std::string& paper, const std::string& measured,
                    bool shape_holds) {
  std::printf("paper:    %s\n", paper.c_str());
  std::printf("measured: %s\n", measured.c_str());
  std::printf("verdict:  %s\n", shape_holds ? "SHAPE REPRODUCED" : "MISMATCH");
  detail::Report& r = detail::report();
  r.paper = paper;
  r.measured = measured;
  r.shape_holds = shape_holds;
  r.has_verdict = true;
}

}  // namespace antarex::bench
