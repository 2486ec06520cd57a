// Tests for antarex::telemetry: registry primitives, enable gating, trace
// ring drop accounting, exporter correctness (golden Chrome-trace JSON,
// stable metrics schema), and an instrumented end-to-end cluster run.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "power/rapl.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"
#include "tuner/monitor.hpp"

namespace {

using namespace antarex;
using telemetry::Registry;
using telemetry::TraceBuffer;

// --------------------------------------------------------------------------
// Minimal JSON syntax checker (no external deps): validates the exporters
// produce well-formed JSON, not just plausible-looking strings.
// --------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(peek())) ++pos_;
    if (peek() == '.') { ++pos_; while (std::isdigit(peek())) ++pos_; }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(peek())) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* p = word; *p; ++p, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool json_valid(const std::string& text) { return JsonChecker(text).valid(); }

/// All values following `"key":` occurrences, parsed as doubles.
std::vector<double> extract_numbers(const std::string& json, const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    out.push_back(std::stod(json.substr(pos)));
  }
  return out;
}

std::size_t count_occurrences(const std::string& s, const std::string& needle) {
  std::size_t n = 0, pos = 0;
  while ((pos = s.find(needle, pos)) != std::string::npos) {
    ++n;
    pos += needle.size();
  }
  return n;
}

/// Chrome-trace structural invariants: every 'E' closes an open 'B' and the
/// trace ends with depth 0.
bool balanced_b_e(const std::string& json) {
  int depth = 0;
  std::size_t pos = 0;
  while ((pos = json.find("\"ph\":\"", pos)) != std::string::npos) {
    pos += 6;
    if (json[pos] == 'B') ++depth;
    else if (json[pos] == 'E' && --depth < 0) return false;
  }
  return depth == 0;
}

// Deterministic timestamp source: +1us per call.
u64 g_fake_ns = 0;
u64 fake_now_ns() { return g_fake_ns += 1000; }

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().reset();
    Registry::global().trace().set_capacity(TraceBuffer::kDefaultCapacity);
    telemetry::set_enabled(true);
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    Registry::global().trace().set_now_fn(nullptr);
    Registry::global().trace().set_capacity(TraceBuffer::kDefaultCapacity);
    Registry::global().reset();
  }
};

// --------------------------------------------------------------------------
// Registry primitives
// --------------------------------------------------------------------------

TEST_F(TelemetryTest, CounterGaugeHistogramBasics) {
  auto& reg = Registry::global();
  auto& c = reg.counter("t.counter");
  c.add(3);
  c.inc();
  EXPECT_EQ(c.value(), 4u);
  EXPECT_EQ(&c, &reg.counter("t.counter"));  // get-or-create is stable

  auto& g = reg.gauge("t.gauge");
  g.set(5.0);
  g.set(-2.0);
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.last(), 3.0);
  EXPECT_DOUBLE_EQ(g.min(), -2.0);
  EXPECT_DOUBLE_EQ(g.max(), 5.0);
  EXPECT_EQ(g.updates(), 3u);

  auto& h = reg.histogram("t.hist", 0.0, 10.0, 10);
  for (double v : {0.5, 1.5, 1.5, 9.5, 42.0, -3.0}) h.add(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0.5 and the clamped -3.0
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(9), 2u);  // 9.5 and the clamped 42.0
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.5 + 1.5 + 9.5 + 42.0 - 3.0);
  EXPECT_DOUBLE_EQ(h.approx_quantile(0.50), 1.5);  // halfway into bucket 1
}

TEST_F(TelemetryTest, DisabledRegistryLeavesCountersUntouched) {
  auto& reg = Registry::global();
  auto& c = reg.counter("t.disabled_counter");
  auto& g = reg.gauge("t.disabled_gauge");
  auto& h = reg.histogram("t.disabled_hist", 0.0, 1.0, 4);

  telemetry::set_enabled(false);
  c.add(7);
  g.set(1.0);
  h.add(0.5);
  TELEMETRY_COUNT("t.disabled_counter", 9);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.updates(), 0u);
  EXPECT_EQ(h.count(), 0u);

  // Series are the data plane (monitors feed the autotuner): never gated.
  auto& s = reg.series("t.always_on", 4);
  s.push(2.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.last(), 2.0);

  telemetry::set_enabled(true);
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
}

TEST_F(TelemetryTest, ResetZeroesMetricsButKeepsObjectsAlive) {
  auto& reg = Registry::global();
  auto& c = reg.counter("t.reset_counter");
  c.add(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);     // same object, zeroed
  c.add(1);                     // cached reference still safe to use
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(&c, &reg.counter("t.reset_counter"));
}

// --------------------------------------------------------------------------
// Trace ring: drop accounting
// --------------------------------------------------------------------------

TEST_F(TelemetryTest, RingBufferRecordsDropsWhenOverCapacity) {
  auto& trace = Registry::global().trace();
  trace.set_capacity(4);
  for (int i = 0; i < 5; ++i) {
    TELEMETRY_SPAN("t.span");
  }
  // Two spans fit (4 events); the remaining three drop both their B and E.
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);

  // The drop counter is part of both export surfaces.
  const std::string metrics = telemetry::metrics_json();
  EXPECT_NE(metrics.find("\"trace\":{\"events\":4,\"dropped\":6}"),
            std::string::npos);
  const std::string chrome = telemetry::chrome_trace_json();
  EXPECT_NE(chrome.find("\"dropped\":6"), std::string::npos);
  EXPECT_TRUE(json_valid(chrome));
  EXPECT_TRUE(balanced_b_e(chrome));
}

TEST_F(TelemetryTest, TruncatedTraceStillExportsBalancedJson) {
  auto& trace = Registry::global().trace();
  trace.set_capacity(3);
  {
    TELEMETRY_SPAN("outer");  // B recorded
    {
      TELEMETRY_SPAN("inner");  // B recorded
      TELEMETRY_SPAN("inner2");  // B recorded; all E events drop
    }
  }
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.dropped(), 3u);
  const std::string chrome = telemetry::chrome_trace_json();
  EXPECT_TRUE(json_valid(chrome));
  EXPECT_TRUE(balanced_b_e(chrome));  // exporter closes the open spans
  EXPECT_EQ(count_occurrences(chrome, "\"ph\":\"B\""), 3u);
  EXPECT_EQ(count_occurrences(chrome, "\"ph\":\"E\""), 3u);
}

TEST_F(TelemetryTest, SpansAreFreeWhenDisabled) {
  telemetry::set_enabled(false);
  auto& trace = Registry::global().trace();
  for (int i = 0; i < 100; ++i) {
    TELEMETRY_SPAN("t.noop");
  }
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
}

// --------------------------------------------------------------------------
// Exporters
// --------------------------------------------------------------------------

TEST_F(TelemetryTest, ChromeTraceGolden) {
  g_fake_ns = 0;
  Registry::global().trace().set_now_fn(&fake_now_ns);
  {
    TELEMETRY_SPAN("outer");
    {
      TELEMETRY_SPAN("inner");
    }
    {
      TELEMETRY_SPAN("inner");
    }
  }
  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"outer\",\"cat\":\"antarex\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0.000},"
      "{\"name\":\"inner\",\"cat\":\"antarex\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":1.000},"
      "{\"name\":\"inner\",\"cat\":\"antarex\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2.000},"
      "{\"name\":\"inner\",\"cat\":\"antarex\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":3.000},"
      "{\"name\":\"inner\",\"cat\":\"antarex\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":4.000},"
      "{\"name\":\"outer\",\"cat\":\"antarex\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":5.000}"
      "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":6,\"dropped\":0}}";
  EXPECT_EQ(telemetry::chrome_trace_json(), expected);
  EXPECT_TRUE(json_valid(expected));
}

TEST_F(TelemetryTest, MetricsJsonSchemaIsStable) {
  auto& reg = Registry::global();
  reg.counter("a.counter").add(2);
  reg.gauge("b.gauge").set(1.5);
  reg.histogram("c.hist", 0.0, 1.0, 2).add(0.25);
  reg.series("d.series", 4).push(3.0);

  const std::string json = telemetry::metrics_json();
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"schema\":\"antarex.telemetry.metrics/v3\""),
            std::string::npos);
  // Names registered by earlier tests persist (zeroed), so assert on the
  // entry rather than the whole object.
  EXPECT_NE(json.find("\"a.counter\":2"), std::string::npos);
  EXPECT_NE(json.find("\"b.gauge\":{\"last\":1.5,\"min\":1.5,\"max\":1.5,"
                      "\"updates\":1}"),
            std::string::npos);
  // The single 0.25 sample sits alone in bucket [0, 0.5): interpolated
  // quantiles walk that bucket linearly.
  EXPECT_NE(json.find("\"c.hist\":{\"lo\":0,\"hi\":1,\"count\":1,\"sum\":0.25,"
                      "\"mean\":0.25,\"p50\":0.25,\"p95\":0.475,\"p99\":0.495,"
                      "\"buckets\":[1,0]}"),
            std::string::npos);
  EXPECT_NE(json.find("\"d.series\":{\"count\":1,\"last\":3,\"mean\":3,"
                      "\"p50\":3,\"p95\":3,\"p99\":3,\"ewma\":3}"),
            std::string::npos);
  EXPECT_NE(json.find("\"trace\":{\"events\":0,\"dropped\":0}"),
            std::string::npos);
  // v3: the drops section always carries the trace ring's count.
  EXPECT_NE(json.find("\"drops\":{\"trace_buffer\":0"), std::string::npos);
}

TEST_F(TelemetryTest, DropCountersSurfaceInTheDropsSection) {
  auto& reg = Registry::global();
  reg.drop_counter("t.queue.dropped").add(3);
  reg.drop_counter("monitor.broker.dropped.cluster/7").add(2);
  reg.trace().set_capacity(1);
  {
    TELEMETRY_SPAN("t.dropped_span");  // B fits, E drops
  }

  const std::string json = telemetry::metrics_json();
  EXPECT_TRUE(json_valid(json));
  // Drop counters are ordinary counters too...
  EXPECT_NE(json.find("\"t.queue.dropped\":3"), std::string::npos);
  // ...and additionally collected under "drops" next to the trace ring's.
  EXPECT_NE(json.find("\"drops\":{\"trace_buffer\":1,"
                      "\"monitor.broker.dropped.cluster/7\":2,"
                      "\"t.queue.dropped\":3}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"drops_total\":6"), std::string::npos);
}

// Golden-file lock on the v3 metrics layout: a fresh local registry (fully
// isolated from the global one other tests touch) with one metric of every
// kind plus drop accounting must serialize byte-identically to the fixture.
TEST_F(TelemetryTest, MetricsJsonV3GoldenFile) {
  telemetry::Registry reg;
  reg.counter("jobs.completed").add(7);
  reg.drop_counter("monitor.broker.dropped.cluster/3").add(5);
  reg.gauge("power_w").set(42.5);
  auto& h = reg.histogram("latency_s", 0.0, 1.0, 4);
  h.add(0.1);
  h.add(0.6);
  auto& s = reg.series("progress", 4);
  s.push(1.0);
  s.push(2.0);
  reg.trace().set_capacity(2);
  reg.trace().push("a", 'B');
  reg.trace().push("a", 'E');
  reg.trace().push("b", 'B');  // over capacity: dropped and counted

  const std::string json = telemetry::metrics_json(reg);
  EXPECT_TRUE(json_valid(json));

  const std::string path =
      std::string(ANTAREX_GOLDEN_DIR) + "/metrics_v3.json";
  if (const char* update = std::getenv("ANTAREX_UPDATE_GOLDEN");
      update && update[0] == '1') {
    std::ofstream out(path, std::ios::binary);
    out << json;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream fixture;
  fixture << in.rdbuf();
  ASSERT_FALSE(fixture.str().empty())
      << "missing fixture " << path << " (run with ANTAREX_UPDATE_GOLDEN=1)";
  EXPECT_EQ(json, fixture.str());
}

TEST_F(TelemetryTest, HistogramQuantilesInterpolateWithinBuckets) {
  auto& h = Registry::global().histogram("t.quant", 0.0, 100.0, 10);
  // 100 samples spread uniformly: one per unit value midpoint.
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  // Uniform mass: quantiles land on q*range exactly.
  EXPECT_NEAR(h.approx_quantile(0.50), 50.0, 1e-9);
  EXPECT_NEAR(h.approx_quantile(0.95), 95.0, 1e-9);
  EXPECT_NEAR(h.approx_quantile(0.99), 99.0, 1e-9);
  EXPECT_NEAR(h.approx_quantile(0.0), 0.0, 1e-9);
  EXPECT_NEAR(h.approx_quantile(1.0), 100.0, 1e-9);

  auto& empty = Registry::global().histogram("t.quant_empty", 0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(empty.approx_quantile(0.5), 0.0);

  // Quantiles surface in the summary table header.
  const std::string rendered = telemetry::summary_table().render();
  EXPECT_NE(rendered.find("p50"), std::string::npos);
  EXPECT_NE(rendered.find("p99"), std::string::npos);
}

TEST_F(TelemetryTest, SummaryTableListsEveryMetricKind) {
  auto& reg = Registry::global();
  reg.counter("a.counter").add(2);
  reg.gauge("b.gauge").set(1.5);
  reg.histogram("c.hist", 0.0, 1.0, 2).add(0.25);
  reg.series("d.series", 4).push(3.0);

  const std::string rendered = telemetry::summary_table().render();
  for (const char* needle :
       {"a.counter", "b.gauge", "c.hist", "d.series", "counter", "gauge",
        "histogram", "series"})
    EXPECT_NE(rendered.find(needle), std::string::npos) << needle;
}

// Span hooks: the obs attribution layer's attachment point.
int g_enters = 0;
int g_exits = 0;
u64 g_last_duration_ns = 0;

void count_enter(const char*) { ++g_enters; }
void count_exit(const char*, u64 start_ns, u64 end_ns) {
  ++g_exits;
  g_last_duration_ns = end_ns - start_ns;
}

TEST_F(TelemetryTest, SpanHooksFireOnEnterAndExit) {
  g_fake_ns = 0;
  g_enters = g_exits = 0;
  Registry::global().trace().set_now_fn(&fake_now_ns);
  telemetry::set_span_enter_hook(&count_enter);
  telemetry::set_span_exit_hook(&count_exit);
  {
    TELEMETRY_SPAN("hooked");
    {
      TELEMETRY_SPAN("hooked.inner");
    }
  }
  telemetry::set_span_enter_hook(nullptr);
  telemetry::set_span_exit_hook(nullptr);
  EXPECT_EQ(g_enters, 2);
  EXPECT_EQ(g_exits, 2);
  EXPECT_GT(g_last_duration_ns, 0u);

  // Uninstalled hooks stay silent; disabled telemetry never fires hooks.
  {
    TELEMETRY_SPAN("unhooked");
  }
  telemetry::set_span_enter_hook(&count_enter);
  telemetry::set_enabled(false);
  {
    TELEMETRY_SPAN("disabled");
  }
  telemetry::set_span_enter_hook(nullptr);
  telemetry::set_enabled(true);
  EXPECT_EQ(g_enters, 2);
  EXPECT_EQ(g_exits, 2);
}

TEST_F(TelemetryTest, ScopedTimerFeedsHistogram) {
  g_fake_ns = 0;
  Registry::global().trace().set_now_fn(&fake_now_ns);
  auto& h = Registry::global().histogram("t.timer_s", 0.0, 1.0, 10);
  {
    telemetry::ScopedTimer timer(h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 1e-6);  // fake clock: +1us between the two reads
}

// --------------------------------------------------------------------------
// Monitor integration: windowed stats visible through the registry
// --------------------------------------------------------------------------

TEST_F(TelemetryTest, MonitorExposesStatsThroughRegistry) {
  tuner::Monitor m("t.monitor_metric", 4);
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) m.push(v);

  const auto series = Registry::global().all_series();
  const telemetry::Series* found = nullptr;
  for (const auto& [name, s] : series)
    if (name == "t.monitor_metric") found = s;
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count(), 5u);
  EXPECT_DOUBLE_EQ(found->window_mean(), 3.5);  // 1.0 evicted, same as Monitor
  EXPECT_DOUBLE_EQ(found->last(), 5.0);

  const std::string json = telemetry::metrics_json();
  EXPECT_NE(json.find("\"t.monitor_metric\":{\"count\":5"), std::string::npos);
}

// --------------------------------------------------------------------------
// End-to-end: an instrumented cluster run produces a valid trace and
// populated metrics (the same pathway examples/power_management uses).
// --------------------------------------------------------------------------

TEST_F(TelemetryTest, InstrumentedClusterRunExportsValidTrace) {
  rtrm::ShardedClusterConfig cfg;
  cfg.base.governor = rtrm::GovernorPolicy::Ondemand;
  cfg.base.control_period_s = 0.25;
  rtrm::ShardedCluster cluster(cfg);
  cluster.add_node(
      60.0, {{cluster.add_spec(power::DeviceSpec::xeon_haswell()), {}}});

  for (u64 id = 1; id <= 3; ++id) {
    rtrm::Job j;
    j.id = id;
    j.name = format("job%llu", static_cast<unsigned long long>(id));
    j.units = 5.0;
    power::WorkloadModel w;
    w.cpu_gcycles = 10.0;
    w.cores_used = 12;
    j.profiles[power::DeviceType::Cpu] = w;
    cluster.submit(std::move(j));
  }
  ASSERT_TRUE(cluster.run_until_idle(500.0, 0.25));

  auto& reg = Registry::global();
  EXPECT_EQ(reg.counter("rtrm.jobs.submitted").value(), 3u);
  EXPECT_EQ(reg.counter("rtrm.jobs.dispatched").value(), 3u);
  EXPECT_EQ(reg.counter("rtrm.jobs.completed").value(), 3u);
  EXPECT_GT(reg.counter("rtrm.dvfs_transitions").value(), 0u);
  EXPECT_GT(reg.gauge("rtrm.it_power_w").max(), 0.0);

  const std::string chrome = telemetry::chrome_trace_json();
  EXPECT_TRUE(json_valid(chrome));
  EXPECT_TRUE(balanced_b_e(chrome));
  EXPECT_EQ(count_occurrences(chrome, "\"ph\":\"B\""),
            count_occurrences(chrome, "\"ph\":\"E\""));

  // Timestamps must be monotonically non-decreasing.
  const std::vector<double> ts = extract_numbers(chrome, "ts");
  ASSERT_GT(ts.size(), 2u);
  for (std::size_t i = 1; i < ts.size(); ++i)
    EXPECT_GE(ts[i], ts[i - 1]) << "event " << i;

  // Spans from the control loops made it into the trace.
  EXPECT_NE(chrome.find("rtrm.dispatch"), std::string::npos);
  EXPECT_NE(chrome.find("rtrm.control_step"), std::string::npos);

  const std::string metrics = telemetry::metrics_json();
  EXPECT_TRUE(json_valid(metrics));
  EXPECT_NE(metrics.find("rtrm.jobs.completed"), std::string::npos);
}

// The RAPL counter telemetry is owned by power::RaplDomain: one sample and
// the interval's micro-joules per accumulate() call.
TEST_F(TelemetryTest, RaplDomainCountsEverySampleAndItsMicrojoules) {
  power::RaplDomain pkg("pkg0");
  pkg.accumulate(100.0, 0.25);  // 25 J
  pkg.accumulate(40.0, 0.5);    // 20 J
  pkg.accumulate(0.0, 1.0);     // an idle sample still counts
  auto& reg = Registry::global();
  EXPECT_EQ(reg.counter("power.rapl_samples").value(), 3u);
  EXPECT_EQ(reg.counter("power.energy_uj").value(), 45000000u);
  EXPECT_DOUBLE_EQ(pkg.total_j(), 45.0);
}

// --------------------------------------------------------------------------
// Concurrent writers (the exec-pool contract; run under TSan in CI)
// --------------------------------------------------------------------------

TEST_F(TelemetryTest, ConcurrentHammerKeepsExactTotals) {
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;

  auto& reg = Registry::global();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &reg] {
      for (int i = 0; i < kIters; ++i) {
        // First-touch registration races on purpose: every thread resolves
        // the same names through get-or-create and the macros' magic statics.
        TELEMETRY_COUNT("hammer.counter", 1);
        TELEMETRY_GAUGE("hammer.gauge", static_cast<double>(t * kIters + i));
        reg.histogram("hammer.hist", 0.0, 1.0, 8)
            .add(static_cast<double>(i % 10) / 10.0);
        reg.series("hammer.series", 32).push(static_cast<double>(i));
        TELEMETRY_SPAN("hammer.span");
      }
    });
  }
  for (auto& th : threads) th.join();

  // Lock-free counters/histograms lose nothing.
  constexpr u64 kTotal = static_cast<u64>(kThreads) * kIters;
  EXPECT_EQ(reg.counter("hammer.counter").value(), kTotal);
  EXPECT_EQ(reg.histogram("hammer.hist", 0.0, 1.0, 8).count(), kTotal);
  u64 bucket_total = 0;
  const auto& h = reg.histogram("hammer.hist", 0.0, 1.0, 8);
  for (std::size_t b = 0; b < h.bins(); ++b) bucket_total += h.bucket(b);
  EXPECT_EQ(bucket_total, kTotal);

  // Gauge envelope spans the full written range; update count is exact.
  const auto& g = reg.gauge("hammer.gauge");
  EXPECT_EQ(g.updates(), kTotal);
  EXPECT_DOUBLE_EQ(g.min(), 0.0);
  EXPECT_DOUBLE_EQ(g.max(), static_cast<double>(kTotal - 1));

  EXPECT_EQ(reg.series("hammer.series", 32).count(), kTotal);

  // Trace: every event either recorded or counted as dropped, never lost.
  EXPECT_EQ(static_cast<u64>(reg.trace().size()) + reg.trace().dropped(),
            2 * kTotal);
  const auto snap = reg.trace().snapshot();
  EXPECT_EQ(snap.size(), reg.trace().size());
}

TEST_F(TelemetryTest, HistogramQuantilesStaySaneUnderConcurrentAdds) {
  // approx_quantile() walks the atomic buckets while writers keep adding:
  // a snapshot may be mid-add (a bucket incremented before the total), but
  // it must never tear — every quantile read has to come back inside the
  // histogram's value range, ordered (p50 <= p95 <= p99), and finite.
  constexpr int kWriters = 4;
  constexpr int kIters = 50000;
  constexpr double kLo = 0.0, kHi = 100.0;

  auto& h = Registry::global().histogram("hammer.quant", kLo, kHi, 20);
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([t, &h] {
      for (int i = 0; i < kIters; ++i)
        h.add(static_cast<double>((t * 37 + i) % 101));
    });
  }

  u64 reads = 0;
  while (!done.load(std::memory_order_relaxed)) {
    const double p50 = h.approx_quantile(0.50);
    const double p95 = h.approx_quantile(0.95);
    const double p99 = h.approx_quantile(0.99);
    for (const double q : {p50, p95, p99}) {
      ASSERT_GE(q, kLo);
      ASSERT_LE(q, kHi);
      ASSERT_TRUE(std::isfinite(q));
    }
    ASSERT_LE(p50, p95);
    ASSERT_LE(p95, p99);
    ++reads;
    if (h.count() >= static_cast<u64>(kWriters) * kIters)
      done.store(true, std::memory_order_relaxed);
  }
  for (auto& w : writers) w.join();

  // Quiescent: totals exact, quantiles within one bin width (5.0) of the
  // true uniform-distribution quantiles over [0, 100].
  EXPECT_EQ(h.count(), static_cast<u64>(kWriters) * kIters);
  EXPECT_NEAR(h.approx_quantile(0.50), 50.0, 5.0);
  EXPECT_NEAR(h.approx_quantile(0.95), 95.0, 5.0);
  EXPECT_GE(reads, 1u);
}

TEST_F(TelemetryTest, ConcurrentResetNeverCorrupts) {
  // reset() racing updates must leave metrics usable (values may be partial,
  // that is fine — this is the cached-reference survival guarantee).
  auto& c = Registry::global().counter("hammer.reset_counter");
  std::thread writer([&c] {
    for (int i = 0; i < 20000; ++i) c.add(1);
  });
  for (int i = 0; i < 50; ++i) Registry::global().reset();
  writer.join();
  c.add(1);
  EXPECT_GE(c.value(), 1u);
}

}  // namespace
