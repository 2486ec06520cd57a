// Tests for antarex::monitor: the topic grammar, the sharded broker's
// delivery order and drop accounting, the bounded-memory aggregation pieces
// (retention ring, space-saving top-K), the anomaly detector's
// per-kind semantics on synthetic frames, ground-truth evaluation, and the
// assembled fabric end-to-end on a small faulted rtrm::ShardedCluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/pool.hpp"
#include "fault/fault.hpp"
#include "govern/coordinator.hpp"
#include "monitor/monitor.hpp"
#include "obs/policy.hpp"
#include "sharded_common.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::monitor {
namespace {

using power::DeviceSpec;
using power::DeviceType;
using power::WorkloadModel;

MetricFrame make_frame(double t_s, u32 node, u16 shard, float power_w,
                       float temp_c, float util, float progress_ups) {
  MetricFrame f;
  f.t_s = t_s;
  f.node = node;
  f.shard = shard;
  f.busy_devices = util > 0.0f ? 1 : 0;
  f.power_w = power_w;
  f.temp_c = temp_c;
  f.util = util;
  f.progress_ups = progress_ups;
  return f;
}

// --------------------------------------------------------------------------
// Topic grammar
// --------------------------------------------------------------------------

TEST(Topic, CanonicalTopicString) {
  EXPECT_EQ(topic_for(3, 17, Metric::PowerW), "cluster/3/node/17/power_w");
  EXPECT_EQ(topic_for(0, 0, Metric::TempC), "cluster/0/node/0/temp_c");
  EXPECT_EQ(topic_for(1, 2, Metric::Utilization), "cluster/1/node/2/util");
  EXPECT_EQ(topic_for(7, 9, Metric::ProgressUps),
            "cluster/7/node/9/progress_ups");
}

TEST(Topic, ParseExactAndWildcardPatterns) {
  const TopicFilter exact = parse_topic_filter("cluster/3/node/17/power_w");
  EXPECT_EQ(exact.shard, 3u);
  EXPECT_EQ(exact.node, 17u);
  EXPECT_TRUE(exact.matches(3, 17));
  EXPECT_FALSE(exact.matches(3, 18));
  EXPECT_FALSE(exact.matches(2, 17));

  const TopicFilter any_node = parse_topic_filter("cluster/1/node/+/temp_c");
  EXPECT_TRUE(any_node.matches(1, 0));
  EXPECT_TRUE(any_node.matches(1, 999));
  EXPECT_FALSE(any_node.matches(2, 0));

  const TopicFilter subtree = parse_topic_filter("cluster/2/#");
  EXPECT_TRUE(subtree.matches(2, 5));
  EXPECT_FALSE(subtree.matches(3, 5));

  const TopicFilter all = parse_topic_filter("#");
  EXPECT_TRUE(all.matches(0, 0));
  EXPECT_TRUE(all.matches(7, 123));
}

TEST(Topic, RejectsPatternsOutsideTheGrammar) {
  EXPECT_THROW(parse_topic_filter(""), Error);
  EXPECT_THROW(parse_topic_filter("rack/1/node/2/power_w"), Error);
  EXPECT_THROW(parse_topic_filter("cluster/x/node/2/power_w"), Error);
  EXPECT_THROW(parse_topic_filter("cluster/1/node/2/bogus"), Error);
  EXPECT_THROW(parse_topic_filter("cluster/#/node/2/power_w"), Error);
  EXPECT_THROW(parse_topic_filter("cluster/1/node/2/power_w/extra"), Error);
}

TEST(Topic, StringMatcherReferenceSemantics) {
  EXPECT_TRUE(topic_matches("#", "cluster/1/node/2/power_w"));
  EXPECT_TRUE(topic_matches("cluster/+/node/+/power_w",
                            "cluster/4/node/8/power_w"));
  EXPECT_FALSE(topic_matches("cluster/+/node/+/power_w",
                             "cluster/4/node/8/temp_c"));
  EXPECT_TRUE(topic_matches("cluster/4/#", "cluster/4/node/8/temp_c"));
  EXPECT_FALSE(topic_matches("cluster/4/#", "cluster/5/node/8/temp_c"));
  // Truncated pattern without a wildcard matches nothing deeper.
  EXPECT_FALSE(topic_matches("cluster/4", "cluster/4/node/8/temp_c"));
}

// --------------------------------------------------------------------------
// Broker
// --------------------------------------------------------------------------

TEST(Broker, DrainsShardsInOrderFifoWithinShard) {
  Broker broker(2);
  std::vector<u32> seen;
  broker.subscribe("#", [&](const MetricFrame& f) { seen.push_back(f.node); });
  for (u32 n = 0; n < 6; ++n)
    broker.publish(make_frame(1.0, n, static_cast<u16>(n % 2), 100, 50, 1, 1));
  EXPECT_EQ(broker.drain(), 6u);
  // Shard 0 first (nodes 0,2,4 FIFO), then shard 1 (1,3,5).
  EXPECT_EQ(seen, (std::vector<u32>{0, 2, 4, 1, 3, 5}));
  EXPECT_EQ(broker.published(), 6u);
  EXPECT_EQ(broker.delivered(), 6u);
  EXPECT_EQ(broker.delivered_last_drain(), 6u);
  EXPECT_EQ(broker.total_dropped(), 0u);
}

TEST(Broker, WildcardSubscriptionsFilterDelivery) {
  Broker broker(4);
  std::vector<u32> shard2_nodes, node3_hits;
  broker.subscribe("cluster/2/#",
                   [&](const MetricFrame& f) { shard2_nodes.push_back(f.node); });
  broker.subscribe("cluster/+/node/3/power_w",
                   [&](const MetricFrame& f) { node3_hits.push_back(f.node); });
  for (u32 n = 0; n < 8; ++n)
    broker.publish(make_frame(1.0, n, static_cast<u16>(n % 4), 100, 50, 1, 1));
  broker.drain();
  EXPECT_EQ(shard2_nodes, (std::vector<u32>{2, 6}));
  EXPECT_EQ(node3_hits, (std::vector<u32>{3}));
}

TEST(Broker, FullQueueDropsAreCountedPerShardAndInTelemetry) {
  telemetry::set_enabled(true);
  telemetry::Registry::global().reset();
  BrokerConfig cfg;
  cfg.queue_capacity = 2;
  constexpr u64 kDrops = 1000;
  Broker broker(2, cfg);
  for (u64 i = 0; i < cfg.queue_capacity + kDrops; ++i)
    broker.publish(make_frame(1.0, 0, 0, 100, 50, 1, 1));
  EXPECT_EQ(broker.dropped(0), kDrops);
  EXPECT_EQ(broker.dropped(1), 0u);
  EXPECT_EQ(broker.total_dropped(), kDrops);
  EXPECT_EQ(broker.drain(), 2u);
  // Every drop surfaced in the shard's telemetry drop counter; a shard that
  // never dropped registers none.
  bool found = false;
  for (const auto& [name, counter] : telemetry::Registry::global().drop_counters()) {
    EXPECT_NE(name, "monitor.broker.dropped.cluster/1");
    if (name == "monitor.broker.dropped.cluster/0") {
      found = true;
      EXPECT_EQ(counter->value(), kDrops);
    }
  }
  EXPECT_TRUE(found);
  telemetry::set_enabled(false);
}

// --------------------------------------------------------------------------
// TopK (SpaceSaving)
// --------------------------------------------------------------------------

TEST(TopK, RanksAndInheritsOnEviction) {
  TopK top(2);
  top.offer(1, 5.0);
  top.offer(2, 3.0);
  top.offer(3, 4.0);  // evicts key 2 (min), inherits its count as error
  const auto ranked = top.ranked();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].key, 3u);
  EXPECT_DOUBLE_EQ(ranked[0].weight, 7.0);
  EXPECT_DOUBLE_EQ(ranked[0].error, 3.0);
  EXPECT_EQ(ranked[1].key, 1u);
  EXPECT_DOUBLE_EQ(ranked[1].weight, 5.0);
  EXPECT_DOUBLE_EQ(top.guaranteed_weight(3), 4.0);  // weight - error
  EXPECT_DOUBLE_EQ(top.guaranteed_weight(1), 5.0);
  EXPECT_DOUBLE_EQ(top.guaranteed_weight(99), 0.0);
  EXPECT_DOUBLE_EQ(top.total_weight(), 12.0);
}

TEST(TopK, HeavyHitterAlwaysSurvives) {
  // SpaceSaving guarantee: any key with true weight > total/K is present.
  TopK top(4);
  for (int round = 0; round < 100; ++round) {
    top.offer(7, 3.0);                        // the heavy hitter
    top.offer(static_cast<u32>(100 + round)); // churn of singletons
  }
  EXPECT_GT(top.guaranteed_weight(7), 0.0);
  bool present = false;
  for (const auto& e : top.ranked()) present = present || e.key == 7;
  EXPECT_TRUE(present);
}

// --------------------------------------------------------------------------
// RetentionRing
// --------------------------------------------------------------------------

TEST(Ring, FoldsTenPushesIntoTheCoarserLevel) {
  RetentionRing ring(4);
  for (int i = 1; i <= 40; ++i) ring.push(i);
  EXPECT_EQ(ring.pushes(), 40u);

  const auto fine = ring.history(0);
  ASSERT_EQ(fine.size(), 4u);
  EXPECT_DOUBLE_EQ(fine.back().mean, 40.0);
  EXPECT_DOUBLE_EQ(fine.front().mean, 37.0);

  // Level 1 holds means-of-10 with the group's min/max envelope.
  const auto coarse = ring.history(1);
  ASSERT_EQ(coarse.size(), 4u);
  EXPECT_DOUBLE_EQ(coarse[0].mean, 5.5);
  EXPECT_DOUBLE_EQ(coarse[0].min, 1.0);
  EXPECT_DOUBLE_EQ(coarse[0].max, 10.0);
  EXPECT_DOUBLE_EQ(coarse[3].mean, 35.5);

  EXPECT_TRUE(ring.history(2).empty());  // needs 100 pushes per cell
}

TEST(Ring, OldestFineCellsSurviveOnlyCoarsened) {
  RetentionRing ring(4);
  for (int i = 1; i <= 1000; ++i) ring.push(i);
  const auto coarsest = ring.history(2);
  ASSERT_EQ(coarsest.size(), 4u);
  // Means-of-100: groups ending at 700, 800, 900, 1000.
  EXPECT_DOUBLE_EQ(coarsest[0].mean, 650.5);
  EXPECT_DOUBLE_EQ(coarsest[3].mean, 950.5);
  EXPECT_DOUBLE_EQ(coarsest[3].min, 901.0);
  EXPECT_DOUBLE_EQ(coarsest[3].max, 1000.0);
}

// --------------------------------------------------------------------------
// ShardAggregator
// --------------------------------------------------------------------------

TEST(Aggregator, ShardStatsRollUpToClusterStats) {
  ShardAggregator agg(2);
  agg.ingest(make_frame(1.0, 0, 0, 100, 50, 1, 1));
  agg.ingest(make_frame(1.0, 1, 1, 200, 60, 1, 2));
  agg.ingest(make_frame(1.0, 2, 0, 300, 40, 1, 3));
  EXPECT_EQ(agg.frames(), 3u);

  EXPECT_EQ(agg.shard_stat(0, Metric::PowerW).count, 2u);
  EXPECT_DOUBLE_EQ(agg.shard_stat(0, Metric::PowerW).mean(), 200.0);
  EXPECT_EQ(agg.shard_stat(1, Metric::PowerW).count, 1u);

  const StreamStat cluster = agg.cluster_stat(Metric::PowerW);
  EXPECT_EQ(cluster.count, 3u);
  EXPECT_DOUBLE_EQ(cluster.sum, 600.0);
  EXPECT_DOUBLE_EQ(cluster.min, 100.0);
  EXPECT_DOUBLE_EQ(cluster.max, 300.0);

  // Conservation: per-shard sums account for every delivered watt.
  double shard_sum = 0.0;
  for (std::size_t s = 0; s < agg.shards(); ++s)
    shard_sum += agg.shard_stat(s, Metric::PowerW).sum;
  EXPECT_DOUBLE_EQ(shard_sum, cluster.sum);

  const double p50 = agg.cluster_quantile(Metric::PowerW, 0.5);
  EXPECT_GE(p50, 100.0);
  EXPECT_LE(p50, 300.0);
}

TEST(Aggregator, RollStepFeedsRingsAndHotNodesTrackOutliers) {
  ShardAggregator agg(1);
  agg.ingest(make_frame(1.0, 0, 0, 100, 90, 1, 1));  // 20 C over the hot mark
  agg.ingest(make_frame(1.0, 1, 0, 100, 50, 1, 1));
  EXPECT_EQ(agg.ring(Metric::PowerW).pushes(), 0u);
  agg.roll_step();
  EXPECT_EQ(agg.ring(Metric::PowerW).pushes(), 1u);
  EXPECT_DOUBLE_EQ(agg.ring(Metric::PowerW).history(0).back().mean, 100.0);
  EXPECT_DOUBLE_EQ(agg.ring(Metric::TempC).history(0).back().mean, 70.0);

  const auto hot = agg.hot_nodes().ranked();
  ASSERT_EQ(hot.size(), 1u);  // only the 90 C node crossed the mark
  EXPECT_EQ(hot[0].key, 0u);
  EXPECT_DOUBLE_EQ(hot[0].weight, 20.0);

  // Memory bound is configuration-shaped, not load-shaped.
  const std::size_t before = agg.approx_bytes();
  for (u32 n = 0; n < 10000; ++n)
    agg.ingest(make_frame(2.0, n, 0, 100, 50, 1, 1));
  EXPECT_EQ(agg.approx_bytes(), before);
}

// --------------------------------------------------------------------------
// AnomalyDetector on synthetic frames
// --------------------------------------------------------------------------

constexpr float kP = 100.0f, kT = 50.0f, kG = 1.0f;  // the healthy operating point

void warm_up(AnomalyDetector& det, double* t, u16 shard = 0, int samples = 12) {
  for (int i = 0; i < samples; ++i)
    det.observe(make_frame((*t)++, 0, shard, kP, kT, 1.0f, kG));
}

TEST(Detector, WarmupSuppressesJudgment) {
  AnomalyDetector det(1);
  double t = 0.0;
  for (int i = 0; i < 4; ++i)
    det.observe(make_frame(t++, 0, 0, 900.0f, 120.0f, 1.0f, 0.01f));
  EXPECT_TRUE(det.episodes().empty());
  EXPECT_EQ(det.flagged_samples(), 0u);
}

TEST(Detector, PowerSpikeOpensInOneSampleAndClosesAfterQuiet) {
  AnomalyDetector det(1);
  double t = 0.0;
  warm_up(det, &t);
  det.observe(make_frame(t++, 0, 0, 600.0f, kT, 1.0f, kG));  // the spike
  EXPECT_EQ(det.active(), 1u);
  ASSERT_EQ(det.episodes().size(), 1u);
  EXPECT_EQ(det.episodes()[0].kind, AnomalyKind::PowerSpike);
  EXPECT_TRUE(det.episodes()[0].open);
  for (int i = 0; i < 3; ++i)  // quiet_close = 3
    det.observe(make_frame(t++, 0, 0, kP, kT, 1.0f, kG));
  EXPECT_EQ(det.active(), 0u);
  ASSERT_EQ(det.closed().size(), 1u);
  const Episode& e = det.closed()[0];
  EXPECT_EQ(e.node, 0u);
  EXPECT_FALSE(e.open);
  EXPECT_GT(e.peak_z, det.config().z_open);
  EXPECT_DOUBLE_EQ(e.open_t_s, e.close_t_s);  // one-sample anomaly
}

TEST(Detector, PowerSignatureSplitsThrottleFromSlowNode) {
  AnomalyDetector det(1);
  double t = 0.0;
  warm_up(det, &t);
  // Node 1: progress collapse with a matching power drop -> Throttle.
  // Node 2: same collapse at normal power -> SlowNode.
  for (int i = 0; i < 2; ++i) {  // open_after = 2
    det.observe(make_frame(t, 1, 0, 55.0f, kT, 1.0f, 0.3f));
    det.observe(make_frame(t, 2, 0, kP, kT, 1.0f, 0.3f));
    t += 1.0;
  }
  const auto episodes = det.episodes();
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_EQ(episodes[0].node, 1u);
  EXPECT_EQ(episodes[0].kind, AnomalyKind::Throttle);
  EXPECT_EQ(episodes[1].node, 2u);
  EXPECT_EQ(episodes[1].kind, AnomalyKind::SlowNode);
}

TEST(Detector, ThermalRunawayOnTemperature) {
  AnomalyDetector det(1);
  double t = 0.0;
  warm_up(det, &t);
  for (int i = 0; i < 2; ++i)
    det.observe(make_frame(t++, 3, 0, kP, 95.0f, 1.0f, kG));
  ASSERT_EQ(det.episodes().size(), 1u);
  EXPECT_EQ(det.episodes()[0].kind, AnomalyKind::ThermalRunaway);
}

TEST(Detector, IdleSamplesAreNeverJudgedAndCountAsQuiet) {
  AnomalyDetector det(1);
  double t = 0.0;
  warm_up(det, &t);
  // An idle node with absurd readings is not an anomaly.
  det.observe(make_frame(t++, 4, 0, 600.0f, 95.0f, 0.0f, 0.0f));
  EXPECT_TRUE(det.episodes().empty());
  // An open episode closes when the node goes idle for quiet_close samples.
  det.observe(make_frame(t++, 5, 0, 600.0f, kT, 1.0f, kG));
  EXPECT_EQ(det.active(), 1u);
  for (int i = 0; i < 3; ++i)
    det.observe(make_frame(t++, 5, 0, 0.0f, 30.0f, 0.0f, 0.0f));
  EXPECT_EQ(det.active(), 0u);
  EXPECT_EQ(det.closed().size(), 1u);
}

TEST(Detector, AnomaliesDoNotContaminateTheBaseline) {
  AnomalyDetector det(1);
  double t = 0.0;
  warm_up(det, &t);
  // A stuck throttle held for far longer than 1/alpha samples must stay one
  // open episode: if flagged samples taught the baseline, the anomaly would
  // become "normal" and the episode would close on its own.
  for (int i = 0; i < 60; ++i)
    det.observe(make_frame(t++, 1, 0, 55.0f, kT, 1.0f, 0.3f));
  EXPECT_EQ(det.active(), 1u);
  ASSERT_EQ(det.episodes().size(), 1u);
  EXPECT_EQ(det.episodes()[0].kind, AnomalyKind::Throttle);
  // Healthy frames still read as healthy against the unpoisoned baseline.
  for (int i = 0; i < 3; ++i)
    det.observe(make_frame(t++, 1, 0, kP, kT, 1.0f, kG));
  EXPECT_EQ(det.active(), 0u);
  EXPECT_EQ(det.closed().size(), 1u);
}

TEST(Detector, TrackedMapIsBoundedAndOverflowIsCounted) {
  DetectorConfig cfg;
  cfg.max_tracked = 1;
  AnomalyDetector det(1, cfg);
  double t = 0.0;
  warm_up(det, &t);
  det.observe(make_frame(t, 1, 0, 600.0f, kT, 1.0f, kG));
  det.observe(make_frame(t, 2, 0, 600.0f, kT, 1.0f, kG));  // no slot left
  EXPECT_EQ(det.active(), 1u);
  EXPECT_EQ(det.tracked_overflow(), 1u);
}

// --------------------------------------------------------------------------
// Ground truth + evaluation
// --------------------------------------------------------------------------

fault::FaultEvent event(double at_s, fault::FaultKind kind, u32 node,
                        double magnitude = 0.0, double duration_s = 0.0) {
  fault::FaultEvent e;
  e.at_s = at_s;
  e.kind = kind;
  e.node = node;
  e.magnitude = magnitude;
  e.duration_s = duration_s;
  return e;
}

TEST(Eval, GroundTruthLabelsAndQualification) {
  fault::FaultSchedule sched;
  sched.horizon_s = 50.0;
  sched.events = {
      event(10.0, fault::FaultKind::NodeCrash, 0),  // no episode
      event(15.0, fault::FaultKind::SensorGlitch, 3, 200.0),
      event(17.0, fault::FaultKind::GlitchClear, 3),
      event(20.0, fault::FaultKind::ThermalThrottle, 1, 0.0, 6.0),
      event(25.0, fault::FaultKind::NodeRepair, 0),
      event(30.0, fault::FaultKind::SlowNode, 2, 2.0),
      event(48.0, fault::FaultKind::SlowNode, 4, 2.0),  // unended: to horizon
  };
  sched.events.push_back(event(40.0, fault::FaultKind::SlowNodeEnd, 2));
  std::sort(sched.events.begin(), sched.events.end(),
            [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
              return a.at_s < b.at_s;
            });

  EvalConfig cfg;
  cfg.horizon_s = 50.0;
  const auto gt = ground_truth(sched, cfg);
  ASSERT_EQ(gt.size(), 4u);  // crash/repair produce nothing

  // Sorted by start: glitch(15), throttle(20), slow(30), slow(48).
  EXPECT_EQ(gt[0].kind, AnomalyKind::PowerSpike);
  EXPECT_FALSE(gt[0].qualifies);  // 2 samples inside < min_samples
  EXPECT_EQ(gt[1].kind, AnomalyKind::Throttle);
  EXPECT_EQ(gt[1].node, 1u);
  EXPECT_DOUBLE_EQ(gt[1].end_s, 26.0);
  EXPECT_TRUE(gt[1].qualifies);
  EXPECT_EQ(gt[2].kind, AnomalyKind::SlowNode);
  EXPECT_DOUBLE_EQ(gt[2].end_s, 40.0);
  EXPECT_TRUE(gt[2].qualifies);
  EXPECT_DOUBLE_EQ(gt[3].end_s, 50.0);  // ran to the horizon
  EXPECT_FALSE(gt[3].qualifies);        // only 2 instants inside
}

Episode detection(u32 node, AnomalyKind kind, double open_s, double close_s) {
  Episode e;
  e.node = node;
  e.kind = kind;
  e.open_t_s = open_s;
  e.close_t_s = close_s;
  return e;
}

TEST(Eval, PrecisionAndRecallScoring) {
  std::vector<GroundTruthEpisode> truth = {
      {1, AnomalyKind::Throttle, 20.0, 26.0, true},
      {2, AnomalyKind::SlowNode, 30.0, 40.0, true},
      {5, AnomalyKind::SlowNode, 10.0, 20.0, false},  // unobservable
  };
  const std::vector<Episode> detections = {
      detection(1, AnomalyKind::Throttle, 22.0, 27.0),   // TP (overlap)
      detection(2, AnomalyKind::SlowNode, 41.0, 44.0),   // TP via slack
      detection(9, AnomalyKind::SlowNode, 5.0, 6.0),     // false positive
  };
  EvalConfig cfg;
  cfg.horizon_s = 50.0;
  const EvalResult r = evaluate(truth, detections, cfg);

  const KindScore& throttle = r.of(AnomalyKind::Throttle);
  EXPECT_EQ(throttle.detected, 1u);
  EXPECT_EQ(throttle.true_positives, 1u);
  EXPECT_DOUBLE_EQ(throttle.precision(), 1.0);
  EXPECT_DOUBLE_EQ(throttle.recall(), 1.0);

  const KindScore& slow = r.of(AnomalyKind::SlowNode);
  EXPECT_EQ(slow.gt_total, 2u);
  EXPECT_EQ(slow.gt_qualifying, 1u);
  EXPECT_EQ(slow.detected, 2u);
  EXPECT_EQ(slow.true_positives, 1u);
  EXPECT_DOUBLE_EQ(slow.precision(), 0.5);
  EXPECT_DOUBLE_EQ(slow.recall(), 1.0);

  // Nothing detected, nothing qualifying: both scores degenerate to 1.
  const KindScore& thermal = r.of(AnomalyKind::ThermalRunaway);
  EXPECT_DOUBLE_EQ(thermal.precision(), 1.0);
  EXPECT_DOUBLE_EQ(thermal.recall(), 1.0);
}

TEST(Eval, CrossKindMatchOnlyWhereSignaturesGenuinelyBlend) {
  // Node 1 has only a SlowNode GT: a Throttle detection there is wrong.
  // Node 2 has overlapping Throttle + SlowNode GT: either label matches.
  const std::vector<GroundTruthEpisode> truth = {
      {1, AnomalyKind::SlowNode, 20.0, 30.0, true},
      {2, AnomalyKind::SlowNode, 20.0, 30.0, true},
      {2, AnomalyKind::Throttle, 22.0, 28.0, true},
  };
  const std::vector<Episode> detections = {
      detection(1, AnomalyKind::Throttle, 21.0, 29.0),
      detection(2, AnomalyKind::Throttle, 21.0, 29.0),
  };
  EvalConfig cfg;
  cfg.horizon_s = 50.0;
  const EvalResult r = evaluate(truth, detections, cfg);
  EXPECT_EQ(r.of(AnomalyKind::Throttle).detected, 2u);
  EXPECT_EQ(r.of(AnomalyKind::Throttle).true_positives, 1u);
  EXPECT_EQ(r.of(AnomalyKind::SlowNode).gt_matched, 1u);  // node 2's, via blend
}

// --------------------------------------------------------------------------
// MonitorFabric end-to-end on a faulted cluster
// --------------------------------------------------------------------------

WorkloadModel cpu_work() {
  WorkloadModel w;
  w.cpu_gcycles = 60.0;
  w.cores_used = 12;
  w.activity = 0.9;
  return w;
}

/// Appends `nodes` nodes of one Xeon socket each, 40 W base power.
void add_cpu_nodes(rtrm::ShardedCluster& c, std::size_t nodes) {
  const u32 cpu = c.add_spec(DeviceSpec::xeon_haswell());
  for (std::size_t i = 0; i < nodes; ++i)
    c.add_node(40.0, {{cpu, power::Variability{}}});
}

void submit_long_jobs(rtrm::ShardedCluster& c, std::size_t jobs) {
  for (std::size_t j = 1; j <= jobs; ++j) {
    rtrm::Job job;
    job.id = j;
    job.name = "job" + std::to_string(j);
    job.units = 500.0;  // far longer than any horizon used here
    job.profiles[DeviceType::Cpu] = cpu_work();
    c.submit(std::move(job));
  }
}

fault::FaultSchedule faulted_schedule(double horizon_s) {
  fault::FaultSchedule s;
  s.horizon_s = horizon_s;
  s.events = {
      event(20.0, fault::FaultKind::ThermalThrottle, 2, 0.0, 10.0),
      event(25.0, fault::FaultKind::SensorGlitch, 3, 200.0),
      event(27.0, fault::FaultKind::GlitchClear, 3),
      event(30.0, fault::FaultKind::SlowNode, 5, 2.0),
      event(45.0, fault::FaultKind::SlowNodeEnd, 5),
  };
  return s;
}

std::string run_monitored(int threads, double horizon_s,
                          std::string* health_out) {
  rtrm::ShardedCluster cluster;
  add_cpu_nodes(cluster, 8);
  submit_long_jobs(cluster, 8);

  FabricConfig cfg;
  cfg.shards = 4;
  MonitorFabric fabric(cfg);
  fabric.attach(cluster);
  fault::FaultInjector injector(cluster, faulted_schedule(horizon_s));

  exec::ThreadPool pool(threads);
  cluster.set_pool(&pool);
  cluster.run_for(horizon_s, 0.25);

  EvalConfig ecfg;
  ecfg.horizon_s = horizon_s;
  const auto gt = ground_truth(injector.schedule(), ecfg);
  const EvalResult r = evaluate(gt, fabric.detector().episodes(), ecfg);
  std::string digest;
  for (std::size_t k = 0; k < kAnomalyKindCount; ++k)
    digest += format("%s p=%.3f r=%.3f d=%llu\n",
                     anomaly_kind_name(static_cast<AnomalyKind>(k)),
                     r.kinds[k].precision(), r.kinds[k].recall(),
                     (unsigned long long)r.kinds[k].detected);
  if (health_out) *health_out = fabric.health_json();
  return digest;
}

TEST(Fabric, DetectsInjectedFaultsWithCleanPrecision) {
  rtrm::ShardedCluster cluster;
  add_cpu_nodes(cluster, 8);
  submit_long_jobs(cluster, 8);

  FabricConfig cfg;
  cfg.shards = 4;
  MonitorFabric fabric(cfg);
  fabric.attach(cluster);
  fault::FaultInjector injector(cluster, faulted_schedule(60.0));
  cluster.run_for(60.0, 0.25);

  // One frame per alive node per 1 s sampling sweep, zero drops.
  EXPECT_GE(fabric.samples(), 58u);
  EXPECT_EQ(fabric.broker().published(), 8 * fabric.samples());
  EXPECT_EQ(fabric.broker().total_dropped(), 0u);
  EXPECT_EQ(fabric.aggregator().frames(), fabric.broker().delivered());

  EvalConfig ecfg;
  ecfg.horizon_s = 60.0;
  const auto gt = ground_truth(injector.schedule(), ecfg);
  const EvalResult r = evaluate(gt, fabric.detector().episodes(), ecfg);

  // The injected throttle and slowdown are found, with nothing spurious.
  EXPECT_DOUBLE_EQ(r.of(AnomalyKind::Throttle).recall(), 1.0);
  EXPECT_DOUBLE_EQ(r.of(AnomalyKind::SlowNode).recall(), 1.0);
  for (std::size_t k = 0; k < kAnomalyKindCount; ++k)
    EXPECT_DOUBLE_EQ(r.kinds[k].precision(), 1.0)
        << anomaly_kind_name(static_cast<AnomalyKind>(k));
  // The sensor glitch shows up as a power spike detection (its GT window is
  // too short to qualify for recall, but the detection itself matches it).
  EXPECT_GE(r.of(AnomalyKind::PowerSpike).detected, 1u);
}

TEST(Fabric, HealthJsonCarriesTheDashboardSections) {
  std::string health;
  run_monitored(1, 60.0, &health);
  EXPECT_NE(health.find("\"schema\":\"antarex.monitor.health/v1\""),
            std::string::npos);
  EXPECT_NE(health.find("\"shards\":4"), std::string::npos);
  EXPECT_NE(health.find("\"metrics\":{\"power_w\""), std::string::npos);
  EXPECT_NE(health.find("\"shard_mean\""), std::string::npos);
  EXPECT_NE(health.find("\"ring\""), std::string::npos);
  EXPECT_NE(health.find("\"episodes\":[{"), std::string::npos);
  EXPECT_NE(health.find("\"kind\":\"throttle\""), std::string::npos);
  EXPECT_NE(health.find("\"kind\":\"slow_node\""), std::string::npos);
}

TEST(Fabric, ByteIdenticalAcrossExecThreadCounts) {
  std::string health1, health2, health8;
  const std::string d1 = run_monitored(1, 40.0, &health1);
  const std::string d2 = run_monitored(2, 40.0, &health2);
  const std::string d8 = run_monitored(8, 40.0, &health8);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d8);
  EXPECT_EQ(health1, health2);
  EXPECT_EQ(health1, health8);
}

TEST(Fabric, DownedNodesStopPublishing) {
  rtrm::ShardedCluster cluster;
  add_cpu_nodes(cluster, 4);
  submit_long_jobs(cluster, 4);
  MonitorFabric fabric;
  fabric.attach(cluster);

  fault::FaultSchedule s;
  s.horizon_s = 30.0;
  s.events = {event(10.0, fault::FaultKind::NodeCrash, 0),
              event(20.0, fault::FaultKind::NodeRepair, 0)};
  fault::FaultInjector injector(cluster, s);
  cluster.run_for(30.0, 0.25);

  // Node 0 was silent for ~10 of ~29 sampling sweeps.
  EXPECT_LT(fabric.broker().published(), 4 * fabric.samples());
  EXPECT_GT(fabric.broker().published(), 3 * fabric.samples());
}

// --------------------------------------------------------------------------
// Plant parity: the sampler's view of the sharded plant equals the health
// document recorded from the original per-object plant, at any shard count
// --------------------------------------------------------------------------

constexpr std::size_t kParityNodes = 48;
constexpr double kParityHorizonS = 120.0;
constexpr u64 kParitySeed = 19;

std::string sharded_health(std::size_t shards) {
  rtrm::ShardedClusterConfig cfg;
  cfg.shards = shards;
  rtrm::ShardedCluster cluster(cfg);
  rtrm::ClusterBlueprint::exascale(kParitySeed, kParityNodes).build(cluster);
  rtrm::submit_job_mix(cluster, kParitySeed, 2 * kParityNodes);
  MonitorFabric fabric;
  fabric.attach(cluster);
  fault::FaultInjector driver(
      cluster,
      rtrm::make_fault_schedule(kParityNodes, kParityHorizonS, kParitySeed));
  cluster.run_for(kParityHorizonS, 0.25);
  return fabric.health_json();
}

TEST(Fabric, HealthJsonMatchesTheRecordedPlantOracle) {
  std::ifstream in(std::string(ANTAREX_GOLDEN_DIR) +
                       "/monitor_oracle_health_19.json",
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing monitor_oracle_health_19.json";
  std::stringstream oracle;
  oracle << in.rdbuf();
  // The faulted run must exercise the whole document, episodes included.
  ASSERT_NE(oracle.str().find("\"episodes\":[{"), std::string::npos);
  EXPECT_EQ(oracle.str(), sharded_health(1));
  EXPECT_EQ(oracle.str(), sharded_health(4));
}

// --------------------------------------------------------------------------
// Closing the loop: governance + policies
// --------------------------------------------------------------------------

TEST(Fabric, FeedGovernanceShavesAndRestoresNodeWeight) {
  rtrm::ShardedCluster cluster;
  rtrm::ClusterBlueprint::exascale(1, 2).build(cluster);
  govern::CapCoordinatorConfig gcfg;
  gcfg.cluster_cap_w = 500.0;
  govern::CapCoordinator coordinator(cluster, gcfg);

  FabricConfig cfg;
  cfg.shards = 1;
  MonitorFabric fabric(cfg);
  feed_governance(fabric, coordinator, 0.25);

  AnomalyDetector& det = fabric.detector();
  double t = 0.0;
  warm_up(det, &t);
  // A throttle on node 1 shaves its share; recovery restores it.
  for (int i = 0; i < 2; ++i)
    det.observe(make_frame(t++, 1, 0, 55.0f, kT, 1.0f, 0.3f));
  EXPECT_DOUBLE_EQ(coordinator.node_weight(1), 0.25);
  EXPECT_DOUBLE_EQ(coordinator.node_weight(0), 1.0);
  for (int i = 0; i < 3; ++i)
    det.observe(make_frame(t++, 1, 0, kP, kT, 1.0f, kG));
  EXPECT_DOUBLE_EQ(coordinator.node_weight(1), 1.0);

  // A sensor glitch (PowerSpike) is a broken reading, not a broken node:
  // its episodes never touch the weights.
  det.observe(make_frame(t++, 0, 0, 600.0f, kT, 1.0f, kG));
  EXPECT_EQ(det.active(), 1u);
  EXPECT_DOUBLE_EQ(coordinator.node_weight(0), 1.0);
}

TEST(Fabric, AnomalyPolicyFiresWhileEpisodesAreOpen) {
  telemetry::set_enabled(true);
  telemetry::Registry::global().reset();

  obs::PolicyEngine engine;
  install_anomaly_policies(engine);

  AnomalyDetector det(1);
  double t = 0.0;
  warm_up(det, &t);
  engine.tick(t);
  EXPECT_EQ(engine.fires("monitor.anomaly_alert"), 0u);

  det.observe(make_frame(t++, 1, 0, 600.0f, kT, 1.0f, kG));  // gauge -> 1
  engine.tick(t);
  EXPECT_EQ(engine.fires("monitor.anomaly_alert"), 1u);
  EXPECT_EQ(telemetry::Registry::global().counter("obs.alerts.anomaly").value(),
            1u);

  for (int i = 0; i < 3; ++i)
    det.observe(make_frame(t++, 1, 0, kP, kT, 1.0f, kG));  // gauge -> 0
  engine.tick(t + 10.0);  // past the cooldown: silent because cleared
  EXPECT_EQ(engine.fires("monitor.anomaly_alert"), 1u);

  telemetry::set_enabled(false);
}

}  // namespace
}  // namespace antarex::monitor
