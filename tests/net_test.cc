#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/topology.h"
#include "net/bandwidth.h"
#include "net/link.h"
#include "net/network.h"

namespace besync {
namespace {

std::unique_ptr<BandwidthModel> ConstantBandwidth(double rate) {
  return std::make_unique<BandwidthModel>(Signal::Constant(rate));
}

TEST(BandwidthModelTest, IntegerRateYieldsExactBudget) {
  BandwidthModel model(Signal::Constant(5.0));
  for (int t = 0; t < 10; ++t) {
    EXPECT_EQ(model.BudgetForTick(t, 1.0), 5);
  }
}

TEST(BandwidthModelTest, FractionalRateAccumulatesCredit) {
  BandwidthModel model(Signal::Constant(0.5));
  int64_t total = 0;
  for (int t = 0; t < 100; ++t) total += model.BudgetForTick(t, 1.0);
  EXPECT_EQ(total, 50);  // 0.5 msg/s over 100 s
}

TEST(BandwidthModelTest, SineAveragesOut) {
  Rng rng(4);
  BandwidthModel model(MakeBandwidthFluctuation(10.0, 0.25, &rng));
  int64_t total = 0;
  const int kTicks = 1000;
  for (int t = 0; t < kTicks; ++t) total += model.BudgetForTick(t, 1.0);
  EXPECT_NEAR(static_cast<double>(total) / kTicks, 10.0, 0.5);
}

TEST(LinkTest, DeliversUpToBudget) {
  Link link("test", ConstantBandwidth(3.0));
  link.BeginTick(0.0, 1.0);
  for (int i = 0; i < 5; ++i) {
    Message message;
    message.object_index = i;
    link.Enqueue(message);
  }
  std::vector<int64_t> delivered;
  link.DeliverQueued([&](const Message& m) { delivered.push_back(m.object_index); });
  EXPECT_EQ(delivered, (std::vector<int64_t>{0, 1, 2}));  // FIFO, 3 of 5
  EXPECT_EQ(link.queue_size(), 2u);
  EXPECT_EQ(link.remaining_budget(), 0);

  link.BeginTick(1.0, 1.0);
  delivered.clear();
  link.DeliverQueued([&](const Message& m) { delivered.push_back(m.object_index); });
  EXPECT_EQ(delivered, (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(link.remaining_budget(), 1);
}

TEST(LinkTest, ConsumeBudgetGrantsPartial) {
  Link link("test", ConstantBandwidth(2.0));
  link.BeginTick(0.0, 1.0);
  EXPECT_EQ(link.ConsumeBudget(5), 2);
  EXPECT_EQ(link.ConsumeBudget(1), 0);
}

TEST(LinkTest, UtilizationTracksUsedOverOffered) {
  Link link("test", ConstantBandwidth(4.0));
  link.BeginTick(0.0, 1.0);
  link.ConsumeBudget(2);
  link.BeginTick(1.0, 1.0);  // closes previous tick's accounting
  EXPECT_DOUBLE_EQ(link.utilization().utilization(), 0.5);
}

TEST(LinkTest, QueueGrowsWhenOverloaded) {
  Link link("test", ConstantBandwidth(1.0));
  for (int tick = 0; tick < 10; ++tick) {
    link.BeginTick(tick, 1.0);
    for (int i = 0; i < 3; ++i) link.Enqueue(Message{});
    link.DeliverQueued([](const Message&) {});
  }
  // 30 enqueued, 10 delivered.
  EXPECT_EQ(link.queue_size(), 20u);
  EXPECT_GE(link.max_queue_size(), 20u);
}

TEST(LinkTest, ResetStatsPreservesQueue) {
  Link link("test", ConstantBandwidth(1.0));
  link.BeginTick(0.0, 1.0);
  link.Enqueue(Message{});
  link.Enqueue(Message{});
  link.ResetStats();
  EXPECT_EQ(link.queue_size(), 2u);
  EXPECT_EQ(link.messages_delivered(), 0);
}

/// Drains (node, source) control mail into a fresh vector.
std::vector<Message> TakeMail(Network* network, int node, int source_index) {
  std::vector<Message> mail;
  network->TakeSourceMail(node, source_index, &mail);
  return mail;
}

TEST(NetworkTest, ConstructsStarTopology) {
  NetworkConfig config;
  config.num_sources = 4;
  config.cache_bandwidth_avg = 10.0;
  config.source_bandwidth_avg = 2.0;
  Rng rng(1);
  Network network(config, &rng);
  EXPECT_EQ(network.num_sources(), 4);
  network.BeginTick(0.0, 1.0);
  EXPECT_EQ(network.cache_link().tick_budget(), 10);
  EXPECT_EQ(network.source_link(0).tick_budget(), 2);
}

TEST(NetworkTest, UnconstrainedSourceBandwidth) {
  NetworkConfig config;
  config.num_sources = 1;
  config.cache_bandwidth_avg = 5.0;
  config.source_bandwidth_avg = -1.0;  // unconstrained
  Rng rng(1);
  Network network(config, &rng);
  network.BeginTick(0.0, 1.0);
  EXPECT_GT(network.source_link(0).tick_budget(), 1000000);
}

TEST(NetworkTest, ControlMailDeliveredNextTick) {
  NetworkConfig config;
  config.num_sources = 2;
  config.cache_bandwidth_avg = 5.0;
  Rng rng(1);
  Network network(config, &rng);

  network.BeginTick(0.0, 1.0);
  Message feedback;
  feedback.kind = MessageKind::kFeedback;
  network.SendToSource(1, feedback);
  // Not deliverable within the same tick.
  EXPECT_TRUE(TakeMail(&network, 0, 1).empty());

  network.BeginTick(1.0, 1.0);
  auto mail = TakeMail(&network, 0, 1);
  ASSERT_EQ(mail.size(), 1u);
  EXPECT_EQ(mail[0].kind, MessageKind::kFeedback);
  // Draining is destructive.
  EXPECT_TRUE(TakeMail(&network, 0, 1).empty());
  // The other source got nothing.
  EXPECT_TRUE(TakeMail(&network, 0, 0).empty());
}

TEST(NetworkTest, ControlMailInvisibleUntilNextTickAndDrainedOnce) {
  // The double-buffer contract in one place: a deposit during tick t is
  // invisible for the whole of tick t (even across multiple reads), becomes
  // deliverable exactly at tick t+1, is drained exactly once, and does not
  // reappear at tick t+2.
  NetworkConfig config;
  config.num_sources = 1;
  config.cache_bandwidth_avg = 5.0;
  Rng rng(1);
  Network network(config, &rng);

  network.BeginTick(0.0, 1.0);
  Message feedback;
  feedback.kind = MessageKind::kFeedback;
  network.SendToSource(0, feedback);
  network.SendToSource(0, feedback);      // two deposits in the same tick
  EXPECT_TRUE(TakeMail(&network, 0, 0).empty());
  EXPECT_TRUE(TakeMail(&network, 0, 0).empty());  // still invisible

  network.BeginTick(1.0, 1.0);
  EXPECT_EQ(TakeMail(&network, 0, 0).size(), 2u);  // both, exactly once
  EXPECT_TRUE(TakeMail(&network, 0, 0).empty());

  network.BeginTick(2.0, 1.0);
  EXPECT_TRUE(TakeMail(&network, 0, 0).empty());  // gone for good
}

TEST(NetworkTest, UndrainedMailSurvivesIntoLaterTicks) {
  // A tick that never drains its mail must not lose it: deliverable mail
  // accumulates until the source reads it.
  NetworkConfig config;
  config.num_sources = 1;
  config.cache_bandwidth_avg = 5.0;
  Rng rng(1);
  Network network(config, &rng);

  network.BeginTick(0.0, 1.0);
  Message feedback;
  feedback.kind = MessageKind::kFeedback;
  network.SendToSource(0, feedback);
  network.BeginTick(1.0, 1.0);  // deliverable, but nobody drains
  network.SendToSource(0, feedback);
  network.BeginTick(2.0, 1.0);
  EXPECT_EQ(TakeMail(&network, 0, 0).size(), 2u);
}

// ------------------------------------------------- relay-tree control mail

/// Feedback from `cache_id` to `source_index`, tagged with a sequence
/// number (carried in `version`) so tests can check delivery order.
Message Tagged(int32_t cache_id, int64_t seq) {
  Message message;
  message.kind = MessageKind::kFeedback;
  message.cache_id = cache_id;
  message.version = seq;
  return message;
}

TEST(NetworkMailTest, BoxesExistOnlyForInterestPairs) {
  // 8 leaves under relays 8..11 (tier 2) and 12, 13 (tier 1); 5 sources,
  // each leaf cooperating with two of them.
  NetworkConfig config;
  config.num_sources = 5;
  config.num_caches = 8;
  config.topology = MakeRelayTree(8, 2, 2);
  std::vector<std::vector<int32_t>> sources_by_cache(8);
  for (int c = 0; c < 8; ++c) {
    sources_by_cache[c] = {c % 2, 2 + c % 3};
  }
  Rng rng(1);
  Network network(config, &rng, sources_by_cache);

  // Distinct (node, source) pairs: a leaf's own, and every source of every
  // leaf below a relay.
  std::set<std::pair<int, int32_t>> pairs;
  for (int c = 0; c < 8; ++c) {
    for (int32_t j : sources_by_cache[c]) {
      for (int node = c; node != -1; node = config.topology.parent[node]) {
        pairs.insert({node, j});
      }
    }
  }
  EXPECT_EQ(network.num_mail_boxes(), pairs.size());
  EXPECT_LT(network.num_mail_boxes(),
            static_cast<size_t>(network.num_nodes() * network.num_sources()));
  for (int node = 0; node < network.num_nodes(); ++node) {
    std::vector<int32_t> expected;
    for (const auto& pair : pairs) {
      if (pair.first == node) expected.push_back(pair.second);
    }
    EXPECT_EQ(network.mail_sources(node), expected) << "node " << node;
  }
  // Without an interest map every leaf talks to every source.
  Rng dense_rng(1);
  Network dense(config, &dense_rng);
  EXPECT_EQ(dense.num_mail_boxes(),
            static_cast<size_t>(dense.num_nodes() * dense.num_sources()));
}

TEST(NetworkMailTest, PumpKeepsPerLeafFifo) {
  // Leaves 0..3 under relays 4 (leaves 0, 1) and 5 (leaves 2, 3), which
  // sit under the tier-1 relay 6.
  NetworkConfig config;
  config.num_sources = 2;
  config.num_caches = 4;
  config.topology = MakeRelayTree(4, 2, 2);
  Rng rng(1);
  Network network(config, &rng, {{0, 1}, {1}, {1}, {0, 1}});
  ASSERT_EQ(network.tier1_nodes(), (std::vector<int32_t>{6}));

  // Interleaved deposits from three leaves toward source 1.
  int64_t seq = 0;
  for (int round = 0; round < 4; ++round) {
    for (int32_t leaf : {1, 0, 3}) {
      network.SendToSource(leaf, /*source_index=*/1, Tagged(leaf, seq++));
    }
  }
  network.SendToSource(/*cache_id=*/3, /*source_index=*/0, Tagged(3, seq++));
  network.BeginTick(0.0, 1.0);
  // Two hops for each of the 13 messages.
  EXPECT_EQ(network.PumpControlUpstream(), 26);

  const std::vector<Message> mail = TakeMail(&network, 6, 1);
  ASSERT_EQ(mail.size(), 12u);
  // Children drain in ascending node order, each in deposit order: all of
  // relay 4's mail (leaf 0's, then leaf 1's), then relay 5's (leaf 3's).
  std::vector<int32_t> leaves;
  std::vector<int64_t> last_seq(4, -1);
  for (const Message& message : mail) {
    leaves.push_back(message.cache_id);
    EXPECT_GT(message.version, last_seq[message.cache_id])
        << "leaf " << message.cache_id << " out of order";
    last_seq[message.cache_id] = message.version;
  }
  EXPECT_EQ(leaves, (std::vector<int32_t>{0, 0, 0, 0, 1, 1, 1, 1, 3, 3, 3, 3}));
  ASSERT_EQ(TakeMail(&network, 6, 0).size(), 1u);
  // Intermediate relays and leaves hold nothing after the pump.
  for (int node = 0; node < 6; ++node) {
    for (int32_t j : network.mail_sources(node)) {
      EXPECT_TRUE(TakeMail(&network, node, j).empty()) << node << "/" << j;
    }
  }
}

TEST(NetworkMailTest, FailedRelayMailIsRedepositedInOrder) {
  // Relays 4 (leaves 0, 1) and 5 (leaves 2, 3) are tier-1, each the
  // other's backup. Leaf 0 alone cooperates with source 1, so relay 5 only
  // holds a source-1 box because it can adopt leaf 0.
  NetworkConfig config;
  config.num_sources = 2;
  config.num_caches = 4;
  config.topology = MakeRelayTree(4, 2, 1);
  AssignBackupParents(&config.topology);
  ASSERT_EQ(config.topology.BackupParentOf(4), 5);
  Rng rng(1);
  Network network(config, &rng, {{0, 1}, {0}, {0}, {0}});
  EXPECT_EQ(network.mail_sources(5), (std::vector<int32_t>{0, 1}));

  int64_t seq = 0;
  for (int round = 0; round < 3; ++round) {
    network.SendToSource(1, /*source_index=*/0, Tagged(1, seq++));
    network.SendToSource(0, /*source_index=*/0, Tagged(0, seq++));
    network.SendToSource(0, /*source_index=*/1, Tagged(0, seq++));
  }
  network.BeginTick(0.0, 1.0);
  EXPECT_EQ(network.PumpControlUpstream(), 9);
  // The mail now sits at relay 4, undrained, when the relay fails.
  network.FailRelay(4);
  EXPECT_EQ(network.first_hop(0), 5);
  EXPECT_TRUE(TakeMail(&network, 4, 0).empty());
  EXPECT_TRUE(TakeMail(&network, 4, 1).empty());

  // Re-deposited at each originating leaf, deliverable at once and in
  // deposit order; the next pump carries it up the rebuilt tree.
  EXPECT_EQ(network.PumpControlUpstream(), 9);
  auto seqs = [](const std::vector<Message>& mail) {
    std::vector<std::pair<int32_t, int64_t>> out;
    for (const Message& message : mail) out.push_back({message.cache_id, message.version});
    return out;
  };
  EXPECT_EQ(seqs(TakeMail(&network, 5, 0)),
            (std::vector<std::pair<int32_t, int64_t>>{
                {0, 1}, {0, 4}, {0, 7}, {1, 0}, {1, 3}, {1, 6}}));
  EXPECT_EQ(seqs(TakeMail(&network, 5, 1)),
            (std::vector<std::pair<int32_t, int64_t>>{{0, 2}, {0, 5}, {0, 8}}));
}

// The scheduler drains only the boxes CollectTier1Mail lists. Over random
// deposits, relay failures and recoveries, that visits exactly the mail a
// TakeSourceMail scan over tier1_nodes() x mail_sources() finds, in the same
// order.
TEST(NetworkMailTest, CollectTier1MailMatchesNestedScan) {
  for (const bool tree : {false, true}) {
    NetworkConfig config;
    config.num_sources = 5;
    config.num_caches = 8;
    if (tree) {
      config.topology = MakeRelayTree(8, 2, 2);
      AssignBackupParents(&config.topology);
    }
    const std::vector<std::vector<int32_t>> sources_by_cache = {
        {0, 1}, {1}, {2, 3, 4}, {0}, {4}, {1, 2}, {3}, {0, 4}};
    Rng rng_scan(1);
    Rng rng_collect(1);
    Network scanned(config, &rng_scan, sources_by_cache);
    Network collected(config, &rng_collect, sources_by_cache);
    Rng deposits(17);
    int64_t seq = 0;
    int64_t total = 0;
    for (int tick = 0; tick < 40; ++tick) {
      if (tree && tick == 10) {
        scanned.FailRelay(8);
        collected.FailRelay(8);
      }
      if (tree && tick == 25) {
        scanned.RecoverRelay(8);
        collected.RecoverRelay(8);
      }
      for (Network* network : {&scanned, &collected}) {
        network->BeginTick(tick, 1.0);
        network->PumpControlUpstream();
      }
      std::vector<std::pair<int32_t, int64_t>> expected;
      std::vector<Message> mail;
      for (int32_t node : scanned.tier1_nodes()) {
        for (int32_t j : scanned.mail_sources(node)) {
          scanned.TakeSourceMail(node, j, &mail);
          for (const Message& message : mail) expected.push_back({j, message.version});
        }
      }
      std::vector<std::pair<int32_t, int64_t>> actual;
      for (int32_t box : collected.CollectTier1Mail()) {
        const int32_t source = collected.TakeBoxMail(box, &mail);
        EXPECT_FALSE(mail.empty()) << "listed box " << box << " had no mail";
        for (const Message& message : mail) actual.push_back({source, message.version});
      }
      EXPECT_EQ(actual, expected) << (tree ? "tree" : "flat") << " tick " << tick;
      total += static_cast<int64_t>(expected.size());
      const int count = static_cast<int>(deposits.UniformInt(0, 12));
      for (int k = 0; k < count; ++k) {
        const int32_t cache = static_cast<int32_t>(deposits.UniformInt(0, 7));
        const std::vector<int32_t>& sources = sources_by_cache[cache];
        const int32_t source = sources[deposits.UniformInt(
            0, static_cast<int64_t>(sources.size()) - 1)];
        scanned.SendToSource(cache, source, Tagged(cache, seq));
        collected.SendToSource(cache, source, Tagged(cache, seq));
        ++seq;
      }
    }
    EXPECT_GT(total, 100);
  }
}

TEST(NetworkTest, FluctuatingBandwidthAverages) {
  NetworkConfig config;
  config.num_sources = 1;
  config.cache_bandwidth_avg = 20.0;
  config.bandwidth_change_rate = 0.05;
  Rng rng(7);
  Network network(config, &rng);
  int64_t total = 0;
  const int kTicks = 2000;
  for (int t = 0; t < kTicks; ++t) {
    network.BeginTick(t, 1.0);
    total += network.cache_link().tick_budget();
  }
  EXPECT_NEAR(static_cast<double>(total) / kTicks, 20.0, 1.0);
}

}  // namespace
}  // namespace besync
