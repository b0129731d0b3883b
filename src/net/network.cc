#include "net/network.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "util/logging.h"

namespace besync {

namespace {
// Budget used for "unconstrained" links; large enough to never bind while
// staying far from int64 overflow when accumulated.
constexpr double kUnconstrainedBandwidth = 1e12;
}  // namespace

Network::Network(const NetworkConfig& config, Rng* rng,
                 const std::vector<std::vector<int32_t>>& sources_by_cache)
    : config_(config) {
  BESYNC_CHECK_GE(config.num_sources, 1);
  BESYNC_CHECK_GE(config.num_caches, 1);
  BESYNC_CHECK_GT(config.cache_bandwidth_avg, 0.0);
  const TopologySpec& topology = config_.topology;
  if (!topology.flat()) {
    const Status status = topology.Validate(config.num_caches);
    BESYNC_CHECK(status.ok()) << status.ToString();
  }

  // Leaf (cache) ingress links first, then source links — the historical
  // construction order, so the flat topology (and a pass-through tree,
  // whose relay links draw no randomness) consumes `rng` identically to
  // the pre-relay engine.
  cache_links_.reserve(config.num_caches);
  for (int c = 0; c < config.num_caches; ++c) {
    double bandwidth = config.cache_bandwidth_avg;
    if (c < static_cast<int>(config.cache_bandwidth_overrides.size()) &&
        config.cache_bandwidth_overrides[c] > 0.0) {
      bandwidth = config.cache_bandwidth_overrides[c];
    }
    bandwidth = topology.EdgeValue(topology.edge_bandwidth, c, bandwidth);
    cache_links_.push_back(std::make_unique<Link>(
        config.num_caches == 1 ? "cache" : "cache-" + std::to_string(c),
        std::make_unique<BandwidthModel>(MakeBandwidthFluctuation(
            bandwidth, config.bandwidth_change_rate, rng))));
  }
  source_links_.reserve(config.num_sources);
  const double source_bw = config.source_bandwidth_avg > 0.0
                               ? config.source_bandwidth_avg
                               : kUnconstrainedBandwidth;
  const double source_change_rate =
      config.source_bandwidth_avg > 0.0 ? config.bandwidth_change_rate : 0.0;
  for (int j = 0; j < config.num_sources; ++j) {
    source_links_.push_back(std::make_unique<Link>(
        "source-" + std::to_string(j),
        std::make_unique<BandwidthModel>(
            MakeBandwidthFluctuation(source_bw, source_change_rate, rng))));
  }

  // Relay ingress/egress links and routing tables (tree topologies only).
  first_hop_.resize(static_cast<size_t>(config.num_caches));
  for (int c = 0; c < config.num_caches; ++c) first_hop_[c] = c;
  children_.resize(static_cast<size_t>(
      topology.flat() ? config.num_caches : topology.num_nodes()));
  if (!topology.flat()) {
    const int nodes = topology.num_nodes();
    const std::vector<int64_t> leaves_below = topology.SubtreeLeafCounts();
    relay_links_.reserve(static_cast<size_t>(topology.num_relays()));
    relay_egress_.reserve(static_cast<size_t>(topology.num_relays()));
    for (int n = config.num_caches; n < nodes; ++n) {
      // Relay edge default: demand-proportional share (factor x leaves x
      // per-leaf bandwidth), or unconstrained when no factor is set — the
      // pass-through configuration.
      double fallback =
          topology.relay_bandwidth_factor > 0.0
              ? topology.relay_bandwidth_factor *
                    static_cast<double>(leaves_below[n]) * config.cache_bandwidth_avg
              : kUnconstrainedBandwidth;
      const double ingress_bw =
          topology.EdgeValue(topology.edge_bandwidth, n, fallback);
      const bool ingress_unconstrained = ingress_bw >= kUnconstrainedBandwidth;
      relay_links_.push_back(std::make_unique<Link>(
          "relay-" + std::to_string(n),
          std::make_unique<BandwidthModel>(MakeBandwidthFluctuation(
              ingress_bw,
              ingress_unconstrained ? 0.0 : config.bandwidth_change_rate, rng))));
      // Egress default: mirror the resolved ingress (a symmetric relay);
      // unconstrained ingress means unconstrained egress.
      const double egress_bw =
          topology.EdgeValue(topology.relay_egress_bandwidth, n, ingress_bw);
      const bool egress_unconstrained = egress_bw >= kUnconstrainedBandwidth;
      relay_egress_.push_back(std::make_unique<Link>(
          "relay-" + std::to_string(n) + "-egress",
          std::make_unique<BandwidthModel>(MakeBandwidthFluctuation(
              egress_bw,
              egress_unconstrained ? 0.0 : config.bandwidth_change_rate, rng))));
    }

    next_hop_.assign(static_cast<size_t>(topology.num_relays()),
                     std::vector<int32_t>(static_cast<size_t>(config.num_caches), -1));
    effective_parent_ = topology.parent;
    relay_alive_.assign(static_cast<size_t>(topology.num_relays()), 1);
    BuildRouting();
  } else {
    tier1_nodes_.resize(static_cast<size_t>(config.num_caches));
    for (int c = 0; c < config.num_caches; ++c) tier1_nodes_[c] = c;
  }

  BuildMailBoxes(sources_by_cache);

  all_links_.reserve(cache_links_.size() + source_links_.size() +
                     relay_links_.size() + relay_egress_.size());
  for (auto& link : cache_links_) all_links_.push_back(link.get());
  for (auto& link : source_links_) all_links_.push_back(link.get());
  for (auto& link : relay_links_) all_links_.push_back(link.get());
  for (auto& link : relay_egress_) all_links_.push_back(link.get());
}

void Network::BuildMailBoxes(
    const std::vector<std::vector<int32_t>>& sources_by_cache) {
  const int leaves = num_caches();
  const int nodes = num_nodes();
  mail_sources_.assign(static_cast<size_t>(nodes), {});
  if (sources_by_cache.empty()) {
    std::vector<int32_t> all(static_cast<size_t>(num_sources()));
    for (int j = 0; j < num_sources(); ++j) all[j] = j;
    for (int c = 0; c < leaves; ++c) mail_sources_[c] = all;
  } else {
    BESYNC_CHECK_EQ(sources_by_cache.size(), static_cast<size_t>(leaves));
    for (int c = 0; c < leaves; ++c) {
      const std::vector<int32_t>& list = sources_by_cache[c];
      for (size_t k = 0; k < list.size(); ++k) {
        BESYNC_CHECK(list[k] >= 0 && list[k] < num_sources())
            << "cache " << c << " lists unknown source " << list[k];
        if (k > 0) BESYNC_CHECK_GT(list[k], list[k - 1]);
      }
      mail_sources_[c] = list;
    }
  }
  if (has_relays()) {
    // A relay can come to hold mail from its own children and, while a
    // relay it backs up is down, from that relay's children. Its list is
    // the union over all of them, closed by iterating to a fixed point
    // (lists only grow, so the first pass that adds nothing ends it).
    const TopologySpec& topology = config_.topology;
    std::vector<std::vector<int32_t>> possible_children(static_cast<size_t>(nodes));
    for (int n = 0; n < nodes; ++n) {
      const int32_t p = topology.parent[n];
      if (p == -1) continue;
      possible_children[p].push_back(static_cast<int32_t>(n));
      const int32_t backup = topology.BackupParentOf(p);
      if (backup != -1) possible_children[backup].push_back(static_cast<int32_t>(n));
    }
    const std::vector<int32_t> relays = topology.RelaysBottomUp();
    std::vector<int32_t> merged;
    bool grew = true;
    while (grew) {
      grew = false;
      for (int32_t relay : relays) {
        std::vector<int32_t>& list = mail_sources_[relay];
        for (int32_t child : possible_children[relay]) {
          const std::vector<int32_t>& add = mail_sources_[child];
          merged.clear();
          std::set_union(list.begin(), list.end(), add.begin(), add.end(),
                         std::back_inserter(merged));
          if (merged.size() != list.size()) {
            list = merged;
            grew = true;
          }
        }
      }
    }
  }
  mail_base_.resize(static_cast<size_t>(nodes));
  int32_t total = 0;
  for (int n = 0; n < nodes; ++n) {
    mail_base_[n] = total;
    total += static_cast<int32_t>(mail_sources_[n].size());
  }
  boxes_.resize(static_cast<size_t>(total));
  box_node_.resize(static_cast<size_t>(total));
  for (int n = 0; n < nodes; ++n) {
    std::fill(box_node_.begin() + mail_base_[n],
              box_node_.begin() + mail_base_[n] +
                  static_cast<int32_t>(mail_sources_[n].size()),
              static_cast<int32_t>(n));
  }
}

const std::vector<int32_t>& Network::mail_sources(int node) const {
  BESYNC_CHECK_GE(node, 0);
  BESYNC_CHECK_LT(node, num_nodes());
  return mail_sources_[node];
}

int32_t Network::FindBox(int node, int source_index) const {
  const std::vector<int32_t>& sources = mail_sources(node);
  const auto it = std::lower_bound(sources.begin(), sources.end(), source_index);
  if (it == sources.end() || *it != source_index) return -1;
  return mail_base_[node] + static_cast<int32_t>(it - sources.begin());
}

int32_t Network::BoxOf(int node, int source_index) const {
  const int32_t box = FindBox(node, source_index);
  BESYNC_CHECK_GE(box, 0) << "node " << node << " has no control mail with source "
                          << source_index;
  return box;
}

void Network::BeginTick(double tick_start, double tick_len, ShardPool* pool) {
  if (pool != nullptr && pool->num_shards() > 1) {
    // Each link's tick state (budget, credit, stats) is self-contained, so
    // advancing disjoint slices in parallel is bitwise identical to the
    // sequential loop.
    pool->Run([this, tick_start, tick_len, pool](int shard) {
      const auto range = ShardPool::ShardRange(
          static_cast<int64_t>(all_links_.size()), shard, pool->num_shards());
      for (int64_t i = range.first; i < range.second; ++i) {
        all_links_[i]->BeginTick(tick_start, tick_len);
      }
    });
  } else {
    for (Link* link : all_links_) link->BeginTick(tick_start, tick_len);
  }
  for (int32_t box : dirty_incoming_) {
    MailBox& mail = boxes_[box];
    for (auto& message : mail.incoming) Deliverable(box).push_back(std::move(message));
    mail.incoming.clear();
  }
  dirty_incoming_.clear();
}

Link& Network::cache_link(int cache_id) {
  BESYNC_CHECK_GE(cache_id, 0);
  BESYNC_CHECK_LT(cache_id, num_caches());
  return *cache_links_[cache_id];
}

const Link& Network::cache_link(int cache_id) const {
  BESYNC_CHECK_GE(cache_id, 0);
  BESYNC_CHECK_LT(cache_id, num_caches());
  return *cache_links_[cache_id];
}

Link& Network::source_link(int source_index) {
  BESYNC_CHECK_GE(source_index, 0);
  BESYNC_CHECK_LT(source_index, num_sources());
  return *source_links_[source_index];
}

Link& Network::edge_link(int node) {
  if (node < num_caches()) return cache_link(node);
  return relay_ingress(node);
}

Link& Network::relay_ingress(int node) {
  BESYNC_CHECK_GE(node, num_caches());
  BESYNC_CHECK_LT(node, num_nodes());
  return *relay_links_[node - num_caches()];
}

Link& Network::relay_egress(int node) {
  BESYNC_CHECK_GE(node, num_caches());
  BESYNC_CHECK_LT(node, num_nodes());
  return *relay_egress_[node - num_caches()];
}

const std::vector<int32_t>& Network::children(int node) const {
  BESYNC_CHECK_GE(node, 0);
  BESYNC_CHECK_LT(node, num_nodes());
  return children_[node];
}

int32_t Network::NextHop(int node, int cache_id) const {
  const int32_t hop = TryNextHop(node, cache_id);
  BESYNC_CHECK_GE(hop, 0) << "cache " << cache_id << " is not below relay " << node;
  return hop;
}

int32_t Network::TryNextHop(int node, int cache_id) const {
  BESYNC_CHECK_GE(node, num_caches());
  BESYNC_CHECK_LT(node, num_nodes());
  BESYNC_CHECK_GE(cache_id, 0);
  BESYNC_CHECK_LT(cache_id, num_caches());
  return next_hop_[node - num_caches()][cache_id];
}

void Network::RecomputeEffectiveParents() {
  const TopologySpec& topology = config_.topology;
  const int leaves = num_caches();
  for (int n = 0; n < num_nodes(); ++n) {
    int32_t p = topology.parent[n];
    if (p != -1 && relay_alive_[p - leaves] == 0) {
      const int32_t backup = topology.BackupParentOf(p);
      p = (backup != -1 && relay_alive_[backup - leaves] != 0) ? backup : -1;
    }
    effective_parent_[n] = p;
  }
}

void Network::BuildRouting() {
  const int nodes = num_nodes();
  const int leaves = num_caches();
  for (auto& list : children_) list.clear();
  for (int n = 0; n < nodes; ++n) {
    if (n >= leaves && relay_alive_[n - leaves] == 0) continue;
    const int32_t p = effective_parent_[n];
    if (p != -1) children_[p].push_back(static_cast<int32_t>(n));
  }
  for (auto& row : next_hop_) std::fill(row.begin(), row.end(), -1);
  for (int leaf = 0; leaf < leaves; ++leaf) {
    int32_t below = static_cast<int32_t>(leaf);
    int32_t node = effective_parent_[leaf];
    int steps = 0;
    while (node != -1) {
      BESYNC_CHECK_LE(++steps, nodes) << "failover routing created a cycle";
      next_hop_[node - leaves][leaf] = below;
      below = node;
      node = effective_parent_[node];
    }
    first_hop_[leaf] = below;
  }
  // Pump/forward orders over the surviving relays, by height above the
  // leaves under the *effective* parent map (stable, so ascending node ids
  // break ties — the same order construction uses when nothing has failed).
  std::vector<int> height(static_cast<size_t>(nodes), 0);
  for (int leaf = 0; leaf < leaves; ++leaf) {
    int distance = 0;
    int32_t node = effective_parent_[leaf];
    while (node != -1) {
      ++distance;
      height[node] = std::max(height[node], distance);
      node = effective_parent_[node];
    }
  }
  std::vector<int32_t> alive;
  alive.reserve(relay_links_.size());
  for (int n = leaves; n < nodes; ++n) {
    if (relay_alive_[n - leaves] != 0) alive.push_back(static_cast<int32_t>(n));
  }
  upstream_relays_ = alive;
  std::stable_sort(upstream_relays_.begin(), upstream_relays_.end(),
                   [&height](int32_t a, int32_t b) { return height[a] < height[b]; });
  downstream_relays_ = alive;
  std::stable_sort(downstream_relays_.begin(), downstream_relays_.end(),
                   [&height](int32_t a, int32_t b) { return height[a] > height[b]; });
  tier1_nodes_.clear();
  for (int n = 0; n < nodes; ++n) {
    if (IsTier1(n)) tier1_nodes_.push_back(static_cast<int32_t>(n));
  }
}

void Network::FailRelay(int node) {
  BESYNC_CHECK(has_relays());
  BESYNC_CHECK_GE(node, num_caches());
  BESYNC_CHECK_LT(node, num_nodes());
  const int idx = node - num_caches();
  BESYNC_CHECK(relay_alive_[idx] != 0) << "relay " << node << " already failed";
  relay_alive_[idx] = 0;
  RecomputeEffectiveParents();
  BuildRouting();
  // Re-deposit control mail held at the failed relay at each message's
  // originating leaf, preserving order: the next PumpControlUpstream walks
  // it up the rebuilt tree, so feedback survives the failover. (Mail
  // normally drains every tick, so these buffers are almost always empty.)
  const std::vector<int32_t>& sources = mail_sources_[node];
  for (size_t k = 0; k < sources.size(); ++k) {
    MailBox& mail = boxes_[mail_base_[node] + static_cast<int32_t>(k)];
    BESYNC_DCHECK(mail.incoming.empty())
        << "control mail is only ever deposited at leaf edges";
    auto held = std::exchange(mail.deliverable, {});
    for (auto& message : held) {
      Deliverable(BoxOf(message.cache_id, sources[k])).push_back(std::move(message));
    }
  }
}

void Network::RecoverRelay(int node) {
  BESYNC_CHECK(has_relays());
  BESYNC_CHECK_GE(node, num_caches());
  BESYNC_CHECK_LT(node, num_nodes());
  const int idx = node - num_caches();
  BESYNC_CHECK(relay_alive_[idx] == 0) << "relay " << node << " is not failed";
  relay_alive_[idx] = 1;
  RecomputeEffectiveParents();
  BuildRouting();
}

void Network::SendToSource(int cache_id, int source_index, Message message) {
  BESYNC_CHECK_LT(cache_id, num_caches());
  message.cache_id = cache_id;
  const int32_t box = BoxOf(cache_id, source_index);
  if (boxes_[box].incoming.empty()) dirty_incoming_.push_back(box);
  boxes_[box].incoming.push_back(std::move(message));
}

void Network::SendToSource(int source_index, Message message) {
  SendToSource(/*cache_id=*/0, source_index, std::move(message));
}

int64_t Network::PumpControlUpstream() {
  int64_t moved = 0;
  // Children before parents: a relay drains its children's edges after any
  // lower relay has already pushed mail onto them, so every message reaches
  // its tier-1 edge within one pump.
  // A relay's box list covers each child's, so every nonempty child box
  // has a counterpart.
  for (int32_t relay : upstream_relays_) {
    for (int32_t child : children_[relay]) {
      const std::vector<int32_t>& sources = mail_sources_[child];
      for (size_t k = 0; k < sources.size(); ++k) {
        auto& from = boxes_[mail_base_[child] + static_cast<int32_t>(k)].deliverable;
        if (from.empty()) continue;
        auto& to = Deliverable(BoxOf(relay, sources[k]));
        moved += static_cast<int64_t>(from.size());
        for (auto& message : from) to.push_back(std::move(message));
        from.clear();
      }
    }
  }
  return moved;
}

void Network::TakeSourceMail(int node, int source_index, std::vector<Message>* out) {
  const int32_t box = FindBox(node, source_index);
  if (box >= 0) {
    TakeBoxMail(box, out);
  } else {
    out->clear();
  }
}

int32_t Network::TakeBoxMail(int32_t box, std::vector<Message>* out) {
  out->clear();
  // Swap only when there is mail, so idle boxes never pick up capacity.
  if (!boxes_[box].deliverable.empty()) out->swap(boxes_[box].deliverable);
  const int32_t node = box_node_[box];
  return mail_sources_[node][box - mail_base_[node]];
}

std::vector<Message>& Network::Deliverable(int32_t box) {
  std::vector<Message>& deliverable = boxes_[box].deliverable;
  if (deliverable.empty()) deliverable_boxes_.push_back(box);
  return deliverable;
}

const std::vector<int32_t>& Network::CollectTier1Mail() {
  // Every box holding deliverable mail is listed (boxes drained since are
  // stale entries, a refilled one may appear twice). Ascending box ids are
  // node-major with ascending sources, and tier-1 nodes ascend, so this is
  // the order of a nested tier1_nodes() x mail_sources() scan.
  std::sort(deliverable_boxes_.begin(), deliverable_boxes_.end());
  deliverable_boxes_.erase(
      std::unique(deliverable_boxes_.begin(), deliverable_boxes_.end()),
      deliverable_boxes_.end());
  tier1_mail_.clear();
  size_t kept = 0;
  for (int32_t box : deliverable_boxes_) {
    if (boxes_[box].deliverable.empty()) continue;
    if (IsTier1(box_node_[box])) tier1_mail_.push_back(box);
    // Kept for the next collection until a drain empties it.
    deliverable_boxes_[kept++] = box;
  }
  deliverable_boxes_.resize(kept);
  return tier1_mail_;
}

void Network::FinishTick() {
  for (auto& link : cache_links_) link->FinishTick();
  for (auto& link : source_links_) link->FinishTick();
  for (auto& link : relay_links_) link->FinishTick();
  for (auto& link : relay_egress_) link->FinishTick();
}

void Network::ResetStats() {
  for (auto& link : cache_links_) link->ResetStats();
  for (auto& link : source_links_) link->ResetStats();
  for (auto& link : relay_links_) link->ResetStats();
  for (auto& link : relay_egress_) link->ResetStats();
}

}  // namespace besync
