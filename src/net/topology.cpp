#include "net/topology.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>
#include <queue>
#include <set>

namespace esg::net {

Network::Network(sim::Simulation& simulation)
    : sim_(simulation), fluid_(simulation) {}

void Network::add_site(const std::string& name) {
  sites_.emplace(name, static_cast<std::uint32_t>(sites_.size()));
}

Link* Network::add_link(const LinkConfig& config) {
  assert(sites_.count(config.site_a) && "unknown site");
  assert(sites_.count(config.site_b) && "unknown site");
  auto link = std::make_unique<Link>();
  link->name_ = config.name;
  link->site_a_ = config.site_a;
  link->site_b_ = config.site_b;
  link->latency_ = config.latency;
  link->loss_ = config.loss;
  link->nominal_capacity_ = config.capacity;
  link->nominal_loss_ = config.loss;
  link->forward_ = fluid_.add_resource("link:" + config.name + ":fwd",
                                       config.capacity);
  link->backward_ = fluid_.add_resource("link:" + config.name + ":bwd",
                                        config.capacity);
  Link* ptr = link.get();
  auto [it, inserted] = links_.emplace(config.name, std::move(link));
  assert(inserted && "duplicate link name");
  (void)it;
  route_cache_.clear();
  return ptr;
}

Host* Network::add_host(const HostConfig& config) {
  assert(sites_.count(config.site) && "unknown site");
  auto host = std::make_unique<Host>();
  host->name_ = config.name;
  host->site_ = config.site;
  // An unknown site (asserted above) joins with no links: unreachable.
  host->site_id_ =
      sites_.emplace(config.site, static_cast<std::uint32_t>(sites_.size()))
          .first->second;
  host->nic_ = fluid_.add_resource("host:" + config.name + ":nic",
                                   config.nic_rate);
  host->cpu_ = fluid_.add_resource("host:" + config.name + ":cpu",
                                   config.cpu_rate);
  host->disk_ = fluid_.add_resource("host:" + config.name + ":disk",
                                    config.disk_rate);
  Host* ptr = host.get();
  auto [it, inserted] = hosts_.emplace(config.name, std::move(host));
  assert(inserted && "duplicate host name");
  (void)it;
  return ptr;
}

Host* Network::find_host(const std::string& name) {
  auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : it->second.get();
}

Link* Network::find_link(const std::string& name) {
  auto it = links_.find(name);
  return it == links_.end() ? nullptr : it->second.get();
}

Network::Route Network::compute_route(const std::string& from,
                                      const std::string& to) const {
  // Dijkstra over sites, minimizing latency with deterministic tie-breaks
  // (hop count, then lexical link name).
  struct NodeState {
    SimDuration dist = std::numeric_limits<SimDuration>::max();
    int hops = 0;
    const Link* via = nullptr;
    std::string prev;
    bool done = false;
  };
  std::map<std::string, NodeState> state;
  for (const auto& [name, unused] : sites_) state[name];
  (void)state;

  state[from].dist = 0;
  using QueueItem = std::tuple<SimDuration, int, std::string>;
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> pq;
  pq.emplace(0, 0, from);
  while (!pq.empty()) {
    auto [dist, hops, site] = pq.top();
    pq.pop();
    auto& st = state[site];
    if (st.done) continue;
    st.done = true;
    if (site == to) break;
    // Deterministic edge order: links_ is an ordered map by name.
    for (const auto& [lname, link] : links_) {
      std::string other;
      if (link->site_a_ == site) {
        other = link->site_b_;
      } else if (link->site_b_ == site) {
        other = link->site_a_;
      } else {
        continue;
      }
      auto& ost = state[other];
      const SimDuration nd = dist + link->latency_;
      const int nh = hops + 1;
      if (nd < ost.dist || (nd == ost.dist && nh < ost.hops)) {
        ost.dist = nd;
        ost.hops = nh;
        ost.via = link.get();
        ost.prev = site;
        pq.emplace(nd, nh, other);
      }
    }
  }

  Route route;
  if (state[to].dist == std::numeric_limits<SimDuration>::max()) {
    return route;  // unreachable: empty route with zero latency
  }
  // Walk predecessors back to `from`.
  std::string cursor = to;
  while (cursor != from) {
    const auto& st = state[cursor];
    route.links.push_back(st.via);
    route.forward.push_back(st.via->site_b_ == cursor);
    route.latency += st.via->latency_;
    cursor = st.prev;
  }
  std::reverse(route.links.begin(), route.links.end());
  std::reverse(route.forward.begin(), route.forward.end());
  double pass = 1.0;
  for (const Link* l : route.links) pass *= 1.0 - l->loss_;
  route.loss = 1.0 - pass;
  return route;
}

const Network::Route* Network::route_between(const Host& src,
                                             const Host& dst) const {
  const std::size_t sites = sites_.size();
  // A site added since the cache was laid out changes its stride.
  if (route_cache_.size() != sites * sites) {
    route_cache_.clear();
    route_cache_.resize(sites * sites);
  }
  std::optional<Route>& route =
      route_cache_[src.site_id_ * sites + dst.site_id_];
  if (!route) route = compute_route(src.site_, dst.site_);
  return &*route;
}

PathInfo Network::path(const Host& src, const Host& dst,
                       bool include_disks) const {
  PathInfo info;
  if (&src == &dst) {
    // Local copy: disk-to-disk on one host.
    if (include_disks) info.resources.push_back(src.disk_);
    info.resources.push_back(src.cpu_);
    info.latency = kLocalLatency;
    info.up = !src.down_;
    return info;
  }
  const Route* route =
      src.site_id_ == dst.site_id_ ? nullptr : route_between(src, dst);
  // Disk, CPU and NIC at each end, plus one resource per WAN link.
  info.resources.reserve(6 + (route != nullptr ? route->links.size() : 0));
  if (include_disks) info.resources.push_back(src.disk_);
  info.resources.push_back(src.cpu_);
  info.resources.push_back(src.nic_);
  if (route == nullptr) {
    info.latency = kLanLatency;
  } else {
    if (route->links.empty()) {
      info.up = false;  // unreachable
      return info;
    }
    for (std::size_t i = 0; i < route->links.size(); ++i) {
      const Link* l = route->links[i];
      info.resources.push_back(route->forward[i] ? l->forward_ : l->backward_);
    }
    info.latency = route->latency + kLanLatency;
    info.loss = route->loss;
  }
  info.resources.push_back(dst.nic_);
  info.resources.push_back(dst.cpu_);
  if (include_disks) info.resources.push_back(dst.disk_);
  info.up = !src.down_ && !dst.down_;
  for (const Resource* r : info.resources) {
    if (r->down()) info.up = false;
  }
  return info;
}

SimDuration Network::rtt(const Host& a, const Host& b) const {
  // path()'s latency, without building its resource list.
  if (&a == &b) return 2 * kLocalLatency;
  if (a.site_id_ == b.site_id_) return 2 * kLanLatency;
  const Route* route = route_between(a, b);
  return route->links.empty() ? 0 : 2 * (route->latency + kLanLatency);
}

void Network::set_host_down(Host& host, bool down) {
  host.down_ = down;
  fluid_.set_down(host.nic_, down);
  sim_.flight_recorder().record("net", down ? "host.down" : "host.up",
                                host.name());
}

void Network::set_link_down(Link& link, bool down) {
  fluid_.batch([&] {
    fluid_.set_down(link.forward_, down);
    fluid_.set_down(link.backward_, down);
  });
  sim_.flight_recorder().record("net", down ? "link.down" : "link.up",
                                link.name());
}

void Network::set_link_brownout(Link& link, double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const Rate capacity = link.nominal_capacity_ * fraction;
  fluid_.batch([&] {
    fluid_.set_capacity(link.forward_, capacity);
    fluid_.set_capacity(link.backward_, capacity);
  });
  char frac[32];
  std::snprintf(frac, sizeof frac, "%g", fraction);
  sim_.flight_recorder().record(
      "net", fraction < 1.0 ? "link.brownout" : "link.restored", link.name(),
      {{"fraction", frac}});
}

void Network::set_link_loss(Link& link, double loss) {
  link.loss_ = std::clamp(loss, 0.0, 1.0);
  // Routes cache the folded end-to-end loss; recompute lazily.
  route_cache_.clear();
  char rate[32];
  std::snprintf(rate, sizeof rate, "%g", link.loss_);
  sim_.flight_recorder().record(
      "net", link.loss_ > 0.0 ? "link.loss" : "link.loss_cleared", link.name(),
      {{"loss", rate}});
}

void Network::apply_outage(const std::string& target, bool down) {
  if (Link* link = find_link(target)) {
    set_link_down(*link, down);
    return;
  }
  if (Host* host = find_host(target)) {
    set_host_down(*host, down);
  }
}

void Network::send_message(const Host& from, const Host& to, Bytes size,
                           std::function<void(bool ok)> deliver) {
  const PathInfo info = path(from, to, /*include_disks=*/false);
  if (!info.up) {
    sim_.schedule_after(kLostMessageTimeout,
                        [deliver = std::move(deliver)] { deliver(false); });
    return;
  }
  const auto serialize = static_cast<SimDuration>(
      static_cast<double>(size) / kControlRate *
      static_cast<double>(common::kSecond));
  sim_.schedule_after(info.latency + serialize + kMessageOverhead,
                      [deliver = std::move(deliver)] { deliver(true); });
}

std::vector<std::string> Network::host_names() const {
  std::vector<std::string> out;
  out.reserve(hosts_.size());
  for (const auto& [name, unused] : hosts_) out.push_back(name);
  return out;
}

}  // namespace esg::net
