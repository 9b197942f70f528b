// Multi-site topology: sites joined by WAN links, hosts attached to sites.
//
// Mirrors the paper's Fig 1 / Fig 7 testbed: clusters of workstations at the
// Dallas convention center, LBNL, ANL, ISI, NCAR, SDSC and LLNL, joined by
// SciNET / NTON / HSCC / Abilene segments.  Each host contributes three
// capacitated resources to the data path — its disk array, its NIC, and its
// CPU (the paper's GbE hosts were interrupt-limited at 100% CPU) — and each
// link contributes one resource per direction (full duplex).
//
// Routing is static shortest-latency (Dijkstra, deterministic tie-breaks);
// outages do not reroute, they stall flows until GridFTP's restart logic
// kicks in — exactly the behaviour the paper reports in Figure 8.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "net/fluid.hpp"
#include "sim/simulation.hpp"

namespace esg::net {

class Network;

struct LinkConfig {
  std::string name;
  std::string site_a;
  std::string site_b;
  Rate capacity = common::gbps(1);
  SimDuration latency = 5 * common::kMillisecond;  // one-way
  double loss = 0.0;  // packet loss probability (drives the Mathis cap)
};

class Link {
 public:
  const std::string& name() const { return name_; }
  const std::string& site_a() const { return site_a_; }
  const std::string& site_b() const { return site_b_; }
  SimDuration latency() const { return latency_; }
  double loss() const { return loss_; }
  /// Configured (healthy) values, kept so chaos injection can restore a
  /// link after a brownout or loss spike ends.
  Rate nominal_capacity() const { return nominal_capacity_; }
  double nominal_loss() const { return nominal_loss_; }
  Resource* forward() const { return forward_; }   // a -> b direction
  Resource* backward() const { return backward_; } // b -> a direction

 private:
  friend class Network;
  std::string name_, site_a_, site_b_;
  SimDuration latency_ = 0;
  double loss_ = 0.0;
  Rate nominal_capacity_ = 0.0;
  double nominal_loss_ = 0.0;
  Resource* forward_ = nullptr;
  Resource* backward_ = nullptr;
};

struct HostConfig {
  std::string name;
  std::string site;
  Rate nic_rate = common::gbps(1);
  /// Interrupt-limited byte-processing ceiling; interrupt coalescing and
  /// jumbo frames raise it (paper §7 discussion).
  Rate cpu_rate = common::mbps(700);
  /// Aggregate disk bandwidth (the paper used software RAID to keep disk
  /// off the critical path at SC'2000, but hit disk limits in Fig 8).
  Rate disk_rate = common::mbps(400);
};

class Host {
 public:
  const std::string& name() const { return name_; }
  const std::string& site() const { return site_; }
  Resource* nic() const { return nic_; }
  Resource* cpu() const { return cpu_; }
  Resource* disk() const { return disk_; }
  bool down() const { return down_; }

 private:
  friend class Network;
  std::string name_, site_;
  std::uint32_t site_id_ = 0;  // the site's dense id (route cache key)
  Resource* nic_ = nullptr;
  Resource* cpu_ = nullptr;
  Resource* disk_ = nullptr;
  bool down_ = false;
};

/// End-to-end path description consumed by the TCP model.
struct PathInfo {
  std::vector<const Resource*> resources;  // ordered src -> dst
  SimDuration latency = 0;                 // one-way propagation
  double loss = 0.0;                       // end-to-end loss probability
  bool up = true;                          // false if any hop is down
};

class Network {
 public:
  explicit Network(sim::Simulation& simulation);

  sim::Simulation& simulation() { return sim_; }
  FluidNetwork& fluid() { return fluid_; }

  void add_site(const std::string& name);
  Link* add_link(const LinkConfig& config);
  Host* add_host(const HostConfig& config);

  Host* find_host(const std::string& name);
  Link* find_link(const std::string& name);
  bool has_site(const std::string& name) const { return sites_.count(name) > 0; }

  /// Full data path between two hosts.  `include_disks` is off for paths
  /// that never touch storage (NWS probe traffic, control channels).
  PathInfo path(const Host& src, const Host& dst,
                bool include_disks = true) const;

  /// Round-trip time between two hosts (propagation only).
  SimDuration rtt(const Host& a, const Host& b) const;

  /// Take a whole host down/up (power-failure injection): its NIC passes no
  /// bytes and services on it stop answering.
  void set_host_down(Host& host, bool down);

  /// Take a WAN link down/up in both directions.
  void set_link_down(Link& link, bool down);

  /// Brownout injection: degrade a link to `fraction` of its nominal
  /// capacity in both directions (0 = as good as down, 1 = restore).  Flows
  /// in progress re-share the reduced capacity immediately.
  void set_link_brownout(Link& link, double fraction);

  /// Loss-spike injection: change a link's packet-loss probability.  The
  /// Mathis cap is computed at connection setup, so spikes throttle
  /// transfers that *start* during the spike — established flows ride it
  /// out, exactly like real long-lived TCP under transient loss.
  void set_link_loss(Link& link, double loss);

  /// Apply an outage by name: matches a link name or a host name.
  /// Unknown targets are ignored (they may be service-level targets).
  void apply_outage(const std::string& target, bool down);

  /// Control-plane message: invokes `deliver(true)` after the one-way
  /// latency plus serialization, or `deliver(false)` after a timeout if the
  /// path is down at send time (lost datagram model).
  void send_message(const Host& from, const Host& to, Bytes size,
                    std::function<void(bool ok)> deliver);

  std::vector<std::string> host_names() const;

 private:
  struct Route {
    std::vector<const Link*> links;  // in order from site_a side
    std::vector<bool> forward;       // per link: traversed a->b?
    SimDuration latency = 0;
    double loss = 0.0;
  };

  /// The cached route from `src`'s site to `dst`'s, keyed by site ids.
  const Route* route_between(const Host& src, const Host& dst) const;
  Route compute_route(const std::string& from, const std::string& to) const;

  sim::Simulation& sim_;
  FluidNetwork fluid_;
  std::map<std::string, std::uint32_t> sites_;  // name -> dense site id
  std::map<std::string, std::unique_ptr<Host>> hosts_;
  std::map<std::string, std::unique_ptr<Link>> links_;
  // Routes by [from site id * site count + to site id], computed on first
  // use; emptied whenever a link or a link's loss changes.
  mutable std::vector<std::optional<Route>> route_cache_;

  // Intra-host / intra-site hop costs.
  static constexpr SimDuration kLocalLatency = 50 * common::kMicrosecond;
  static constexpr SimDuration kLanLatency = 200 * common::kMicrosecond;
  static constexpr SimDuration kMessageOverhead = 100 * common::kMicrosecond;
  static constexpr SimDuration kLostMessageTimeout = 5 * common::kSecond;
  static constexpr Rate kControlRate = common::mbps(100);
};

}  // namespace esg::net
