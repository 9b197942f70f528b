// NWS sensors: periodic latency pings and bandwidth probe transfers over
// host pairs, feeding adaptive forecasters and publishing to an information
// service (MDS in the prototype).
//
// Probes ride the same fluid network as foreground traffic, so a congested
// or failed path shows up in measurements exactly as it would have at
// SC'2000; the request manager's replica selection then sees it through
// the forecasts.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/tcp.hpp"
#include "nws/forecast.hpp"
#include "obs/metrics.hpp"

namespace esg::nws {

using common::Rate;
using common::SimDuration;
using common::SimTime;

struct SensorConfig {
  /// Probe interval; 0 disables the automatic periodic tick (a SensorClique
  /// or test drives measure() manually).
  SimDuration period = 60 * common::kSecond;
  common::Bytes probe_size = common::kMB;  // 1 MB bandwidth probe
  std::uint64_t seed = 1234;
};

struct Measurement {
  Rate bandwidth = 0.0;          // achieved probe rate (0 if probe failed)
  SimDuration latency = 0;       // measured RTT
  SimTime at = 0;
  bool probe_failed = false;
};

/// Published after every measurement round.
using PublishFn = std::function<void(const std::string& src_host,
                                     const std::string& dst_host,
                                     Rate bandwidth_forecast,
                                     SimDuration latency_forecast,
                                     const Measurement& raw)>;

/// Host sensor: NWS also "forecasts ... available CPU percentage for each
/// machine that it monitors" (paper §5).  The emulator's ground truth is
/// the host CPU resource's free fraction; the sensor observes it with
/// noise and publishes an adaptive forecast.
class HostSensor {
 public:
  using HostPublishFn =
      std::function<void(const std::string& host, double cpu_available)>;

  HostSensor(net::Network& network, const net::Host& host,
             SimDuration period, HostPublishFn publish,
             std::uint64_t seed = 99, double noise = 0.03);
  ~HostSensor();

  HostSensor(const HostSensor&) = delete;
  HostSensor& operator=(const HostSensor&) = delete;

  void stop();
  double cpu_forecast() const { return forecast_.predict(); }
  std::size_t rounds() const { return rounds_; }

 private:
  net::Network& net_;
  const net::Host& host_;
  HostPublishFn publish_;
  common::Rng rng_;
  double noise_;
  AdaptiveForecaster forecast_;
  sim::EventHandle tick_;
  std::size_t rounds_ = 0;
};

class NwsSensor {
 public:
  NwsSensor(net::Network& network, const net::Host& src, const net::Host& dst,
            SensorConfig config, PublishFn publish);
  ~NwsSensor();

  NwsSensor(const NwsSensor&) = delete;
  NwsSensor& operator=(const NwsSensor&) = delete;

  void stop();

  /// Run one measurement round now; `done` (optional) fires when the probe
  /// resolves.  Used by SensorClique's token passing and by tests.
  void measure(std::function<void()> done = nullptr);

  Rate bandwidth_forecast() const { return bandwidth_.predict(); }
  SimDuration latency_forecast() const {
    return static_cast<SimDuration>(latency_.predict());
  }
  const Measurement& last_measurement() const { return last_; }
  std::size_t rounds() const { return rounds_; }
  const AdaptiveForecaster& bandwidth_forecaster() const { return bandwidth_; }

 private:

  net::Network& net_;
  const net::Host& src_;
  const net::Host& dst_;
  SensorConfig config_;
  PublishFn publish_;
  common::Rng rng_;
  AdaptiveForecaster bandwidth_;
  AdaptiveForecaster latency_;
  Measurement last_;
  std::unique_ptr<net::TcpTransfer> probe_;
  sim::EventHandle tick_;
  std::size_t rounds_ = 0;
  // Relative error of the previous bandwidth forecast against each new
  // measurement — nws_forecast_error{src=...,dst=...} in the registry.
  obs::Histogram* forecast_error_ = nullptr;
};

/// Sensor clique (the NWS system's probe coordination): sensors sharing a
/// network take turns measuring, one probe at a time in token-passing
/// order, so probes never measure each other's traffic.  Uncoordinated
/// sensors on a shared bottleneck each see only 1/N of the capacity —
/// exactly the artifact the clique removes (tested and benched).
class SensorClique {
 public:
  /// `period` is the full round interval: every member measures once per
  /// period, sequentially.
  SensorClique(net::Network& network, SimDuration period);
  ~SensorClique();

  SensorClique(const SensorClique&) = delete;
  SensorClique& operator=(const SensorClique&) = delete;

  /// Add a member pair; the sensor is created with its automatic tick
  /// disabled and is owned by the clique.
  NwsSensor& add_member(const net::Host& src, const net::Host& dst,
                        SensorConfig config, PublishFn publish);

  void stop();
  std::size_t members() const { return sensors_.size(); }
  /// Completed full rounds (every member measured once).
  std::size_t rounds() const { return rounds_; }
  const NwsSensor& member(std::size_t i) const { return *sensors_[i]; }

 private:
  void run_round(std::size_t index);

  net::Network& net_;
  SimDuration period_;
  std::vector<std::unique_ptr<NwsSensor>> sensors_;
  sim::EventHandle tick_;
  bool round_active_ = false;
  bool stopped_ = false;
  std::size_t rounds_ = 0;
};

}  // namespace esg::nws
