#include "nws/sensor.hpp"

#include <algorithm>
#include <cmath>

namespace esg::nws {

namespace {

// A bandwidth probe is one TCP stream (the TcpOptions default) with a 1 MiB
// buffer; pings carry 5% measurement noise.
constexpr common::Bytes kProbeBuffer = common::kMiB;
constexpr double kLatencyJitterFrac = 0.05;

}  // namespace

HostSensor::HostSensor(net::Network& network, const net::Host& host,
                       SimDuration period, HostPublishFn publish,
                       std::uint64_t seed, double noise)
    : net_(network),
      host_(host),
      publish_(std::move(publish)),
      rng_(seed),
      noise_(noise) {
  tick_ = net_.simulation().schedule_every(period, [this] {
    const net::Resource* cpu = host_.cpu();
    double available = 0.0;
    if (!host_.down() && cpu->nominal_capacity() > 0.0) {
      available = cpu->effective_capacity() / cpu->nominal_capacity();
    }
    // Measurement noise, clamped to a sane fraction.
    available = std::clamp(available + noise_ * rng_.normal(), 0.0, 1.0);
    forecast_.observe(available);
    ++rounds_;
    if (publish_) publish_(host_.name(), forecast_.predict());
    return true;
  });
}

HostSensor::~HostSensor() { stop(); }

void HostSensor::stop() { tick_.cancel(); }

NwsSensor::NwsSensor(net::Network& network, const net::Host& src,
                     const net::Host& dst, SensorConfig config,
                     PublishFn publish)
    : net_(network),
      src_(src),
      dst_(dst),
      config_(config),
      publish_(std::move(publish)),
      rng_(config.seed) {
  forecast_error_ = &net_.simulation().metrics().histogram(
      "nws_forecast_error", obs::relative_error_boundaries(),
      {{"src", src_.name()}, {"dst", dst_.name()}});
  // First round fires after one period (the service needs a warm-up, as the
  // real NWS does); forecasts before that are zero.  period == 0 leaves the
  // sensor under external control (SensorClique / tests).
  if (config_.period > 0) {
    tick_ = net_.simulation().schedule_every(config_.period, [this] {
      measure();
      return true;
    });
  }
}

NwsSensor::~NwsSensor() { stop(); }

void NwsSensor::stop() {
  tick_.cancel();
  if (probe_) probe_->cancel();
}

void NwsSensor::measure(std::function<void()> done) {
  // Latency ping: the real path RTT plus measurement jitter.
  const SimDuration true_rtt = net_.rtt(src_, dst_);
  const double jitter = 1.0 + kLatencyJitterFrac * std::abs(rng_.normal());
  const auto measured_rtt =
      static_cast<SimDuration>(static_cast<double>(true_rtt) * jitter);

  // Bandwidth probe: a short transfer on the real path (no disks).
  if (probe_) probe_->cancel();
  const SimTime start = net_.simulation().now();
  net::TcpOptions opts;
  opts.buffer_size = kProbeBuffer;
  opts.include_disks = false;
  // A hung probe is a failed probe.
  opts.dead_interval =
      config_.period > 0 ? config_.period / 2 : 15 * common::kSecond;

  net::TcpCallbacks cbs;
  cbs.on_complete = [this, start, measured_rtt,
                     done = std::move(done)](common::Status st) {
    Measurement m;
    m.latency = measured_rtt;
    m.at = net_.simulation().now();
    if (st.ok()) {
      const double secs = common::to_seconds(m.at - start);
      m.bandwidth =
          secs > 0 ? static_cast<double>(config_.probe_size) / secs : 0.0;
    } else {
      m.probe_failed = true;
      m.bandwidth = 0.0;  // an unreachable path forecasts toward zero
    }
    last_ = m;
    // Score the standing forecast against what the path actually delivered
    // before folding the new measurement in.
    if (rounds_ > 0 && m.bandwidth > 0.0) {
      const double prior = bandwidth_.predict();
      forecast_error_->observe(std::abs(prior - m.bandwidth) / m.bandwidth);
    }
    ++rounds_;
    bandwidth_.observe(m.bandwidth);
    latency_.observe(static_cast<double>(m.latency));
    if (publish_) {
      publish_(src_.name(), dst_.name(), bandwidth_.predict(),
               static_cast<SimDuration>(latency_.predict()), m);
    }
    probe_.reset();
    if (done) done();
  };
  probe_ = std::make_unique<net::TcpTransfer>(net_, src_, dst_,
                                              config_.probe_size, opts,
                                              std::move(cbs));
}

SensorClique::SensorClique(net::Network& network, SimDuration period)
    : net_(network), period_(period) {
  tick_ = net_.simulation().schedule_every(period_, [this] {
    if (stopped_) return false;
    if (!round_active_ && !sensors_.empty()) {
      round_active_ = true;
      run_round(0);
    }
    return true;
  });
}

SensorClique::~SensorClique() { stop(); }

void SensorClique::stop() {
  stopped_ = true;
  tick_.cancel();
  for (auto& s : sensors_) s->stop();
}

NwsSensor& SensorClique::add_member(const net::Host& src, const net::Host& dst,
                                    SensorConfig config, PublishFn publish) {
  config.period = 0;  // the clique holds the token, not the sensor
  sensors_.push_back(std::make_unique<NwsSensor>(net_, src, dst, config,
                                                 std::move(publish)));
  return *sensors_.back();
}

void SensorClique::run_round(std::size_t index) {
  if (stopped_ || index >= sensors_.size()) {
    round_active_ = false;
    if (!stopped_ && index >= sensors_.size()) ++rounds_;
    return;
  }
  // Token passing: the next member probes only when this one finishes.
  sensors_[index]->measure([this, index] { run_round(index + 1); });
}

}  // namespace esg::nws
