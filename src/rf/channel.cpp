#include "rf/channel.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "geom/angles.hpp"
#include "rf/constants.hpp"

namespace tagspin::rf {

namespace {
constexpr double kFourPi = 4.0 * std::numbers::pi;
constexpr double kMinDistance = 1e-3;  // clamp to 1 mm to avoid singularities
}  // namespace

BackscatterChannel::BackscatterChannel(ChannelConfig config,
                                       std::vector<Scatterer> scatterers)
    : config_(config), scatterers_(std::move(scatterers)) {
  if (config_.phaseNoiseStd < 0.0) {
    throw std::invalid_argument("BackscatterChannel: negative phase noise");
  }
  if (config_.pathLossExponent <= 0.0) {
    throw std::invalid_argument("BackscatterChannel: bad path loss exponent");
  }
}

std::complex<double> BackscatterChannel::complexGain(const geom::Vec3& reader,
                                                     const geom::Vec3& tag,
                                                     double lambdaM) const {
  const double d = std::max(geom::distance(reader, tag), kMinDistance);
  const double k = 2.0 * std::numbers::pi / lambdaM;
  // LOS: round trip 2d, unit amplitude.
  std::complex<double> h = std::polar(1.0, -k * 2.0 * d);
  if (config_.multipathEnabled) {
    for (const Scatterer& s : scatterers_) {
      const double viaScatterer =
          geom::distance(reader, s.position) + geom::distance(s.position, tag);
      // The echo leaves via the scatterer on one leg (down- or uplink); both
      // leg combinations appear, each attenuated by the extra spreading.
      const double excess = viaScatterer - d;
      const double total = 2.0 * d + excess;  // one reflected leg
      const double spread = d / std::max(viaScatterer, kMinDistance);
      const double amp = s.reflectivity * spread;
      h += 2.0 * amp * std::polar(1.0, -k * total);  // both leg orders
      // Double bounce (reflected on both legs) -- weaker by reflectivity^2.
      h += amp * s.reflectivity * std::polar(1.0, -k * (2.0 * viaScatterer));
    }
  }
  return h;
}

double BackscatterChannel::meanRssiDbm(double distanceM, double lambdaM,
                                       double readerGainLinear,
                                       double tagGainLinear,
                                       double txPowerDbm) const {
  const double d = std::max(distanceM, kMinDistance);
  // One-way loss with generalized exponent, referenced to free space at 1 m.
  const double fspl1m = 20.0 * std::log10(kFourPi / lambdaM);
  const double oneWayDb =
      fspl1m + 10.0 * config_.pathLossExponent * std::log10(d);
  return txPowerDbm + 2.0 * toDb(readerGainLinear) +
         2.0 * toDb(tagGainLinear) - config_.tagModulationLossDb -
         2.0 * oneWayDb;
}

ChannelSample BackscatterChannel::observe(
    const geom::Vec3& readerPos, const geom::Vec3& tagPos, double lambdaM,
    double thetaDiv, double orientationPhase, double readerGainLinear,
    double tagGainLinear, double txPowerDbm, std::mt19937_64& rng) const {
  const double d = std::max(geom::distance(readerPos, tagPos), kMinDistance);
  const std::complex<double> h = complexGain(readerPos, tagPos, lambdaM);

  // The reader reports theta = (4*pi/lambda)*d + theta_div (Eqn. 1); with
  // multipath the geometric term becomes -arg(h).  Each noise term is
  // stddev * N(0, 1) from a fresh distribution: the same draw and bits as
  // N(0, stddev), which requires stddev > 0, while a noiseless channel sets
  // stddev to 0.
  double noise =
      config_.phaseNoiseStd * std::normal_distribution<double>()(rng);
  if (config_.phaseOutlierProb > 0.0) {
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    if (coin(rng) < config_.phaseOutlierProb) {
      std::uniform_real_distribution<double> burst(-std::numbers::pi,
                                                   std::numbers::pi);
      noise = burst(rng);
    }
  }
  const double phase = geom::wrapTwoPi(-std::arg(h) + thetaDiv +
                                       orientationPhase + noise);

  const double fading = 20.0 * std::log10(std::max(std::abs(h), 1e-6));
  const double rssi = meanRssiDbm(d, lambdaM, readerGainLinear, tagGainLinear,
                                  txPowerDbm) +
                      fading +
                      config_.rssiNoiseStdDb *
                          std::normal_distribution<double>()(rng);

  ChannelSample sample;
  sample.phase = phase;
  sample.rssiDbm = rssi;
  sample.readable = rssi >= config_.readerSensitivityDbm;
  return sample;
}

}  // namespace tagspin::rf
