// Angle power profiles (paper section IV and V-B).
//
// Given the snapshots of one spinning tag, the profile maps a candidate
// direction (azimuth phi, optionally polar gamma) to the relative power
// received from that direction, using circular-antenna-array SAR equations:
//
//   P(phi) = (1/n) |sum_i exp(J[theta_i      + k_i r cos(a_i - phi)])|
//   Q(phi) = (1/n) |sum_i exp(J[theta_i-th_0 + k_i r cos(a_i - phi)])|
//   R(phi) = (1/n) |sum_i w_i(phi) exp(J[theta_i-th_0 + k_i r cos(a_i-phi)])|
//
// with k_i = 4*pi/lambda_i, a_i the disk angle at snapshot i, and
// w_i(phi) the Gaussian likelihood of the *wrapped* residual between the
// measured relative phase and the steering prediction
// c_i(phi) = k r (cos(a_0-phi) - cos(a_i-phi)) under N(0, 2 sigma^2).
// In 3D every r cos(a - phi) term is multiplied by cos(gamma).
//
// Deviations from the paper's notation, documented here:
//  * Weights use exp(-x^2 / (2 sigma_pair^2)) rather than the full Gaussian
//    PDF -- same argmax, but profiles stay in [0, 1].
//  * The residual is wrapped to (-pi, pi] before weighting; |c_i| exceeds
//    2*pi whenever r > lambda/4, so the unwrapped residual of the paper's
//    formula would mis-weight perfectly consistent snapshots.
//  * With channel hopping, relative phases are only meaningful within one
//    channel (the unknown 4*pi*D/lambda term differs across channels), so
//    Q/R form one coherent sum per channel and combine the magnitudes.
//    P ignores grouping -- it is the classical method reproduced as-is.
#pragma once

#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/snapshot.hpp"

namespace tagspin::core {

class PowerProfile {
 public:
  /// Builds the profile over the given snapshots (at least 2 required;
  /// throws std::invalid_argument otherwise).
  PowerProfile(std::span<const Snapshot> snapshots,
               const RigKinematics& kinematics, const ProfileConfig& config);

  /// Profile value for azimuth phi (2D, gamma = 0).
  double evaluate(double phi) const { return evaluate(phi, 0.0); }

  /// Profile value for direction (phi, gamma) -- paper Eqn. 11/12.
  double evaluate(double phi, double gamma) const;

  /// Generalised steering: the aperture term is scale * cos(a_i - angle),
  /// where `angle` is measured in the rig's rotation plane and `scale` is
  /// the length of the unit direction's projection onto that plane.  The
  /// horizontal 3D case is evaluateDirection(phi, cos(gamma)); a vertically
  /// spinning rig (future-work extension) uses its own plane projection.
  double evaluateDirection(double angle, double scale) const;

  /// Samples over phi on the circular grid of `points`
  /// (dsp::circularGridAngle), for plotting (Fig. 1, 6, 8) and for the
  /// spectrum sweep every fix starts from (core::SpinSpectrum).
  std::vector<double> sampleAzimuth(size_t points, double gamma = 0.0) const;

  /// How broadly the snapshots support direction (phi, gamma) under the
  /// enhanced profile's likelihood weights.  `effectiveFraction` is the
  /// effective sample size of the weights, (sum w)^2 / (n sum w^2), as a
  /// fraction of n: ~1 when every snapshot backs the direction, ~f when
  /// only a coherent fraction f does -- the signature of a multipath ghost
  /// peak, whose lobe is built from the subset of reads that bounced off
  /// the reflector.  Non-enhanced formulas carry no weights and report
  /// {1, 1}.
  struct WeightStats {
    double meanWeight = 1.0;
    double effectiveFraction = 1.0;
  };
  WeightStats weightStats(double phi, double gamma = 0.0) const;

  /// Instruction-set builds of the evaluation kernel.  There is one kernel
  /// source, compiled for the baseline ISA and for AVX2; kernelIsa() is the
  /// build picked once per process from the CPU's features, and the plain
  /// overloads above run it.  The overloads taking an Isa run a given build
  /// (it must be isaSupported), so the builds can be held to each other.
  enum class Isa { kBaseline, kAvx2 };
  static Isa kernelIsa();
  static bool isaSupported(Isa isa);
  double evaluateDirection(double angle, double scale, Isa isa) const;
  WeightStats weightStats(double phi, double gamma, Isa isa) const;

  size_t snapshotCount() const { return count_; }
  const ProfileConfig& config() const { return config_; }

 private:
  friend struct ProfileKernel;

  /// A channel group: the entries [begin, begin + size) of the columns,
  /// and cos/sin of the group's reference disk angle a_0.
  struct Group {
    size_t begin = 0;
    size_t size = 0;
    double cosRef = 0.0;
    double sinRef = 0.0;
  };

  ProfileConfig config_;
  double sigmaPair_ = 0.0;
  size_t count_ = 0;
  // Largest |relPhase| and k*radius: they bound the phase arguments of an
  // evaluation, which decide between the kernel's fast wrap and the
  // reference's lane-wise libm operations.
  double maxAbsRelPhase_ = 0.0;
  double maxKr_ = 0.0;
  // Structure-of-arrays entries, group-major: each group's snapshots are
  // contiguous in input order, and every group starts on a multiple of the
  // kernel's vector width (the padding between groups is zero and never
  // summed).  cos/sin of the disk angle a_i are precomputed so evaluation
  // needs no trig on the geometry: cos(a - phi) = cosA*cos(phi) +
  // sinA*sin(phi).
  std::vector<double> cosA_;
  std::vector<double> sinA_;
  std::vector<double> kr_;        // k_i * radius, k_i = 4*pi/lambda_i
  std::vector<double> relPhase_;  // theta_i - theta_0 of its channel group
  std::vector<Group> groups_;
};

}  // namespace tagspin::core
