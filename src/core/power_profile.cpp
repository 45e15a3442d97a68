#include "core/power_profile.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <map>
#include <numbers>
#include <stdexcept>

#include "dsp/grid.hpp"
#include "geom/angles.hpp"

// The kernel passes 4 x double vectors between always-inline helpers.  GCC
// warns that such a signature would change the ABI in the baseline build;
// it never applies, since no function with a vector signature is out of
// line.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace tagspin::core {

namespace {

constexpr size_t kLanes = 4;

using V4 = double __attribute__((vector_size(32)));
using U4 = uint64_t __attribute__((vector_size(32)));
using I4 = int64_t __attribute__((vector_size(32)));  // lane masks

// x + 1.5*2^52 - 1.5*2^52 rounds x to the nearest integer (ties to even)
// for |x| < 2^51, and the low mantissa bits of x + 1.5*2^52 hold that
// integer in two's complement.
constexpr double kRoundMagic = 0x1.8p52;

// The double nearest 2*pi, geom::kTwoPi, split exactly into kTwoPiHi (26
// significant bits) + kTwoPiLo.  For |n| < 2^26, n * kTwoPiHi and
// n * kTwoPiLo are exact and x - n * kTwoPiHi is exact (Sterbenz), so the
// wrap returns x - n * geom::kTwoPi with one rounding: the period of the
// reference's fmod-based geom::wrapToPi, not 2*pi itself, whose n-fold
// difference (n * 2.4e-16) the R profile's weights would amplify.  The
// fast wrap is used while every argument stays below kFastWrapLimit
// (|n| < 2^18); beyond, the kernel takes the reference's lane-wise libm
// operations (fmod wrap, sin and cos).
constexpr double kInvTwoPi = 1.0 / geom::kTwoPi;
constexpr double kTwoPiHi = 0x1.921fb5p+2;
constexpr double kTwoPiLo = 0x1.110b46p-24;
static_assert(kTwoPiHi + kTwoPiLo == geom::kTwoPi);
constexpr double kFastWrapLimit = 1e6;

// Cody-Waite reduction by pi/2 (fdlibm pio2_1, pio2_1t) and the fdlibm
// __kernel_sin / __kernel_cos minimax polynomials on [-pi/4, pi/4].
constexpr double kTwoOverPi = 6.36619772367581382433e-01;
constexpr double kPio2Hi = 1.57079632673412561417e+00;
constexpr double kPio2Lo = 6.07710050650619224932e-11;
constexpr double kS1 = -1.66666666666666324348e-01;
constexpr double kS2 = 8.33333333332248946124e-03;
constexpr double kS3 = -1.98412698298579493134e-04;
constexpr double kS4 = 2.75573137070700676789e-06;
constexpr double kS5 = -2.50507602534068634195e-08;
constexpr double kS6 = 1.58969099521155010221e-10;
constexpr double kC1 = 4.16666666666666019037e-02;
constexpr double kC2 = -1.38888888888741095749e-03;
constexpr double kC3 = 2.48015872894767294178e-05;
constexpr double kC4 = -2.75573143513906633035e-07;
constexpr double kC5 = 2.08757232129817482790e-09;
constexpr double kC6 = -1.13596475577881948265e-11;

// Cody-Waite reduction by ln 2 (fdlibm ln2_hi, ln2_lo; n * kLn2Hi is exact
// for the |n| <= 1010 reached) and a degree-12 Taylor polynomial on
// [-ln2/2, ln2/2].  Below kExpUnderflow the weight is 0.
constexpr double kLog2e = 1.44269504088896338700e+00;
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kExpUnderflow = -700.0;

[[gnu::always_inline]] inline V4 splat(double x) { return V4{x, x, x, x}; }

[[gnu::always_inline]] inline V4 load(const double* p) {
  V4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

[[gnu::always_inline]] inline void store(double* p, const V4& v) {
  std::memcpy(p, &v, sizeof v);
}

[[gnu::always_inline]] inline U4 bitsOf(const V4& v) {
  return std::bit_cast<U4>(v);
}

[[gnu::always_inline]] inline V4 fromBits(const U4& u) {
  return std::bit_cast<V4>(u);
}

/// x in live lanes, +0 in the others (NaN included: the padding lanes of a
/// group may compute anything, and none of it reaches a sum).
[[gnu::always_inline]] inline V4 keep(const I4& live, const V4& x) {
  return fromBits(bitsOf(x) & std::bit_cast<U4>(live));
}

[[gnu::always_inline]] inline double sumLanes(const V4& v) {
  return (v[0] + v[1]) + (v[2] + v[3]);
}

/// x - 2*pi*round(x / 2*pi), in [-pi, pi] up to rounding; with kLibm, the
/// reference's lane-wise fmod (geom::wrapToPi).
template <bool kLibm>
[[gnu::always_inline]] inline V4 wrapToPi(const V4& x) {
  if constexpr (kLibm) {
    V4 r;
    for (size_t l = 0; l < kLanes; ++l) r[l] = geom::wrapToPi(x[l]);
    return r;
  } else {
    const V4 n = (x * kInvTwoPi + kRoundMagic) - kRoundMagic;
    return (x - n * kTwoPiHi) - n * kTwoPiLo;
  }
}

struct SinCos {
  V4 sin;
  V4 cos;
};

/// sin and cos of x, |x| <= pi (up to rounding); NaN in, NaN out.
[[gnu::always_inline]] inline SinCos sinCos(const V4& x) {
  const V4 t = x * kTwoOverPi + kRoundMagic;
  const V4 n = t - kRoundMagic;
  const V4 y = (x - n * kPio2Hi) - n * kPio2Lo;
  const V4 z = y * y;
  const V4 w = z * z;
  const V4 rs = (kS2 + z * (kS3 + z * kS4)) + z * w * (kS5 + z * kS6);
  const V4 s = y + (z * y) * (kS1 + z * rs);
  const V4 rc =
      z * (kC1 + z * (kC2 + z * kC3)) + w * w * (kC4 + z * (kC5 + z * kC6));
  const V4 hz = 0.5 * z;
  const V4 oneMinusHz = 1.0 - hz;
  const V4 c = oneMinusHz + (((1.0 - oneMinusHz) - hz) + z * rc);
  // Quadrant q = n mod 4: sin(y + q*pi/2) is s, c, -s, -c and cos is
  // c, -s, -c, s.
  const U4 q = bitsOf(t);
  const I4 even = (q & 1) == 0;
  const U4 sinSign = (q & 2) << 62;
  const U4 cosSign = ((q + 1) & 2) << 62;
  return {fromBits(bitsOf(even ? s : c) ^ sinSign),
          fromBits(bitsOf(even ? c : s) ^ cosSign)};
}

/// e^{Jx} for any x: the fast wrap and sinCos, or with kLibm the
/// reference's own lane-wise libm sin and cos of the unwrapped argument.
template <bool kLibm>
[[gnu::always_inline]] inline SinCos phasor(const V4& x) {
  if constexpr (kLibm) {
    SinCos e;
    for (size_t l = 0; l < kLanes; ++l) {
      e.sin[l] = std::sin(x[l]);
      e.cos[l] = std::cos(x[l]);
    }
    return e;
  } else {
    return sinCos(wrapToPi<false>(x));
  }
}

/// exp(x) for x <= 0: 0 below kExpUnderflow, NaN for NaN.
[[gnu::always_inline]] inline V4 expNonPositive(const V4& x) {
  const I4 under = x < kExpUnderflow;
  const V4 xc = under ? splat(kExpUnderflow) : x;
  const V4 t = xc * kLog2e + kRoundMagic;
  const V4 n = t - kRoundMagic;
  const V4 r = (xc - n * kLn2Hi) - n * kLn2Lo;
  // sum_k r^k / k!, k = 0..12, in Estrin's scheme: pairs, then quads...,
  // a dependency chain of 4 multiply-adds instead of Horner's 12.
  constexpr double c[] = {
      1.0,          1.0,           1.0 / 2,        1.0 / 6,
      1.0 / 24,     1.0 / 120,     1.0 / 720,      1.0 / 5040,
      1.0 / 40320,  1.0 / 362880,  1.0 / 3628800,  1.0 / 39916800,
      1.0 / 479001600};
  const V4 r2 = r * r;
  const V4 r4 = r2 * r2;
  const V4 r8 = r4 * r4;
  const V4 p01 = c[0] + c[1] * r, p23 = c[2] + c[3] * r;
  const V4 p45 = c[4] + c[5] * r, p67 = c[6] + c[7] * r;
  const V4 p89 = c[8] + c[9] * r, p1011 = c[10] + c[11] * r;
  const V4 p03 = p01 + p23 * r2, p47 = p45 + p67 * r2;
  const V4 p811 = p89 + p1011 * r2;
  const V4 p = (p03 + p47 * r4) + (p811 + c[12] * r4) * r8;
  // 2^n from its exponent bits; unsigned arithmetic, so NaN's garbage
  // integer shifts without UB (and NaN * anything stays NaN).
  const U4 twoToN = (bitsOf(t) - bitsOf(splat(kRoundMagic)) + 1023) << 52;
  return under ? splat(0.0) : p * fromBits(twoToN);
}

/// Per-thread buffers of the enhanced profile's two passes (residuals and
/// their phasors for one group), grown to the largest group the thread has
/// evaluated and reused after that, so evaluating a direction allocates
/// nothing.  Thread-local: concurrent evaluations (the fleet's worker pool)
/// share no state.
std::vector<double>& kernelScratch() {
  thread_local std::vector<double> scratch;
  return scratch;
}

size_t roundUpToLanes(size_t n) { return (n + kLanes - 1) / kLanes * kLanes; }

}  // namespace

/// The profile kernel: one source, instantiated for the baseline ISA and
/// for AVX2 (never with FMA -- contracting a*b + c would make the builds
/// disagree).  Per-group sums are lane-wise over the group's blocks of
/// four, then reduced lane 0+1 plus lane 2+3, identically in both builds.
struct ProfileKernel {
  struct Sums {
    double magnitude = 0.0;  // sum over groups of |sum of weighted phasors|
    double sumW = 0.0;       // enhanced profile: sum of the weights
    double sumW2 = 0.0;      // ... and of their squares
  };

  template <bool kLibm>
  [[gnu::always_inline]] static inline Sums run(const PowerProfile& p,
                                                double cosPhi, double sinPhi,
                                                double cg) {
    const double* cosA = p.cosA_.data();
    const double* sinA = p.sinA_.data();
    const double* kr = p.kr_.data();
    const double* relPhase = p.relPhase_.data();
    const V4 cp = splat(cosPhi);
    const V4 sp = splat(sinPhi);
    const V4 cgv = splat(cg);
    const I4 laneIndex = {0, 1, 2, 3};
    Sums out;
    if (p.config_.formula != ProfileFormula::kEnhancedR) {
      for (const PowerProfile::Group& g : p.groups_) {
        const int64_t end = static_cast<int64_t>(g.begin + g.size);
        V4 re = splat(0.0), im = splat(0.0);
        for (size_t b = g.begin; b < g.begin + g.size; b += kLanes) {
          const I4 live = laneIndex + static_cast<int64_t>(b) < end;
          const V4 cosAmP = load(cosA + b) * cp + load(sinA + b) * sp;
          const V4 steer = load(kr + b) * cosAmP * cgv;
          const SinCos e = phasor<kLibm>(load(relPhase + b) + steer);
          re += keep(live, e.cos);
          im += keep(live, e.sin);
        }
        out.magnitude += std::abs(std::complex<double>(sumLanes(re),
                                                       sumLanes(im)));
      }
      return out;
    }

    // The enhanced profile R weights each snapshot's residual against the
    // steering prediction c_i(phi, gamma) (Defn. 4.1 / 5.1).  Two
    // refinements over the literal formula, both documented in DESIGN.md:
    //  * residuals are wrapped to (-pi, pi] (|c_i| exceeds 2*pi for
    //    r > lambda/4);
    //  * residuals are centred on their per-group circular mean before
    //    weighting.  The paper weights around zero, implicitly trusting the
    //    reference snapshot theta_0; one corrupted reference read would
    //    shift every residual by a constant and bias the weights toward a
    //    false direction that absorbs the shift.  Centring restores the
    //    reference-independence that Q enjoys through |.|.
    // e^{J(relPhase + steer)} = e^{J residual} * e^{J k r cg cos(a_0-phi)},
    // and the group-constant factor drops under |.|, so the weighted
    // residual phasors are summed directly.
    const double inv2Sigma2 = 1.0 / (2.0 * p.sigmaPair_ * p.sigmaPair_);
    std::vector<double>& scratch = kernelScratch();
    for (const PowerProfile::Group& g : p.groups_) {
      const size_t padded = roundUpToLanes(g.size);
      if (scratch.size() < 3 * padded) scratch.resize(3 * padded);
      double* residual = scratch.data();
      double* phasorRe = residual + padded;
      double* phasorIm = phasorRe + padded;
      const int64_t end = static_cast<int64_t>(g.begin + g.size);
      const V4 cosRefmP = splat(g.cosRef * cosPhi + g.sinRef * sinPhi);

      V4 re = splat(0.0), im = splat(0.0);
      for (size_t j = 0; j < padded; j += kLanes) {
        const size_t b = g.begin + j;
        const I4 live = laneIndex + static_cast<int64_t>(b) < end;
        const V4 cosAmP = load(cosA + b) * cp + load(sinA + b) * sp;
        const V4 predicted = load(kr + b) * cgv * (cosRefmP - cosAmP);
        const V4 r = wrapToPi<kLibm>(load(relPhase + b) - predicted);
        const SinCos e = sinCos(r);
        store(residual + j, r);
        store(phasorRe + j, e.cos);
        store(phasorIm + j, e.sin);
        re += keep(live, e.cos);
        im += keep(live, e.sin);
      }
      const std::complex<double> centroid(sumLanes(re), sumLanes(im));
      const V4 center =
          splat(std::abs(centroid) > 0.0 ? std::arg(centroid) : 0.0);

      re = splat(0.0);
      im = splat(0.0);
      V4 sumW = splat(0.0), sumW2 = splat(0.0);
      for (size_t j = 0; j < padded; j += kLanes) {
        const I4 live =
            laneIndex + static_cast<int64_t>(g.begin + j) < end;
        const V4 centred = wrapToPi<kLibm>(load(residual + j) - center);
        const V4 w = expNonPositive(-centred * centred * inv2Sigma2);
        re += keep(live, w * load(phasorRe + j));
        im += keep(live, w * load(phasorIm + j));
        sumW += keep(live, w);
        sumW2 += keep(live, w * w);
      }
      out.magnitude +=
          std::abs(std::complex<double>(sumLanes(re), sumLanes(im)));
      out.sumW += sumLanes(sumW);
      out.sumW2 += sumLanes(sumW2);
    }
    return out;
  }

  static Sums baseline(const PowerProfile& p, double cosPhi, double sinPhi,
                       double cg) {
    return run<false>(p, cosPhi, sinPhi, cg);
  }

#if defined(__x86_64__) || defined(__i386__)
  [[gnu::target("avx2")]] static Sums avx2(const PowerProfile& p,
                                           double cosPhi, double sinPhi,
                                           double cg) {
    return run<false>(p, cosPhi, sinPhi, cg);
  }
#endif

  /// Arguments past kFastWrapLimit (absurd wavelengths or phases, or Inf)
  /// take the reference's libm operations lane by lane, on the baseline
  /// build.
  static Sums libmLanes(const PowerProfile& p, double cosPhi, double sinPhi,
                        double cg) {
    return run<true>(p, cosPhi, sinPhi, cg);
  }

  static Sums sweep(const PowerProfile& p, PowerProfile::Isa isa, double phi,
                    double cg) {
    const double cosPhi = std::cos(phi);
    const double sinPhi = std::sin(phi);
    // |relPhase -+ k r cg (cos(a_0 - phi) - cos(a - phi))| stays below this.
    const double bound = p.maxAbsRelPhase_ + 2.5 * p.maxKr_ * std::abs(cg);
    if (!(bound < kFastWrapLimit)) return libmLanes(p, cosPhi, sinPhi, cg);
#if defined(__x86_64__) || defined(__i386__)
    if (isa == PowerProfile::Isa::kAvx2) return avx2(p, cosPhi, sinPhi, cg);
#endif
    return baseline(p, cosPhi, sinPhi, cg);
  }
};

PowerProfile::PowerProfile(std::span<const Snapshot> snapshots,
                           const RigKinematics& kinematics,
                           const ProfileConfig& config)
    : config_(config),
      sigmaPair_(config.phaseNoiseStd * std::numbers::sqrt2 *
                 config.weightSigmaScale),
      count_(snapshots.size()) {
  if (snapshots.size() < 2) {
    throw std::invalid_argument("PowerProfile: need at least 2 snapshots");
  }
  const double radius = kinematics.radiusM;
  if (radius <= 0.0) {
    throw std::invalid_argument("PowerProfile: rig radius must be > 0");
  }
  if (config.phaseNoiseStd <= 0.0) {
    throw std::invalid_argument("PowerProfile: phaseNoiseStd must be > 0");
  }

  const bool classical = config.formula == ProfileFormula::kClassicalP;
  const bool grouped = config.channelCoherent && !classical;

  // First snapshot of each channel group serves as the group's phase
  // reference (the paper's theta_0).
  std::map<int, size_t> groupOfKey;
  std::vector<double> refPhase;
  std::vector<size_t> groupOf(snapshots.size());
  for (size_t i = 0; i < snapshots.size(); ++i) {
    const Snapshot& s = snapshots[i];
    if (s.lambdaM <= 0.0) {
      throw std::invalid_argument("PowerProfile: snapshot missing wavelength");
    }
    auto [it, inserted] =
        groupOfKey.try_emplace(grouped ? s.channel : 0, groups_.size());
    if (inserted) {
      const double a0 = kinematics.diskAngle(s.timeS);
      groups_.push_back({0, 0, std::cos(a0), std::sin(a0)});
      refPhase.push_back(s.phaseRad);
    }
    groupOf[i] = it->second;
    ++groups_[it->second].size;
  }

  // Lay the groups out one after another, each padded to the vector width.
  size_t stride = 0;
  for (Group& g : groups_) {
    g.begin = stride;
    stride += roundUpToLanes(g.size);
  }
  cosA_.assign(stride, 0.0);
  sinA_.assign(stride, 0.0);
  kr_.assign(stride, 0.0);
  relPhase_.assign(stride, 0.0);
  std::vector<size_t> next(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) next[g] = groups_[g].begin;
  for (size_t i = 0; i < snapshots.size(); ++i) {
    const Snapshot& s = snapshots[i];
    const size_t at = next[groupOf[i]]++;
    const double a = kinematics.diskAngle(s.timeS);
    cosA_[at] = std::cos(a);
    sinA_[at] = std::sin(a);
    kr_[at] = 4.0 * std::numbers::pi / s.lambdaM * radius;
    relPhase_[at] = classical
                        ? s.phaseRad
                        : geom::wrapToPi(s.phaseRad - refPhase[groupOf[i]]);
    maxAbsRelPhase_ = std::max(maxAbsRelPhase_, std::abs(relPhase_[at]));
    maxKr_ = std::max(maxKr_, kr_[at]);
  }
}

double PowerProfile::evaluate(double phi, double gamma) const {
  return evaluateDirection(phi, std::cos(gamma));
}

double PowerProfile::evaluateDirection(double phi, double cg) const {
  return evaluateDirection(phi, cg, kernelIsa());
}

double PowerProfile::evaluateDirection(double phi, double cg, Isa isa) const {
  return ProfileKernel::sweep(*this, isa, phi, cg).magnitude /
         static_cast<double>(count_);
}

PowerProfile::WeightStats PowerProfile::weightStats(double phi,
                                                    double gamma) const {
  return weightStats(phi, gamma, kernelIsa());
}

PowerProfile::WeightStats PowerProfile::weightStats(double phi, double gamma,
                                                    Isa isa) const {
  WeightStats stats;
  if (config_.formula != ProfileFormula::kEnhancedR) return stats;
  const ProfileKernel::Sums sums =
      ProfileKernel::sweep(*this, isa, phi, std::cos(gamma));
  const double n = static_cast<double>(count_);
  stats.meanWeight = sums.sumW / n;
  stats.effectiveFraction =
      sums.sumW2 > 0.0 ? (sums.sumW * sums.sumW) / (n * sums.sumW2) : 0.0;
  return stats;
}

PowerProfile::Isa PowerProfile::kernelIsa() {
#if defined(__x86_64__) || defined(__i386__)
  static const Isa isa = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kBaseline;
  }();
  return isa;
#else
  return Isa::kBaseline;
#endif
}

bool PowerProfile::isaSupported(Isa isa) {
  return isa == Isa::kBaseline || kernelIsa() == Isa::kAvx2;
}

std::vector<double> PowerProfile::sampleAzimuth(size_t points,
                                                double gamma) const {
  const double cg = std::cos(gamma);
  return dsp::sampleCircular(
      [&](double phi) { return evaluateDirection(phi, cg); }, points);
}

}  // namespace tagspin::core
