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

// The kernel passes double vectors between always-inline helpers.  GCC
// warns that such a signature would change the ABI in the baseline build;
// it never applies, since no function with a vector signature is out of
// line.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace tagspin::core {

namespace {

// Every channel group is padded to a multiple of the widest build's vector
// width, so each build reads whole vectors; the padding is zero and masked
// out of every sum.
constexpr size_t kGroupPad = 8;

/// The vector types of a W-lane build: doubles, their bits, lane masks.
template <size_t W>
struct Lanes;
template <>
struct Lanes<4> {
  using D = double __attribute__((vector_size(32)));
  using U = uint64_t __attribute__((vector_size(32)));
  using I = int64_t __attribute__((vector_size(32)));
};
template <>
struct Lanes<8> {
  using D = double __attribute__((vector_size(64)));
  using U = uint64_t __attribute__((vector_size(64)));
  using I = int64_t __attribute__((vector_size(64)));
};

using V4 = Lanes<4>::D;
template <class V>
constexpr size_t kWidth = sizeof(V) / sizeof(double);
template <class V>
using DOf = typename Lanes<kWidth<V>>::D;
template <class V>
using UOf = typename Lanes<kWidth<V>>::U;
template <class V>
using IOf = typename Lanes<kWidth<V>>::I;

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

/// x in every lane (x - +0 is x for every x, -0 and NaN included).
template <class V>
[[gnu::always_inline]] inline V splat(double x) {
  return x - V{};
}

template <class V>
[[gnu::always_inline]] inline V load(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

template <class V>
[[gnu::always_inline]] inline UOf<V> bitsOf(const V& v) {
  return std::bit_cast<UOf<V>>(v);
}

template <class U>
[[gnu::always_inline]] inline DOf<U> fromBits(const U& u) {
  return std::bit_cast<DOf<U>>(u);
}

/// x in live lanes, +0 in the others (NaN included: the padding lanes of a
/// group may compute anything, and none of it reaches a sum).
template <class V>
[[gnu::always_inline]] inline V keep(const IOf<V>& live, const V& x) {
  return fromBits(bitsOf(x) & std::bit_cast<UOf<V>>(live));
}

/// acc += x, four lanes at a time: an 8-lane x adds its low half, then its
/// high half, so every build sums a group's entries in the same order as
/// the 4-lane build's consecutive blocks.
template <class V>
[[gnu::always_inline]] inline void accumulate(V4& acc, const V& x) {
  if constexpr (kWidth<V> == 4) {
    acc += x;
  } else {
    acc += __builtin_shufflevector(x, x, 0, 1, 2, 3);
    acc += __builtin_shufflevector(x, x, 4, 5, 6, 7);
  }
}

/// Calls block(b, live) for each block of W entries b, b+1, ... of
/// [begin, end): `live` masks the lanes inside the range, all of them
/// except in a last, partial block (where keep() then zeroes the rest).
template <size_t W, class Block>
[[gnu::always_inline]] inline void forEachBlock(size_t begin, size_t end,
                                                Block&& block) {
  using I = typename Lanes<W>::I;
  size_t b = begin;
  for (; b + W <= end; b += W) block(b, I{} == 0);
  if (b < end) {
    I live;
    for (size_t l = 0; l < W; ++l) live[l] = b + l < end ? -1 : 0;
    block(b, live);
  }
}

[[gnu::always_inline]] inline double sumLanes(const V4& v) {
  return (v[0] + v[1]) + (v[2] + v[3]);
}

/// x - 2*pi*round(x / 2*pi), in [-pi, pi] up to rounding; with kLibm, the
/// reference's lane-wise fmod (geom::wrapToPi).
template <bool kLibm, class V>
[[gnu::always_inline]] inline V wrapToPi(const V& x) {
  if constexpr (kLibm) {
    V r;
    for (size_t l = 0; l < kWidth<V>; ++l) r[l] = geom::wrapToPi(x[l]);
    return r;
  } else {
    const V n = (x * kInvTwoPi + kRoundMagic) - kRoundMagic;
    return (x - n * kTwoPiHi) - n * kTwoPiLo;
  }
}

template <class V>
struct SinCos {
  V sin;
  V cos;
};

/// sin and cos of x, |x| <= pi (up to rounding); NaN in, NaN out.
template <class V>
[[gnu::always_inline]] inline SinCos<V> sinCos(const V& x) {
  const V t = x * kTwoOverPi + kRoundMagic;
  const V n = t - kRoundMagic;
  const V y = (x - n * kPio2Hi) - n * kPio2Lo;
  const V z = y * y;
  const V w = z * z;
  const V rs = (kS2 + z * (kS3 + z * kS4)) + z * w * (kS5 + z * kS6);
  const V s = y + (z * y) * (kS1 + z * rs);
  const V rc =
      z * (kC1 + z * (kC2 + z * kC3)) + w * w * (kC4 + z * (kC5 + z * kC6));
  const V hz = 0.5 * z;
  const V oneMinusHz = 1.0 - hz;
  const V c = oneMinusHz + (((1.0 - oneMinusHz) - hz) + z * rc);
  // Quadrant q = n mod 4: sin(y + q*pi/2) is s, c, -s, -c and cos is
  // c, -s, -c, s.
  const UOf<V> q = bitsOf(t);
  const IOf<V> even = (q & 1) == 0;
  const UOf<V> sinSign = (q & 2) << 62;
  const UOf<V> cosSign = ((q + 1) & 2) << 62;
  return {fromBits(bitsOf(even ? s : c) ^ sinSign),
          fromBits(bitsOf(even ? c : s) ^ cosSign)};
}

/// e^{Jx} for any x: the fast wrap and sinCos, or with kLibm the
/// reference's own lane-wise libm sin and cos of the unwrapped argument.
template <bool kLibm, class V>
[[gnu::always_inline]] inline SinCos<V> phasor(const V& x) {
  if constexpr (kLibm) {
    SinCos<V> e;
    for (size_t l = 0; l < kWidth<V>; ++l) {
      e.sin[l] = std::sin(x[l]);
      e.cos[l] = std::cos(x[l]);
    }
    return e;
  } else {
    return sinCos(wrapToPi<false>(x));
  }
}

/// exp(x) for x <= 0: 0 below kExpUnderflow, NaN for NaN.
template <class V>
[[gnu::always_inline]] inline V expNonPositive(const V& x) {
  const IOf<V> under = x < kExpUnderflow;
  const V xc = under ? splat<V>(kExpUnderflow) : x;
  const V t = xc * kLog2e + kRoundMagic;
  const V n = t - kRoundMagic;
  const V r = (xc - n * kLn2Hi) - n * kLn2Lo;
  // sum_k r^k / k!, k = 0..12, in Estrin's scheme: pairs, then quads...,
  // a dependency chain of 4 multiply-adds instead of Horner's 12.
  constexpr double c[] = {
      1.0,          1.0,           1.0 / 2,        1.0 / 6,
      1.0 / 24,     1.0 / 120,     1.0 / 720,      1.0 / 5040,
      1.0 / 40320,  1.0 / 362880,  1.0 / 3628800,  1.0 / 39916800,
      1.0 / 479001600};
  const V r2 = r * r;
  const V r4 = r2 * r2;
  const V r8 = r4 * r4;
  const V p01 = c[0] + c[1] * r, p23 = c[2] + c[3] * r;
  const V p45 = c[4] + c[5] * r, p67 = c[6] + c[7] * r;
  const V p89 = c[8] + c[9] * r, p1011 = c[10] + c[11] * r;
  const V p03 = p01 + p23 * r2, p47 = p45 + p67 * r2;
  const V p811 = p89 + p1011 * r2;
  const V p = (p03 + p47 * r4) + (p811 + c[12] * r4) * r8;
  // 2^n from its exponent bits; unsigned arithmetic, so NaN's garbage
  // integer shifts without UB (and NaN * anything stays NaN).
  const UOf<V> twoToN =
      (bitsOf(t) - bitsOf(splat<V>(kRoundMagic)) + 1023) << 52;
  return under ? splat<V>(0.0) : p * fromBits(twoToN);
}

/// Per-thread buffers of an evaluation (each group's coherent sum; for the
/// enhanced profile also every entry's residual and phasor), grown to the
/// largest profile the thread has evaluated and reused after that, so
/// evaluating a direction allocates nothing.  Thread-local: concurrent
/// evaluations (the fleet's worker pool) share no state.
std::vector<double>& kernelScratch() {
  thread_local std::vector<double> scratch;
  return scratch;
}

constexpr size_t roundUp(size_t n, size_t to) { return (n + to - 1) / to * to; }

/// Sum over groups, in group order, of |re + J im| for the (re, im) pairs
/// laid out one after another in `groupSum`.
double sumOfMagnitudes(const double* groupSum, size_t groups) {
  double sum = 0.0;
  for (size_t k = 0; k < groups; ++k) {
    sum += std::abs(std::complex<double>(groupSum[2 * k], groupSum[2 * k + 1]));
  }
  return sum;
}

}  // namespace

/// The profile kernel: one source, instantiated with W = 4 lanes for the
/// baseline ISA and for AVX2, and with W = 8 for AVX-512 (never with FMA:
/// power_profile.cpp is compiled with -ffp-contract=off, because
/// contracting a*b + c would make the builds disagree).  Every lane's
/// arithmetic is the same in every build, and per-group sums are lane-wise
/// into four accumulators over the group's blocks of four (accumulate()),
/// then reduced lane 0+1 plus lane 2+3, so the builds agree bit for bit.
struct ProfileKernel {
  struct Sums {
    double magnitude = 0.0;  // sum over groups of |sum of weighted phasors|
    double sumW = 0.0;       // enhanced profile: sum of the weights
    double sumW2 = 0.0;      // ... and of their squares
  };

  template <size_t W, bool kLibm>
  [[gnu::always_inline]] static inline Sums run(const PowerProfile& p,
                                                double cosPhi, double sinPhi,
                                                double cg) {
    using V = typename Lanes<W>::D;
    using I = typename Lanes<W>::I;
    const double* cosA = p.cosA_.data();
    const double* sinA = p.sinA_.data();
    const double* kr = p.kr_.data();
    const double* relPhase = p.relPhase_.data();
    const V cp = splat<V>(cosPhi);
    const V sp = splat<V>(sinPhi);
    const V cgv = splat<V>(cg);
    // Each group's coherent sum is kept (as re, im) in the per-thread
    // scratch and its magnitude taken after the vector loops: a libm call
    // between the loops would clobber every vector register (the hoisted
    // polynomial constants included) once per group.
    const size_t groups = p.groups_.size();
    std::vector<double>& scratch = kernelScratch();
    Sums out;
    if (p.config_.formula != ProfileFormula::kEnhancedR) {
      if (scratch.size() < 2 * groups) scratch.resize(2 * groups);
      double* groupSum = scratch.data();
      for (size_t k = 0; k < groups; ++k) {
        const PowerProfile::Group& g = p.groups_[k];
        V4 re = splat<V4>(0.0), im = splat<V4>(0.0);
        forEachBlock<W>(
            g.begin, g.begin + g.size,
            [&](size_t b, const I& live) __attribute__((always_inline)) {
              const V cosAmP = load<V>(cosA + b) * cp + load<V>(sinA + b) * sp;
              const V steer = load<V>(kr + b) * cosAmP * cgv;
              const SinCos<V> e = phasor<kLibm>(load<V>(relPhase + b) + steer);
              accumulate(re, keep(live, e.cos));
              accumulate(im, keep(live, e.sin));
            });
        groupSum[2 * k] = sumLanes(re);
        groupSum[2 * k + 1] = sumLanes(im);
      }
      out.magnitude = sumOfMagnitudes(groupSum, groups);
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
    //
    // Three passes over all groups: residuals and phasors with each group's
    // centroid, then the centres (atan2), then the centred weights.
    const double inv2Sigma2 = 1.0 / (2.0 * p.sigmaPair_ * p.sigmaPair_);
    const size_t stride = p.cosA_.size();
    if (scratch.size() < 3 * stride + 2 * groups) {
      scratch.resize(3 * stride + 2 * groups);
    }
    double* residual = scratch.data();
    double* phasorRe = residual + stride;
    double* phasorIm = phasorRe + stride;
    double* groupSum = phasorIm + stride;
    for (size_t k = 0; k < groups; ++k) {
      const PowerProfile::Group& g = p.groups_[k];
      const V cosRefmP = splat<V>(g.cosRef * cosPhi + g.sinRef * sinPhi);
      V4 re = splat<V4>(0.0), im = splat<V4>(0.0);
      forEachBlock<W>(
          g.begin, g.begin + g.size,
          [&](size_t b, const I& live) __attribute__((always_inline)) {
            const V cosAmP = load<V>(cosA + b) * cp + load<V>(sinA + b) * sp;
            const V predicted = load<V>(kr + b) * cgv * (cosRefmP - cosAmP);
            const V r = wrapToPi<kLibm>(load<V>(relPhase + b) - predicted);
            const SinCos<V> e = sinCos(r);
            store(residual + b, r);
            store(phasorRe + b, e.cos);
            store(phasorIm + b, e.sin);
            accumulate(re, keep(live, e.cos));
            accumulate(im, keep(live, e.sin));
          });
      groupSum[2 * k] = sumLanes(re);
      groupSum[2 * k + 1] = sumLanes(im);
    }
    // Each group's centre, in place of its centroid.
    for (size_t k = 0; k < groups; ++k) {
      const std::complex<double> centroid(groupSum[2 * k],
                                          groupSum[2 * k + 1]);
      groupSum[2 * k] = std::abs(centroid) > 0.0 ? std::arg(centroid) : 0.0;
    }
    for (size_t k = 0; k < groups; ++k) {
      const PowerProfile::Group& g = p.groups_[k];
      const V center = splat<V>(groupSum[2 * k]);
      V4 re = splat<V4>(0.0), im = splat<V4>(0.0);
      V4 sumW = splat<V4>(0.0), sumW2 = splat<V4>(0.0);
      forEachBlock<W>(
          g.begin, g.begin + g.size,
          [&](size_t b, const I& live) __attribute__((always_inline)) {
            const V centred = wrapToPi<kLibm>(load<V>(residual + b) - center);
            const V w = expNonPositive(-centred * centred * inv2Sigma2);
            accumulate(re, keep(live, w * load<V>(phasorRe + b)));
            accumulate(im, keep(live, w * load<V>(phasorIm + b)));
            accumulate(sumW, keep(live, w));
            accumulate(sumW2, keep(live, w * w));
          });
      groupSum[2 * k] = sumLanes(re);
      groupSum[2 * k + 1] = sumLanes(im);
      out.sumW += sumLanes(sumW);
      out.sumW2 += sumLanes(sumW2);
    }
    out.magnitude = sumOfMagnitudes(groupSum, groups);
    return out;
  }

  static Sums baseline(const PowerProfile& p, double cosPhi, double sinPhi,
                       double cg) {
    return run<4, false>(p, cosPhi, sinPhi, cg);
  }

#if defined(__x86_64__) || defined(__i386__)
  [[gnu::target("avx2")]] static Sums avx2(const PowerProfile& p,
                                           double cosPhi, double sinPhi,
                                           double cg) {
    return run<4, false>(p, cosPhi, sinPhi, cg);
  }

  [[gnu::target("avx512f,avx512dq,avx512vl")]] static Sums avx512(
      const PowerProfile& p, double cosPhi, double sinPhi, double cg) {
    return run<8, false>(p, cosPhi, sinPhi, cg);
  }
#endif

  /// Arguments past kFastWrapLimit (absurd wavelengths or phases, or Inf)
  /// take the reference's libm operations lane by lane, on the baseline
  /// build.
  static Sums libmLanes(const PowerProfile& p, double cosPhi, double sinPhi,
                        double cg) {
    return run<4, true>(p, cosPhi, sinPhi, cg);
  }

  static Sums sweep(const PowerProfile& p, PowerProfile::Isa isa, double phi,
                    double cg) {
    const double cosPhi = std::cos(phi);
    const double sinPhi = std::sin(phi);
    // |relPhase -+ k r cg (cos(a_0 - phi) - cos(a - phi))| stays below this.
    const double bound = p.maxAbsRelPhase_ + 2.5 * p.maxKr_ * std::abs(cg);
    if (!(bound < kFastWrapLimit)) return libmLanes(p, cosPhi, sinPhi, cg);
#if defined(__x86_64__) || defined(__i386__)
    if (isa == PowerProfile::Isa::kAvx512) {
      return avx512(p, cosPhi, sinPhi, cg);
    }
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

  // Lay the groups out one after another, each padded to kGroupPad.
  size_t stride = 0;
  for (Group& g : groups_) {
    g.begin = stride;
    stride += roundUp(g.size, kGroupPad);
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
    if (!__builtin_cpu_supports("avx2")) return Isa::kBaseline;
    if (!__builtin_cpu_supports("avx512f") ||
        !__builtin_cpu_supports("avx512dq") ||
        !__builtin_cpu_supports("avx512vl")) {
      return Isa::kAvx2;
    }
    return Isa::kAvx512;
  }();
  return isa;
#else
  return Isa::kBaseline;
#endif
}

bool PowerProfile::isaSupported(Isa isa) {
  // Each build's features include the one below it.
  return static_cast<int>(isa) <= static_cast<int>(kernelIsa());
}

std::vector<double> PowerProfile::sampleAzimuth(size_t points,
                                                double gamma) const {
  const double cg = std::cos(gamma);
  return dsp::sampleCircular(
      [&](double phi) { return evaluateDirection(phi, cg); }, points);
}

}  // namespace tagspin::core
