// Microbenchmarks of the hot paths (google-benchmark): profile evaluation,
// azimuth spectrum search (exhaustive vs coarse-to-fine), the 3D spatial
// search, and the end-to-end 2D fix.  The profile benches report
// items_per_second in snapshot-evaluations (profile evaluations x
// snapshots), the unit of the kernel's throughput, and run once per kernel
// build the CPU supports (BM_EvaluateR/avx512/1024 ...); the context names
// the build the other benches run (kernel_isa) and the builds skipped.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/locator.hpp"
#include "core/power_profile.hpp"
#include "core/preprocess.hpp"
#include "core/spectrum.hpp"
#include "geom/angles.hpp"

using namespace tagspin;

namespace {

std::vector<core::Snapshot> makeSnapshots(size_t n, double phiTrue) {
  const double lambda = 0.325;
  const double r = 0.10;
  const double D = 2.0;
  const core::RigKinematics kin{r, 0.5, 0.0, geom::kPi / 2.0};
  std::mt19937_64 rng(42);
  std::normal_distribution<double> noise(0.0, 0.1);
  std::vector<core::Snapshot> snaps;
  snaps.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * 30.0 / static_cast<double>(n);
    const double a = kin.diskAngle(t);
    const double d = D - r * std::cos(a - phiTrue);
    core::Snapshot s;
    s.timeS = t;
    s.phaseRad =
        geom::wrapTwoPi(4.0 * geom::kPi / lambda * d + 1.23 + noise(rng));
    s.lambdaM = lambda;
    s.channel = 0;
    snaps.push_back(s);
  }
  return snaps;
}

const core::RigKinematics kKin{0.10, 0.5, 0.0, geom::kPi / 2.0};

using Isa = core::PowerProfile::Isa;

/// The kernel builds, named as they appear in benchmark names.
constexpr std::pair<Isa, const char*> kIsas[] = {{Isa::kBaseline, "baseline"},
                                                  {Isa::kAvx2, "avx2"},
                                                  {Isa::kAvx512, "avx512"}};

const char* isaName(Isa isa) {
  for (const auto& [each, name] : kIsas) {
    if (each == isa) return name;
  }
  return "?";
}

/// Evaluations of one build of the kernel at direction (phi, gamma), phi
/// stepping 0.01 rad per iteration: `formula` over state.range(0)
/// snapshots.
void evaluateKernel(benchmark::State& state, Isa isa,
                    core::ProfileFormula formula, double gamma) {
  const auto snaps = makeSnapshots(static_cast<size_t>(state.range(0)), 1.0);
  core::ProfileConfig pc;
  pc.formula = formula;
  const core::PowerProfile profile(snaps, kKin, pc);
  const double cg = std::cos(gamma);
  double phi = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.evaluateDirection(phi, cg, isa));
    phi += 0.01;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(snaps.size()));
}

/// BM_EvaluateQ/<isa>/<n>, BM_EvaluateR/<isa>/<n> and BM_EvaluateR3D (one
/// 3D direction of the enhanced profile, as the spatial search evaluates
/// it), once per kernel build the CPU supports, so one run compares the
/// builds on one box.  The unsupported builds are named in the context.
void registerKernelBenchmarks() {
  struct Arm {
    const char* name;
    core::ProfileFormula formula;
    double gamma;
    std::vector<int64_t> sizes;
  };
  const Arm arms[] = {
      {"BM_EvaluateQ", core::ProfileFormula::kRelativeQ, 0.0,
       {256, 1024, 2500}},
      {"BM_EvaluateR", core::ProfileFormula::kEnhancedR, 0.0,
       {256, 1024, 2500}},
      {"BM_EvaluateR3D", core::ProfileFormula::kEnhancedR, 0.4, {512, 1024}},
  };
  std::string skipped;
  for (const auto& [isa, name] : kIsas) {
    if (!core::PowerProfile::isaSupported(isa)) {
      skipped += std::string(skipped.empty() ? "" : ", ") + name;
      continue;
    }
    for (const Arm& arm : arms) {
      auto* b = benchmark::RegisterBenchmark(
          (std::string(arm.name) + "/" + name).c_str(), evaluateKernel, isa,
          arm.formula, arm.gamma);
      for (const int64_t n : arm.sizes) b->Arg(n);
    }
  }
  benchmark::AddCustomContext("kernel_isa",
                              isaName(core::PowerProfile::kernelIsa()));
  benchmark::AddCustomContext(
      "kernel_isa_skipped",
      skipped.empty() ? "none" : skipped + " (not supported by this CPU)");
}

void BM_AzimuthSearchExhaustive(benchmark::State& state) {
  const auto snaps = makeSnapshots(1024, 1.0);
  const core::PowerProfile profile(snaps, kKin, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::estimateAzimuth(profile, {}));
  }
}
BENCHMARK(BM_AzimuthSearchExhaustive);

void BM_AzimuthSearchCoarseFine(benchmark::State& state) {
  const auto snaps = makeSnapshots(1024, 1.0);
  const core::PowerProfile profile(snaps, kKin, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::estimateAzimuthCoarseFine(profile, {}));
  }
}
BENCHMARK(BM_AzimuthSearchCoarseFine);

void BM_SpatialSearch3D(benchmark::State& state) {
  const auto snaps = makeSnapshots(1024, 1.0);
  const core::PowerProfile profile(snaps, kKin, {});
  const core::SearchConfig search;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::estimateSpatial(profile, search));
  }
  // The half-plane grid plus 24 neighbours per refine round (an upper
  // bound: neighbours outside the polar range are skipped).
  const int64_t grid =
      static_cast<int64_t>(search.azimuthGridPoints / 2) *
      static_cast<int64_t>(std::max<size_t>(search.polarGridPoints / 2, 2));
  const int64_t evals = grid + 24 * search.refineRounds;
  state.SetItemsProcessed(state.iterations() * evals *
                          static_cast<int64_t>(snaps.size()));
}
BENCHMARK(BM_SpatialSearch3D);

void BM_Locate2D(benchmark::State& state) {
  core::RigObservation o1;
  o1.rig.center = {-0.2, 0.0, 0.0};
  o1.rig.kinematics = kKin;
  o1.snapshots = makeSnapshots(1024, geom::degToRad(75.0));
  core::RigObservation o2;
  o2.rig.center = {0.2, 0.0, 0.0};
  o2.rig.kinematics = kKin;
  o2.snapshots = makeSnapshots(1024, geom::degToRad(95.0));
  const std::vector<core::RigObservation> obs{o1, o2};
  const core::Locator locator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.locate2D(obs));
  }
}
BENCHMARK(BM_Locate2D);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  registerKernelBenchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
