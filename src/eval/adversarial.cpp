#include "eval/adversarial.hpp"

#include <algorithm>
#include <random>
#include <set>
#include <sstream>

#include "core/tagspin.hpp"
#include "dsp/stats.hpp"
#include "eval/estimators.hpp"
#include "eval/metrics.hpp"
#include "obs/json.hpp"
#include "sim/interrogator.hpp"
#include "sim/rng.hpp"

namespace tagspin::eval {

namespace {

/// Replace ~`fraction` of each corrupted tag's reports with reads of the
/// same tag taken from the ghost reader position.  Report-level Bernoulli
/// mixing (rather than a contiguous block) models a persistent reflector:
/// the ghost energy is spread over the whole spin, so the corrupted rig's
/// spectrum grows a full-strength second lobe instead of losing aperture.
rfid::ReportStream mixGhostReports(const rfid::ReportStream& clean,
                                   const rfid::ReportStream& ghost,
                                   const std::set<rfid::Epc>& corrupted,
                                   double fraction, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  rfid::ReportStream mixed;
  mixed.reserve(clean.size());
  for (const rfid::TagReport& r : clean) {
    if (corrupted.count(r.epc) > 0 && unif(rng) < fraction) continue;
    mixed.push_back(r);
  }
  for (const rfid::TagReport& r : ghost) {
    if (corrupted.count(r.epc) > 0 && unif(rng) < fraction) {
      mixed.push_back(r);
    }
  }
  std::sort(mixed.begin(), mixed.end(),
            [](const rfid::TagReport& a, const rfid::TagReport& b) {
              return a.timestampS < b.timestampS;
            });
  return mixed;
}

/// Ghost position for a trial: sampled from the same region but forced
/// away from the truth, so the wrong lobe is angularly distinct.
geom::Vec3 sampleGhost(const sim::Region& region, const geom::Vec3& truth,
                       std::mt19937_64& rng) {
  geom::Vec3 ghost = region.sample(rng, false);
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (geom::distance(ghost.xy(), truth.xy()) >= 1.0) break;
    ghost = region.sample(rng, false);
  }
  return ghost;
}

std::string caseLabel(const AdversarialCase& c) {
  std::ostringstream out;
  out << c.corruptedRigs << "bad_g" << c.ghostFraction << "_s"
      << c.scattererCount;
  return out.str();
}

}  // namespace

std::vector<AdversarialCase> AdversarialConfig::defaultCases() {
  return {
      {0, 0.6, 3},  // clean reference: robust must cost nothing
      {1, 0.6, 3},  // the acceptance case: 1 of 4 spins ghost-dominated
      {2, 0.6, 3},  // half the majority gone
      {1, 0.3, 3},  // weak reflector: ghost lobe below the true lobe
      {1, 0.75, 3},  // strong reflector: deep into quarantine territory
      {1, 0.6, 6},  // interferer clutter up
      {1, 0.6, 9},
  };
}

core::LocatorConfig AdversarialConfig::defaultBaseline() {
  core::LocatorConfig config;
  config.robust.diagnostics = false;
  config.robust.consensus = false;
  config.robust.bootstrap = false;
  return config;
}

core::LocatorConfig AdversarialConfig::defaultRobust() {
  core::LocatorConfig config;
  config.robust.diagnostics = true;
  config.robust.consensus = true;
  config.robust.bootstrap = true;
  return config;
}

AdversarialResult runAdversarialSweep(const AdversarialConfig& config) {
  AdversarialResult result;
  const std::vector<AdversarialCase> cases =
      config.cases.empty() ? AdversarialConfig::defaultCases() : config.cases;

  for (size_t pi = 0; pi < cases.size(); ++pi) {
    const AdversarialCase& cs = cases[pi];
    sim::ScenarioConfig scenario = config.scenario;
    scenario.scattererCount = cs.scattererCount;
    const sim::World baseWorld =
        sim::makeRigRowWorld(scenario, config.rigCount);

    core::TagspinSystem baseline =
        buildTagspinServer(baseWorld, {}, config.baseline);
    core::TagspinSystem robust =
        buildTagspinServer(baseWorld, {}, config.robust);
    baseline.setHealthThresholds(config.health);
    robust.setHealthThresholds(config.health);

    std::set<rfid::Epc> corrupted;
    for (int i = 0; i < cs.corruptedRigs &&
                    i < static_cast<int>(baseWorld.rigs.size());
         ++i) {
      corrupted.insert(baseWorld.rigs[static_cast<size_t>(i)].tag.epc);
    }

    AdversarialPoint point;
    point.which = cs;
    point.trials = config.trialsPerPoint;
    double inlierSum = 0.0;
    double areaSum = 0.0;

    for (int trial = 0; trial < config.trialsPerPoint; ++trial) {
      // Reader placement and the clean stream depend on the trial alone so
      // every case sees the same geometry (paired across cases AND between
      // the two estimators within a trial).
      sim::World world = baseWorld;
      std::mt19937_64 placeRng =
          sim::makeRng(sim::deriveSeed(config.seed, trial));
      const geom::Vec3 truth = config.region.sample(placeRng, false);
      const geom::Vec3 ghostPos =
          sampleGhost(config.region, truth, placeRng);

      sim::InterrogateConfig ic;
      ic.durationS = config.durationS;
      ic.antennaPort = 0;
      ic.streamId = sim::deriveSeed(config.seed ^ 0xC1EA7ULL, trial);
      sim::placeReaderAntenna(world, 0, truth);
      const rfid::ReportStream clean = sim::interrogate(world, ic);

      rfid::ReportStream mixed = clean;
      if (!corrupted.empty() && cs.ghostFraction > 0.0) {
        sim::World ghostWorld = baseWorld;
        sim::placeReaderAntenna(ghostWorld, 0, ghostPos);
        sim::InterrogateConfig gic = ic;
        gic.streamId = sim::deriveSeed(config.seed ^ 0x6057ULL, trial);
        const rfid::ReportStream ghost = sim::interrogate(ghostWorld, gic);
        std::mt19937_64 mixRng = sim::makeRng(sim::deriveSeed(
            config.seed ^ 0x313ULL, pi * 100003ULL + trial));
        mixed = mixGhostReports(clean, ghost, corrupted, cs.ghostFraction,
                                mixRng);
      }

      const core::Result<core::ResilientFix2D> base =
          baseline.tryLocate2D(mixed);
      if (base) {
        ++point.baselineFixes;
        point.baselineErrorsCm.push_back(
            errorCm(base->fix.position, truth.xy()).combined);
      }

      const core::Result<core::ResilientFix2D> rob = robust.tryLocate2D(mixed);
      if (rob) {
        ++point.robustFixes;
        point.robustErrorsCm.push_back(
            errorCm(rob->fix.position, truth.xy()).combined);
        inlierSum += rob->fix.estimation.inlierFraction;
        for (const core::RigHealth& h : rob->report.rigHealth) {
          if (h.spin.verdict == robust::SpinVerdict::kSuspect) {
            ++point.suspectSpins;
          } else if (h.spin.verdict == robust::SpinVerdict::kQuarantine) {
            ++point.quarantinedSpins;
          }
        }
        if (rob->fix.estimation.ellipse) {
          ++point.ellipseTrials;
          if (rob->fix.estimation.ellipse->contains(truth.xy())) {
            ++point.ellipseCovered;
          }
          areaSum += rob->fix.estimation.ellipse->areaM2() * 1e4;
        }
      } else {
        ++point.robustFailures[core::errorCodeName(rob.error().code)];
      }
    }

    if (point.robustFixes > 0) {
      point.meanInlierFraction = inlierSum / point.robustFixes;
    }
    if (point.ellipseTrials > 0) {
      point.meanEllipseAreaCm2 = areaSum / point.ellipseTrials;
    }
    if (!point.baselineErrorsCm.empty()) {
      point.baselineMedianCm = dsp::median(point.baselineErrorsCm);
      point.baselineP90Cm = dsp::percentile(point.baselineErrorsCm, 90.0);
    }
    if (!point.robustErrorsCm.empty()) {
      point.robustMedianCm = dsp::median(point.robustErrorsCm);
      point.robustP90Cm = dsp::percentile(point.robustErrorsCm, 90.0);
    }
    result.points.push_back(std::move(point));
  }
  return result;
}

std::string adversarialCsv(const AdversarialResult& result) {
  std::ostringstream out;
  out << "corrupted_rigs,ghost_fraction,scatterers,trials,baseline_fixes,"
         "robust_fixes,baseline_median_cm,baseline_p90_cm,robust_median_cm,"
         "robust_p90_cm,mean_inlier_fraction,suspect_spins,"
         "quarantined_spins,ellipse_trials,ellipse_covered,"
         "mean_ellipse_area_cm2\n";
  for (const AdversarialPoint& p : result.points) {
    out << p.which.corruptedRigs << ',' << p.which.ghostFraction << ','
        << p.which.scattererCount << ',' << p.trials << ','
        << p.baselineFixes << ',' << p.robustFixes << ','
        << p.baselineMedianCm << ',' << p.baselineP90Cm << ','
        << p.robustMedianCm << ',' << p.robustP90Cm << ','
        << p.meanInlierFraction << ',' << p.suspectSpins << ','
        << p.quarantinedSpins << ',' << p.ellipseTrials << ','
        << p.ellipseCovered << ',' << p.meanEllipseAreaCm2 << '\n';
  }
  return out.str();
}

std::string adversarialJson(const AdversarialResult& result) {
  obs::JsonWriter w;
  w.beginObject().key("points").beginArray();
  for (const AdversarialPoint& p : result.points) {
    w.beginObject().field("corrupted_rigs", p.which.corruptedRigs);
    w.field("ghost_fraction", p.which.ghostFraction);
    w.field("scatterers", p.which.scattererCount).field("trials", p.trials);
    w.field("baseline_fixes", p.baselineFixes);
    w.field("robust_fixes", p.robustFixes);
    w.field("baseline_median_cm", p.baselineMedianCm);
    w.field("baseline_p90_cm", p.baselineP90Cm);
    w.field("robust_median_cm", p.robustMedianCm);
    w.field("robust_p90_cm", p.robustP90Cm);
    w.field("mean_inlier_fraction", p.meanInlierFraction);
    w.field("suspect_spins", p.suspectSpins);
    w.field("quarantined_spins", p.quarantinedSpins);
    w.field("ellipse_trials", p.ellipseTrials);
    w.field("ellipse_covered", p.ellipseCovered);
    w.field("mean_ellipse_area_cm2", p.meanEllipseAreaCm2);
    w.key("robust_failures").beginObject();
    for (const auto& [name, count] : p.robustFailures) w.field(name, count);
    w.end().end();
  }
  return w.end().end().str();
}

std::string adversarialCdfCsv(const AdversarialResult& result) {
  std::ostringstream out;
  out << "case,estimator,error_cm,cdf\n";
  const auto emit = [&](const AdversarialPoint& p, const char* estimator,
                        std::vector<double> errors) {
    std::sort(errors.begin(), errors.end());
    for (size_t i = 0; i < errors.size(); ++i) {
      out << caseLabel(p.which) << ',' << estimator << ',' << errors[i]
          << ',' << static_cast<double>(i + 1) / errors.size() << '\n';
    }
  };
  for (const AdversarialPoint& p : result.points) {
    emit(p, "least_squares", p.baselineErrorsCm);
    emit(p, "consensus", p.robustErrorsCm);
  }
  return out.str();
}

}  // namespace tagspin::eval
