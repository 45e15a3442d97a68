// replay_drain: draining capture images as fast as the host allows, a
// closed loop with one caller.  No fixes are computed.
//
// Each image is a long multi-rig capture with about 1% of its chunks hit
// by a seeded bit flip.  One request is one pass over one image:
// capture::decodeCaptureTolerant -> capture::makeReplayStream ->
// capture::ReplayTransport (speed 0, everything on the first poll) ->
// rfid::llrp::TolerantStreamDecoder::feed -> core::extractSnapshotsRobust
// per tag.  Decode and preprocess are the whole cost here, and the
// corrupted chunks keep the resync path running beside the clean path.
#include <algorithm>
#include <map>
#include <numbers>

#include "capture/digest.hpp"
#include "capture/format.hpp"
#include "capture/replay.hpp"
#include "core/preprocess.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "rfid/llrp.hpp"
#include "sim/interrogator.hpp"
#include "sim/rng.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

using namespace tagspin;

namespace {

/// Set-up is repeated and its median reported; it takes well under a
/// second, so five repetitions are cheap.
constexpr int kSetupReps = 5;

struct DrainSizes {
  int rigs = 3;
  double revolutions = 8.0;
  size_t images = 4;
  size_t chunkReports = 64;
  double corruptFraction = 0.01;
};

DrainSizes drainSizes(bool tiny) {
  DrainSizes s;
  if (tiny) {
    s.revolutions = 1.0;
    s.images = 2;
  }
  return s;
}

/// One corrupted capture image and what a correct drain must recover.
struct Image {
  std::vector<uint8_t> bytes;
  std::vector<rfid::Epc> epcs;
  uint64_t reportsWritten = 0;
  uint64_t chunksCorrupted = 0;
  /// Reports of the intact chunks, in order, as the strict decoder reads
  /// them from the uncorrupted image.
  uint64_t expectedReports = 0;
  uint64_t expectedDigest = 0;
};

Image makeImage(uint64_t seed, uint64_t index, const DrainSizes& sizes) {
  sim::ScenarioConfig sc;
  sc.seed = sim::deriveSeed(seed, 0xD0 + index);
  sim::World world = sim::makeRigRowWorld(sc, sizes.rigs);
  auto rng = sim::makeRng(sim::deriveSeed(seed, 0xD100 + index));
  sim::Region region;
  sim::placeReaderAntenna(world, 0, region.sample(rng, false));
  const double period = 2.0 * std::numbers::pi / sc.rigOmegaRadPerS;
  const rfid::ReportStream reports = sim::interrogate(
      world, {sizes.revolutions * period, 0, sim::deriveSeed(seed, 0xD200 + index)});

  Image img;
  for (const sim::RigTag& rt : world.rigs) img.epcs.push_back(rt.tag.epc);
  const capture::TimedStream timed = capture::withReaderTiming(reports);
  img.bytes = capture::encodeFileHeader();
  std::vector<std::pair<size_t, size_t>> chunks;  // byte offset, size
  std::vector<std::pair<size_t, size_t>> spans;   // report offset, count
  uint32_t sequence = 0;
  for (size_t off = 0; off < timed.size(); off += sizes.chunkReports) {
    const size_t n = std::min(sizes.chunkReports, timed.size() - off);
    const std::vector<uint8_t> chunk = capture::encodeChunk(
        std::span<const capture::TimedReport>(timed).subspan(off, n),
        sequence++);
    chunks.emplace_back(img.bytes.size(), chunk.size());
    spans.emplace_back(off, n);
    img.bytes.insert(img.bytes.end(), chunk.begin(), chunk.end());
  }
  img.reportsWritten = timed.size();
  const capture::TimedStream intact = capture::decodeCapture(img.bytes);

  // Flip one payload bit in ~corruptFraction of the chunks; each dies to
  // its payload CRC and takes exactly its own reports with it.
  std::vector<size_t> order(chunks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  const size_t hit = std::min(
      chunks.size(),
      std::max<size_t>(1, static_cast<size_t>(sizes.corruptFraction *
                                              static_cast<double>(chunks.size()))));
  std::vector<bool> dead(chunks.size(), false);
  for (size_t k = 0; k < hit; ++k) {
    const auto [off, size] = chunks[order[k]];
    const size_t pos = off + capture::kChunkHeaderSize +
                       rng() % (size - capture::kChunkHeaderSize);
    img.bytes[pos] ^= static_cast<uint8_t>(1u << (rng() % 8));
    dead[order[k]] = true;
  }
  img.chunksCorrupted = hit;
  rfid::ReportStream survivors;
  for (size_t c = 0; c < chunks.size(); ++c) {
    if (dead[c]) continue;
    for (size_t r = 0; r < spans[c].second; ++r) {
      survivors.push_back(intact[spans[c].first + r].report);
    }
  }
  img.expectedReports = survivors.size();
  img.expectedDigest = capture::streamDigest(survivors);
  return img;
}

struct PassOutcome {
  double seconds = 0.0;
  uint64_t reports = 0;
  bool correct = false;
};

/// Per-layer accumulators of a traced pass.
struct DrainLayers {
  double captureS = 0.0;
  double feedS = 0.0;
  double preprocessS = 0.0;
  double rigs = 0.0;
  double reports = 0.0;
  double kept = 0.0;
  double frames = 0.0;
  double rejected = 0.0;
};

PassOutcome drainOnce(const Image& img, Tracer& tracer, uint64_t request,
                      DrainLayers* layers) {
  PassOutcome out;
  ScopedSpan passSpan(tracer, "drain.pass", request);
  const auto start = Clock::now();
  capture::CaptureStats cstats;
  capture::TimedStream timed;
  {
    ScopedSpan span(tracer, "capture.decode_capture_tolerant", request);
    timed = capture::decodeCaptureTolerant(img.bytes, &cstats);
  }
  const auto t1 = Clock::now();
  std::shared_ptr<const capture::ReplayStream> stream;
  {
    ScopedSpan span(tracer, "capture.make_replay_stream", request);
    stream = capture::makeReplayStream(std::move(timed));
  }
  runtime::TransportRead read;
  {
    ScopedSpan span(tracer, "capture.replay_poll", request);
    capture::ReplayTransport transport(stream, {.speed = 0.0});
    transport.connect(0.0);
    read = transport.poll(0.0);
  }
  const auto t2 = Clock::now();
  rfid::llrp::TolerantStreamDecoder decoder;
  rfid::ReportStream reports;
  {
    ScopedSpan span(tracer, "rfid.tolerant_feed", request);
    reports = decoder.feed(read.bytes);
    decoder.finish();
  }
  const auto t3 = Clock::now();
  bool preprocessOk = true;
  size_t kept = 0;
  for (const rfid::Epc& epc : img.epcs) {
    ScopedSpan span(tracer, "preprocess.extract_snapshots_robust", request);
    const auto snaps = core::extractSnapshotsRobust(reports, epc);
    if (!snaps || snaps->empty()) {
      preprocessOk = false;
    } else {
      kept += snaps->size();
    }
  }
  out.seconds = secondsSince(start);
  passSpan.close();
  out.reports = reports.size();
  if (layers != nullptr) {
    layers->captureS += std::chrono::duration<double>(t1 - start).count();
    layers->feedS += std::chrono::duration<double>(t3 - t2).count();
    layers->preprocessS +=
        out.seconds - std::chrono::duration<double>(t3 - start).count();
    layers->rigs += static_cast<double>(img.epcs.size());
    layers->reports += static_cast<double>(reports.size());
    layers->kept += static_cast<double>(kept);
    const auto& d = decoder.stats();
    layers->frames += static_cast<double>(d.framesDecoded + d.framesRejected);
    layers->rejected += static_cast<double>(d.framesRejected);
  }
  // Untimed check: exactly the intact chunks' reports, bit for bit, through
  // both the capture decoder and the LLRP round trip.
  out.correct = preprocessOk && cstats.reportsRecovered == img.expectedReports &&
                reports.size() == img.expectedReports &&
                capture::streamDigest(reports) == img.expectedDigest;
  return out;
}

}  // namespace

RunResult runReplayDrain(const Options& options) {
  const DrainSizes sizes = drainSizes(options.tiny);
  RunResult result;
  MetricSheet sheet;

  // Set-up: generate, frame and corrupt the images, then one warm-up pass.
  std::vector<double> setupTimes;
  std::vector<Image> images;
  Tracer off(false);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    std::vector<Image> made;
    for (size_t i = 0; i < sizes.images; ++i) {
      made.push_back(makeImage(options.seed, i, sizes));
    }
    (void)drainOnce(made.front(), off, 0, nullptr);
    setupTimes.push_back(secondsSince(start));
    images = std::move(made);
  }
  sheet.set("setup_s", median(setupTimes));
  uint64_t written = 0;
  uint64_t expected = 0;
  for (size_t i = 0; i < images.size(); ++i) {
    written += images[i].reportsWritten;
    expected += images[i].expectedReports;
    result.detail("image" + std::to_string(i) + ".chunks_corrupted",
                  static_cast<double>(images[i].chunksCorrupted));
  }
  result.detail("reports_written_per_cycle", static_cast<double>(written));

  // Drains images round-robin: `n` passes, or `budgetS` of wall time when
  // n == 0.
  const auto drain = [&](size_t n, double budgetS, Tracer& tracer,
                         DrainLayers* layers) {
    std::vector<PassOutcome> out;
    const auto start = Clock::now();
    for (size_t i = 0;
         n == 0 ? (out.empty() || secondsSince(start) < budgetS) : i < n;
         ++i) {
      out.push_back(
          drainOnce(images[i % images.size()], tracer, i, layers));
    }
    return out;
  };
  const auto judge = [&](const std::vector<PassOutcome>& passes) {
    for (const PassOutcome& p : passes) {
      ++result.attempted;
      if (!p.correct) ++result.failed;
    }
    result.gate("recovered_reports", result.failed == 0,
                std::to_string(result.failed) +
                    " passes did not recover exactly the intact chunks");
  };
  const auto wall = [](const std::vector<PassOutcome>& passes) {
    double s = 0.0;
    for (const PassOutcome& p : passes) s += p.seconds;
    return s;
  };

  if (!options.trace) {
    const std::vector<PassOutcome> passes = drain(0, options.seconds, off, nullptr);
    judge(passes);
    std::vector<double> ms;
    std::vector<double> reportsPerS;
    for (const PassOutcome& p : passes) {
      ms.push_back(p.seconds * 1e3);
      reportsPerS.push_back(static_cast<double>(p.reports) / p.seconds);
    }
    sheet.set("request_p50_ms", median(ms));
    sheet.set("request_p90_ms", percentile(ms, 90.0));
    sheet.set("reports_per_s", median(reportsPerS));
    result.detail("request_samples", static_cast<double>(ms.size()));
  } else {
    // A: untraced passes for half the budget; B: the same passes traced.
    const std::vector<PassOutcome> a = drain(0, options.seconds / 2.0, off, nullptr);
    judge(a);
    Tracer tracer(true);
    DrainLayers layers;
    const std::vector<PassOutcome> b = drain(a.size(), 0.0, tracer, &layers);
    sheet.set("obs.trace_overhead_ratio", wall(b) / wall(a));
    sheet.set("capture.decode_ns_per_report",
              layers.captureS * 1e9 / layers.reports);
    sheet.set("capture.recovered_ratio",
              static_cast<double>(expected) / static_cast<double>(written));
    sheet.set("rfid.decode_ns_per_report", layers.feedS * 1e9 / layers.reports);
    sheet.set("rfid.frames_rejected_ratio",
              layers.frames > 0.0 ? layers.rejected / layers.frames : 0.0);
    sheet.set("preprocess.us_per_rig", layers.preprocessS * 1e6 / layers.rigs);
    sheet.set("preprocess.kept_ratio",
              layers.reports > 0.0 ? layers.kept / layers.reports : 0.0);
    tracer.write(options.outDir + "/replay_drain-seed" +
                 std::to_string(options.seed) + "-spans.json");
  }
  sheet.set("accuracy.fix_fail_ratio",
            static_cast<double>(result.failed) /
                static_cast<double>(result.attempted));
  sheet.set("peak_rss_mb", peakRssMb());
  result.detail("loop", "closed, 1 caller");
  result.detail("worker_threads", 0.0);
  sheet.emit(result, options.trace);
  return result;
}

}  // namespace perfbench
