#!/usr/bin/env python3
"""Build and run the Tagspin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of the repository.  The first run configures and builds
perfbench/ (which builds ../src) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only check the build.  The last
line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; a stamped copy with the
build, machine and run details is written under
<build dir>/results/<source digest>/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fleet_serve", "fleet_pool", "survey3d", "replay_drain"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configure once, then build the benchmark program; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", out, "--target", "tagspin_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "tagspin_perfbench")


def source_digest():
    """SHA-256 over the program and benchmark sources (names and bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return None


def cpu_info():
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    wanted = ("sse4_2", "avx", "avx2", "fma", "avx512f")
                    flags = [x for x in value.split() if x in wanted]
    except OSError:
        pass
    return model, flags


def stamp(binary, args, source):
    info = subprocess.run([binary, "--build-info"], capture_output=True,
                          text=True).stdout
    model, flags = cpu_info()
    return {
        "commit": commit(),
        "source_sha256": source,
        "build": json.loads(info) if info.strip() else None,
        "cpu_model": model,
        "cpu_flags": flags,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_once(binary, workload, seed, seconds, trace, out_dir, extra=()):
    """Run the program; returns (result, detail) or raises RuntimeError."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir, *extra]
    r = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S, cwd=ROOT)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        raise RuntimeError(f"{workload} exited with {r.returncode}")
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"{workload} printed nothing")
    result = json.loads(lines[-1])
    detail = {}
    for line in lines[:-1]:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    return result, detail


def main_run(args):
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    # Results, spans and the fleet digests are kept per source tree, so a
    # digest from other code is never compared with this build's.
    source = source_digest()
    out_dir = os.path.join(build_dir(), "results", source[:16])
    os.makedirs(out_dir, exist_ok=True)
    try:
        result, detail = run_once(binary, args.workload, args.seed,
                                  args.seconds, args.trace, out_dir)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    record = {"stamp": stamp(binary, args, source), "detail": detail,
              "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=2)
    print(json.dumps(result))
    return 0


def main_selftest():
    """Tiny-size checks of the benchmark itself."""
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    out_dir = os.path.join(build_dir(), "selftest")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    failures = []

    def check(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            what = f"{workload} trace {trace}"
            try:
                result, detail = run_once(binary, workload, 1, 2, trace,
                                          out_dir, ["--tiny"])
            except (RuntimeError, ValueError) as e:
                check(False, f"{what}: {e}")
                continue
            check(result["correct"] and result["failed"] == 0,
                  f"{what}: gates pass")
            check(result["attempted"] >= 1, f"{what}: attempted >= 1")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  f"{what}: emits exactly its metrics with their units")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{what}: every value is a number")
            if workload == "fleet_pool" and trace == 0:
                check(detail.get("gate.digest_matches_fleet_serve") is True,
                      "fleet_pool digest equals fleet_serve digest")
    for workload in ("survey3d", "fleet_serve"):
        try:
            result, _ = run_once(binary, workload, 1, 2, 0, out_dir,
                                 ["--tiny", "--plant-error-m", "1.0"])
            check(not result["correct"] and result["failed"] > 0,
                  f"{workload}: a fix shifted 1 m trips the accuracy gate")
        except (RuntimeError, ValueError) as e:
            check(False, f"{workload} planted: {e}")
    log(f"selftest: {len(failures)} failure(s)")
    return 0 if not failures else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return main_selftest()
    if args.workload is None:
        p.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
