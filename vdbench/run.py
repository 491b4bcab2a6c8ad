#!/usr/bin/env python3
"""End-to-end benchmark of the `vardelay` CLI.

    python3 vdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; the script finds the
root from its own path). It builds the release `vardelay` binary and the
in-process replayer (`vdbench/replay`), generates the workload's spec from
the seed, and then:

* `--trace 0` drives the CLI as a subprocess, one child at a time, in
  rounds until `--seconds` have passed. Each round times `validate`
  (set-up), a cold run, a cache-filling run, a warm-cache rerun, a full
  resume and each of the eight `--shard i/8` runs, and checks every
  output. The end-to-end metrics are medians over all samples.
* `--trace 1` replays the same spec in-process through the public API
  (the replayer) and reports the per-layer ledger, plus the CLI's
  traced-versus-untraced wall.

The last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
Everything before it is a human-readable report. Any build failure
exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_ROUNDS = 2
SETUP_REPS = 3  # validate runs per round at least; setup_s is the median
# Invocations are repeated within a round until they cover MIN_TOTAL_S
# of wall (at most MAX_REPS times): single runs on a shared host vary by
# 10-20%, so cheap runs such as validate or a warm rerun need many
# samples for a steady median.
MIN_TOTAL_S = 1.0
MAX_REPS = 30
# A round is SHARDS legs, one shard run each, and every kind of
# invocation spreads its repeats evenly over the legs: host speed on a
# shared machine moves from second to second, so samples taken back to
# back share one host state and count as one.
SHARDS = 8


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build():
    """Builds the CLI and the replayer; returns their paths or exits 2."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "vardelay"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "replay", "Cargo.toml")],
    ):
        try:
            rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        except OSError as e:
            log(f"build: {e}")
            rc = 1
        if rc != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(2)
    cli = os.path.join(target, "release", "vardelay")
    replay = os.path.join(target, "release", "vdbench-replay")
    for p in (cli, replay):
        if not os.path.isfile(p):
            log(f"build produced no {p}")
            sys.exit(2)
    return cli, replay


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


class Runner:
    """Runs CLI children one at a time and keeps the failure ledger."""

    def __init__(self, cli, work):
        self.cli = cli
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, args):
        """Runs `vardelay ARGS`; returns (wall_s, exit code, peak RSS in MB)."""
        err_path = os.path.join(self.work, "stderr.txt")
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen([self.cli] + args, cwd=self.work,
                                 stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        if p.returncode != 0:
            with open(err_path, errors="replace") as f:
                log(f"vardelay {' '.join(args)} exited {p.returncode}: {f.read()[-2000:]}")
        return wall, p.returncode, usage.ru_maxrss / 1024.0

    def check(self, what, ok):
        """Counts one CLI invocation: it fails if it exited non-zero or
        its output check failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            log(f"CHECK FAILED: {what}")


def read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def journal_lines(path):
    """Journal lines keyed by unit key (the `"unit"` field)."""
    out = {}
    data = read(path)
    if data is None:
        return None
    for line in data.decode().splitlines():
        if line.strip():
            out[json.loads(line)["unit"]] = line
    return out


# ---------------------------------------------------------------------------
# Answers computed from the checked output bytes
# ---------------------------------------------------------------------------

def model_err_pp(kind, out):
    """Max |analytic - MC| yield (percentage points) over units reporting both."""
    errs = []
    if kind == "sweep":
        for s in out["scenarios"]:
            if s["mc"] is None:
                continue
            mc = {y["target_ps"]: y["value"] for y in s["mc"]["yields"]}
            for y in s["analytic"]["yields"]:
                if y["target_ps"] in mc:
                    errs.append(abs(y["value"] - mc[y["target_ps"]]) * 100.0)
    else:
        for r in out["runs"]:
            if r["mc"] is not None:
                errs.append(abs(r["analytic_yield_after"] - r["mc"]["value"]) * 100.0)
    return max(errs) if errs else 0.0


def area_saved_pct(kind, out):
    """Mean pipeline area reduction over runs that meet their yield target.

    Sweeps size nothing, so there is no area to save; they report the
    fixed placeholder 1.0 (see vdbench/README.md)."""
    if kind == "sweep":
        return 1.0
    saved = [
        (r["report"]["pipeline_area_before"] - r["report"]["pipeline_area_after"])
        / r["report"]["pipeline_area_before"] * 100.0
        for r in out["runs"]
        if r["report"]["met"]
    ]
    return statistics.mean(saved) if saved else 0.0


def verify_usage(kind, out):
    """MC verification trials run, and the share of the `verify_trials`
    ceiling they used over runs that stop early on `ci_half_width`."""
    if kind == "sweep":
        return {"opt.verify_trials": 0.0, "opt.verify_used_frac": 0.0}
    run = ceiling = used = 0
    for r in out["runs"]:
        for mc in (r["mc"], r["individual"]["mc"]):
            if mc is not None:
                run += mc["trials"]
    for r in out["runs"]:
        v = r["spec"].get("verify_trials")
        if isinstance(v, dict) and "ci_half_width" in v:
            for mc in (r["mc"], r["individual"]["mc"]):
                if mc is not None:
                    ceiling += v["count"]
                    used += mc["trials"]
    return {"opt.verify_trials": float(run), "opt.verify_used_frac": used / ceiling if ceiling else 0.0}


def sane_bytes(kind, data, expect_units):
    """Whether output bytes parse as a result that passes `sane`."""
    try:
        return data is not None and sane(kind, json.loads(data), expect_units)
    except (ValueError, KeyError, TypeError):
        return False


def unit_count(kind, out):
    return len(out["scenarios"] if kind == "sweep" else out["runs"])


def sane(kind, out, expect_units):
    """Structural check of a parsed result: unit count and yields in [0, 1]."""
    if unit_count(kind, out) != expect_units:
        return False
    ys = []
    if kind == "sweep":
        for s in out["scenarios"]:
            ys += [y["value"] for y in s["analytic"]["yields"]]
            if s["mc"] is not None:
                ys += [y["value"] for y in s["mc"]["yields"]]
    else:
        for r in out["runs"]:
            ys.append(r["analytic_yield_after"])
            if r["mc"] is not None:
                ys.append(r["mc"]["value"])
    return all(0.0 <= y <= 1.0 for y in ys)


# ---------------------------------------------------------------------------
# Statistics and output
# ---------------------------------------------------------------------------

def spread(values):
    """Inter-quartile range as a share of the median (0 for < 2 samples)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def emit(correct, runner, metrics):
    print(json.dumps({
        "correct": bool(correct),
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def end_to_end(args, kind, spec_path, runner, expect_units, workers):
    work = runner.work
    w = ["--workers", str(workers)]
    samples = {k: [] for k in ("setup_s", "wall_s", "cache_fill_s", "warm_s",
                               "resume_s", "shard_s", "peak_rss_mb")}
    state = {"cold": None, "fill": {}}

    def measure(metric, argv, check, what, leg, prepare=None, min_reps=1):
        """Runs one kind of invocation in leg `leg` of a round. Over the
        round it covers MIN_TOTAL_S of wall (at most MAX_REPS runs, at
        least `min_reps`); after leg j, (j + 1) / SHARDS of that is done.
        Every run is timed and checked."""
        share = (leg + 1) / SHARDS
        while (this_round[metric][1] < min_reps * share
               or (this_round[metric][0] < MIN_TOTAL_S * share
                   and this_round[metric][1] < MAX_REPS * share)):
            if prepare:
                prepare()
            wall, rc, rss = runner.run(argv)
            runner.check(what, rc == 0 and check())
            samples[metric].append(wall)
            if metric == "wall_s":
                samples["peak_rss_mb"].append(rss)
            this_round[metric][0] += wall
            this_round[metric][1] += 1

    def same_as_cold(name):
        return lambda: state["cold"] is not None and read(os.path.join(work, name)) == state["cold"]

    def cold_ok():
        cold = read(os.path.join(work, "cold.json"))
        if state["cold"] is None and sane_bytes(kind, cold, expect_units):
            state["cold"] = cold
        return cold is not None and cold == state["cold"]

    def fresh_cache():
        shutil.rmtree(os.path.join(work, "cache"), ignore_errors=True)
        for f in ("fill.jsonl", "shard.jsonl"):
            if os.path.exists(os.path.join(work, f)):
                os.remove(os.path.join(work, f))

    def fill_ok():
        state["fill"] = journal_lines(os.path.join(work, "fill.jsonl")) or {}
        return same_as_cold("fill.json")() and len(state["fill"]) == expect_units

    def fresh_resume():
        shutil.copyfile(os.path.join(work, "fill.jsonl"), os.path.join(work, "resume.jsonl"))

    def shard_ok(seen):
        path = os.path.join(work, "shard.jsonl")
        lines = journal_lines(path) or {}
        if os.path.exists(path):
            os.remove(path)
        ok = all(state["fill"].get(k) == v and k not in seen for k, v in lines.items())
        seen.update(lines)
        return ok

    t_start = time.perf_counter()
    rounds = 0
    while True:
        this_round = {k: [0.0, 0] for k in samples}
        # Every shard i/8 in turn, one per leg: each journals exactly the
        # cold journal's lines for its keys, and together they cover
        # every unit once. shard_s is the mean shard wall: every unit
        # runs once across the eight, so it does not depend on how the
        # seed's keys happen to fall.
        seen, walls = {}, []
        for leg in range(SHARDS):
            measure("setup_s", [kind, "validate", spec_path], lambda: True, "validate", leg,
                    min_reps=SETUP_REPS)
            measure("wall_s", [kind, spec_path, *w, "--out", "cold.json"], cold_ok,
                    "cold run: exit 0, sane output, same bytes every time", leg)
            # The fill fsyncs every cache record, so shared-disk latency
            # makes it the noisiest run: always take two samples per round.
            measure("cache_fill_s", [kind, spec_path, *w, "--cache", "cache", "--checkpoint", "fill.jsonl",
                                     "--out", "fill.json"], fill_ok,
                    "cache fill: bytes equal cold, every unit journaled", leg,
                    prepare=fresh_cache, min_reps=2)
            measure("warm_s", [kind, spec_path, *w, "--cache", "cache", "--out", "warm.json"],
                    same_as_cold("warm.json"), "warm: bytes equal cold", leg)
            measure("resume_s", [kind, spec_path, *w, "--resume", "resume.jsonl", "--out", "resume.json"],
                    same_as_cold("resume.json"), "resume: bytes equal cold", leg, prepare=fresh_resume)
            i = leg + 1
            wall, rc, _ = runner.run([kind, spec_path, *w, "--shard", f"{i}/{SHARDS}",
                                      "--checkpoint", "shard.jsonl", "--out", "shard.json"])
            runner.check(f"shard {i}/{SHARDS}: journal lines equal the cold journal's",
                         rc == 0 and shard_ok(seen))
            walls.append(wall)
        runner.check("shards: union covers every unit exactly once", len(seen) == expect_units)
        samples["shard_s"].append(statistics.mean(walls))
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
            break

    # Worker-count independence: a cold run at --workers 1.
    _, rc, _ = runner.run([kind, spec_path, "--workers", "1", "--out", "cold_w1.json"])
    runner.check("workers 1: bytes equal workers nproc", rc == 0 and same_as_cold("cold_w1.json")())

    out = json.loads(state["cold"]) if state["cold"] is not None else None
    units = unit_count(kind, out) if out else 0
    samples["units_per_s"] = [units / x for x in samples["wall_s"]]
    med = {k: statistics.median(v) for k, v in samples.items()}
    metrics = {
        "setup_s": (med["setup_s"], "s"),
        "wall_s": (med["wall_s"], "s"),
        "units_per_s": (med["units_per_s"], "1/s"),
        "cache_fill_s": (med["cache_fill_s"], "s"),
        "warm_s": (med["warm_s"], "s"),
        "resume_s": (med["resume_s"], "s"),
        "shard_s": (med["shard_s"], "s"),
        "peak_rss_mb": (med["peak_rss_mb"], "MB"),
        "model_err_pp": (model_err_pp(kind, out) if out else 0.0, "pp"),
        "area_saved_pct": (area_saved_pct(kind, out) if out else 0.0, "%"),
        "ok_frac": (1.0 - runner.failed / max(runner.attempted, 1), "fraction"),
    }
    print(f"# {args.workload} seed {args.seed}: {rounds} rounds, {units} units, "
          f"{runner.attempted} CLI invocations, {runner.failed} failed")
    print("# metric            median        spread(IQR/med)  n")
    for k, (v, u) in metrics.items():
        s = samples.get(k, [])
        print(f"#   {k:<16} {v:>12.6g} {u:<8} {spread(s):>8.4f}  {len(s) or 1}")
    return metrics, state["cold"] is not None


def traced(args, kind, spec_path, runner, replay, expect_units, workers, per_layer):
    """The per-layer ledger: CLI traced vs untraced, then the replayer."""
    w = ["--workers", str(workers)]
    untraced, traced_walls = [], []
    cold_ref = None
    t_start = time.perf_counter()
    budget = args.seconds / 2
    while True:
        wall, rc, _ = runner.run([kind, spec_path, *w, "--out", "cold.json"])
        cold = read(os.path.join(runner.work, "cold.json"))
        if rc == 0 and cold_ref is None and sane_bytes(kind, cold, expect_units):
            cold_ref = cold
        ok = rc == 0 and cold is not None and cold == cold_ref
        runner.check("untraced cold run", ok)
        untraced.append(wall)
        wall, rc, _ = runner.run([kind, spec_path, *w, "--out", "traced.json",
                                  "--trace", "trace.json", "--metrics", "metrics.json"])
        runner.check("traced --out bytes equal untraced",
                     rc == 0 and cold_ref is not None and read(os.path.join(runner.work, "traced.json")) == cold_ref)
        traced_walls.append(wall)
        if len(untraced) >= MIN_ROUNDS and time.perf_counter() - t_start > budget:
            break

    # The fill run gives the replayer a real journal to parse.
    shutil.rmtree(os.path.join(runner.work, "cache"), ignore_errors=True)
    if os.path.exists(os.path.join(runner.work, "fill.jsonl")):
        os.remove(os.path.join(runner.work, "fill.jsonl"))
    _, rc, _ = runner.run([kind, spec_path, *w, "--cache", "cache", "--checkpoint", "fill.jsonl",
                           "--out", "fill.json"])
    runner.check("cache fill (journal for the replay)", rc == 0)

    remaining = max(1.0, args.seconds - (time.perf_counter() - t_start))
    cmd = [replay, "--kind", kind, "--spec", spec_path, "--journal", "fill.jsonl",
           "--workers", str(workers), "--seconds", f"{remaining:.3f}", "--out", "replay.json"]
    r = subprocess.run(cmd, cwd=runner.work, capture_output=True, text=True)
    layers = {}
    if r.returncode == 0:
        layers = json.loads(r.stdout.strip().splitlines()[-1])
    else:
        log(f"replay exited {r.returncode}: {r.stderr[-2000:]}")
    runner.check("replay: exit 0, --out bytes equal the CLI's",
                 r.returncode == 0 and cold_ref is not None
                 and read(os.path.join(runner.work, "replay.json")) == cold_ref)
    sys.stderr.write(r.stderr)

    cli_wall = statistics.median(untraced)
    traced_wall = statistics.median(traced_walls)
    inproc = layers.get("inproc_wall_s", 0.0)
    layers["cli.overhead_s"] = cli_wall - inproc
    layers["obs.overhead_frac"] = (traced_wall - cli_wall) / cli_wall
    if cold_ref is not None:
        layers.update(verify_usage(kind, json.loads(cold_ref)))
    metrics = {}
    for m in per_layer:
        metrics[m["name"]] = (float(layers.get(m["name"], 0.0)), m["unit"])
    missing = [m["name"] for m in per_layer if m["name"] not in layers]
    runner.check("replay reported every per-layer metric", not missing)
    if missing:
        log(f"replay did not report: {', '.join(missing)}")

    print(f"# {args.workload} seed {args.seed}: traced ledger "
          f"(CLI cold {cli_wall:.4f} s untraced, {traced_wall:.4f} s traced, "
          f"in-process {inproc:.4f} s, {len(untraced)} CLI pairs)")
    for k, (v, u) in metrics.items():
        print(f"#   {k:<28} {v:>14.6g} {u}")
    gap = layers.get("ledger.unattributed_frac", 0.0)
    print(f"# ledger: {gap * 100:.2f}% of the in-process wall is outside every timed layer "
          f"(target within 15%)")
    if args.workload == "analytic_grid":
        print("# finding: warm, resume and shard runs on analytic_grid still pay the full unit "
              "preparation (engine.prepare_s), because every unit is prepared before the "
              "journal/cache/shard decision; see ROADMAP item 1.")
    return metrics, cold_ref is not None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    cores = len(os.sched_getaffinity(0))

    cli, replay = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        per_layer = json.load(f)["per_layer"]
    kind, gen, size = workloads.WORKLOADS[args.workload]
    expect_units = size()["units"]
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        spec_path = "spec.json"
        with open(os.path.join(work, spec_path), "w") as f:
            json.dump(gen(args.seed), f, indent=1)
        runner = Runner(cli, work)
        print(f"# vdbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
              f"cores={cores} workers={cores} commit={commit()} "
              f"stated size: {size()}")
        if args.trace:
            metrics, ok = traced(args, kind, spec_path, runner, replay, expect_units, cores, per_layer)
        else:
            metrics, ok = end_to_end(args, kind, spec_path, runner, expect_units, cores)
        if runner.failures:
            print(f"# failed checks: {runner.failures}")
        emit(ok and runner.failed == 0, runner, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    main()
