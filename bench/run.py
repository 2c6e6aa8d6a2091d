"""apolar-kit benchmark: end-to-end CLI runs, or a traced run for layer times.

    python3 bench/run.py --workload trigonal --seed 1 --seconds 30 --trace 0

Runs the chosen workload serially through `apolar_kit.cli.main` with
`--out`, on a fixed set of whole rounds sized to last about `--seconds`
(see workloads.py), and checks every report.

With `--trace 0` the run makes PASSES passes over its cases.  Every call
runs in a child forked from this process, one at a time, so no case
sees what another left in memory.  Wall times are scaled to a
reference speed of the machine (speed.py).  A case's time is the
median of its runs, and all its runs must give the same report bytes.  The
last line of stdout holds the end-to-end metrics.
With `--trace 1` the run makes one untraced pass, in this process, over
rounds that last half as long, then replays the same cases with spans
around the package's public functions (tracer.py); the last line holds
the per-layer metrics, and every traced report must match its untraced
twin byte for byte.

The line before the last describes the machine, the inputs and every
case.  The exit code is 1 when any case failed, 2 when the package
cannot be found under `src/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

from speed import SpeedProbe
from tracer import Tracer, case_profiles, largest_stage, layer_metrics
from workloads import PASSES, ROUND_SECONDS, WORKLOADS, make_round

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
DEFAULT_SEED = 1
HOLDOUT_SEED = 7919
SETUP_REPEATS = 5
TAIL_BEYOND = 10
OVERRUN = 1.7

SETUP_SCRIPT = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from apolar_kit.cli import main\n"
    "sys.exit(main(['scroll', '--type', '1,1,2', '--class', '2,-2',"
    " '--op', 'degree', '--out', sys.argv[2]]))\n"
)


def _load_package():
    if not (SRC / "apolar_kit" / "__init__.py").is_file():
        print(f"bench: no apolar_kit package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from apolar_kit import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"bench: apolar_kit imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return cli


def machine_info() -> dict:
    import mpmath
    import sympy
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "mpmath": mpmath.__version__,
    }


def measure_setup(workdir: Path, probe: SpeedProbe) -> tuple[float, list]:
    """Median time of a fresh interpreter importing the package and
    finishing one tiny CLI call, at the reference speed; and the wall
    times measured."""
    env = {k: v for k, v in os.environ.items() if k != "APOLAR_KIT_THREADS"}
    out = workdir / "setup.out.json"
    times, samples = [], []
    for _ in range(SETUP_REPEATS):
        samples.append(probe.sample())
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(SRC), str(out)],
                              env=env, cwd=ROOT, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or json.loads(out.read_text()).get("result") is None:
            raise RuntimeError(f"setup call failed: {proc.stderr.decode()[-500:]}")
    probe.sample()
    scaled = [t * probe.scale(i) for t, i in zip(times, samples)]
    return statistics.median(scaled), times


def run_forked(func):
    """Call `func()` in a forked child and return what it returned.

    The child starts from this process's state, so a case can neither
    reuse what an earlier case left in memory nor leave anything for a
    later one.  The parent waits for the child before returning.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, func()))
            except BaseException as err:
                payload = pickle.dumps((False, f"{type(err).__name__}: {err}"))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError("the case process ended without a result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(value)
    return value


class Runner:
    """Runs cases through the CLI and records wall time, digest and problems.

    With `fork`, every call runs in its own forked child (see run_forked);
    otherwise in this process, with the tracer, if any, installed.  With
    a `probe`, each result records the speed sample its call follows.
    """

    def __init__(self, cli, tracer=None, fork=False, probe=None):
        self.cli = cli
        self.tracer = tracer
        self.fork = fork
        self.probe = probe
        self._checked: dict = {}   # (case id, digest) -> what the check found

    def _call(self, argv) -> tuple:
        start = time.perf_counter()
        code = self.cli.main(argv)
        elapsed = time.perf_counter() - start
        return code, elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def run(self, case) -> dict:
        problems = []
        elapsed = rss_mb = digest = sample = None
        report = {}
        try:
            if case.prepare is not None:
                case.prepare()
            argv = case.argv + ["--out", str(case.out_path)]
            case.out_path.unlink(missing_ok=True)
            if self.probe is not None:
                sample = self.probe.before_case()
            if self.fork:
                code, elapsed, rss_mb = run_forked(partial(self._call, argv))
            else:
                if self.tracer is not None:
                    self.tracer.case = case.id
                try:
                    code, elapsed, rss_mb = self._call(argv)
                finally:
                    if self.tracer is not None:
                        self.tracer.case = None
            data = case.out_path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if code != 0:
                problems.append(f"exit code {code}")
            report = json.loads(data)
            if (case.id, digest) not in self._checked:
                self._checked[case.id, digest] = case.check(report)
            problems += self._checked[case.id, digest]
        except Exception as err:  # a broken case must not stop the run
            problems.append(f"{type(err).__name__}: {err}")
        return {"id": case.id, "group": case.group, **case.props,
                "s": elapsed, "sample": sample, "rss_mb": rss_mb,
                "digest": digest, "problems": problems, "report": report}


def round_count(workload: str, seconds: float, passes: int) -> int:
    """Whole rounds that `passes` passes over them take about `seconds`.

    The count depends only on the workload, `seconds` and `passes`, so
    every run and every commit measures the same cases, and the order
    statistics (median, tail) sit at the same ranks.
    """
    return max(1, round(seconds / (passes * ROUND_SECONDS[workload])))


def run_passes(rounds: list, runner: Runner, passes: int, seconds: float) -> list:
    """Run every case of `rounds` once per pass, in order; the results of
    each pass.  A machine or commit much slower than the nominal round
    time stops starting rounds once the next one would end after
    OVERRUN times `seconds`: a first pass cut short is kept, a later one
    is dropped."""
    done = []
    start = time.perf_counter()
    last_round_s = 0.0
    for _ in range(passes):
        results, complete = [], True
        for index, cases in enumerate(rounds):
            round_start = time.perf_counter()
            if (done or index) and round_start - start + last_round_s > OVERRUN * seconds:
                complete = False
                break
            results += [runner.run(case) for case in cases]
            last_round_s = time.perf_counter() - round_start
        if complete or not done:
            done.append(results)
        if not complete:
            break
    return done


def at_reference_speed(passes: list, probe: SpeedProbe) -> None:
    """Turn each run's wall time `s` into seconds at the reference speed,
    from the speed samples around it (see SpeedProbe.scale); keep the
    wall time as `wall_s`."""
    probe.sample()
    for runs in passes:
        for r in runs:
            r["wall_s"] = r["s"]
            if r["s"] is not None:
                r["s"] *= probe.scale(r["sample"])


def per_case(passes: list) -> list:
    """One result per case: the median time of its runs and its largest
    peak RSS.

    Once scaled to the reference speed, the runs of a case estimate the
    same cost; the median ignores a run that a speed sample scaled too
    far either way, where the fastest run would pick it.  A case fails
    when any of its runs failed or when its runs did not all give the
    same report bytes.
    """
    merged = []
    for runs in zip(*passes):
        times = [r["s"] for r in runs if r["s"] is not None]
        wall = [r["wall_s"] for r in runs if r["wall_s"] is not None]
        rss = [r["rss_mb"] for r in runs if r["rss_mb"] is not None]
        problems = sorted({p for r in runs for p in r["problems"]})
        if len({r["digest"] for r in runs}) > 1:
            problems.append("report differs between runs of the same case")
        merged.append(runs[0] | {"s": statistics.median(times) if times else None,
                                 "wall_s": statistics.median(wall) if wall else None,
                                 "rss_mb": max(rss, default=None),
                                 "runs_s": times, "runs_wall_s": wall,
                                 "runs_sample": [r["sample"] for r in runs],
                                 "problems": problems})
    return merged


def tail(times: list) -> tuple[float, float]:
    """Value and percentile of the highest order statistic with at least
    TAIL_BEYOND samples above it (the maximum when there are too few)."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def summarize(results: list) -> dict:
    """Counts and case-time statistics of `results`, one per case."""
    passed = [r for r in results if not r["problems"]]
    times = [r["s"] for r in passed]
    tetragonal = [r for r in results if "split" in r]
    certified = sum(1 for r in tetragonal
                    if ((r["report"].get("trials") or [{}])[0]).get("rank_certified"))
    summary = {
        "attempted": len(results),
        "failed": len(results) - len(passed),
        "failed_frac": (len(results) - len(passed)) / max(1, len(results)),
        "rank_certified_frac": certified / len(tetragonal) if tetragonal else None,
        "case_s_total": sum(r["s"] or 0.0 for r in results),
    }
    if times:
        tail_s, percentile = tail(times)
        summary.update({
            "cases_per_s": len(passed) / summary["case_s_total"],
            "case_s_p50": statistics.median(times),
            "case_s_tail": tail_s,
            "tail_percentile": percentile,
            "tail_samples": len(times),
        })
    return summary


def case_records(results: list) -> list:
    return [{k: v for k, v in r.items() if k != "report"} | {"digest": (r["digest"] or "")[:16]}
            for r in results]


def warm_up(workload, seed, cli, workdir) -> None:
    """Run one case outside the measured set in this process before
    measuring, so lazy imports and first-call set-up inside the package
    are not charged to a measured case."""
    Runner(cli).run(make_round(workload, seed, -1, workdir)[0])


def end_to_end(workload, seed, seconds, cli, out_dir) -> tuple[dict, dict, list]:
    workdir = out_dir / "work"
    probe = SpeedProbe()
    setup_s, setup_times = measure_setup(workdir, probe)
    warm_up(workload, seed, cli, workdir)
    passes = PASSES[workload]
    count = round_count(workload, seconds, passes)
    rounds = [make_round(workload, seed, index, workdir) for index in range(count)]
    runs = run_passes(rounds, Runner(cli, fork=True, probe=probe), passes, seconds)
    at_reference_speed(runs, probe)
    results = per_case(runs)
    summary = summarize(results)
    wall = summarize([r | {"s": r["wall_s"]} for r in results])
    summary["wall_time"] = {key: wall.get(key) for key in
                            ("cases_per_s", "case_s_p50", "case_s_tail")}
    summary["wall_time"]["setup_s"] = statistics.median(setup_times)
    summary["setup_samples_s"] = setup_times
    summary["reference_samples_s"] = probe.samples
    metrics = {}
    if "cases_per_s" in summary:
        metrics = {
            "cases_per_s": {"value": summary["cases_per_s"], "unit": "1/s"},
            "case_s_p50": {"value": summary["case_s_p50"], "unit": "s"},
            "case_s_tail": {"value": summary["case_s_tail"], "unit": "s"},
            "peak_rss_mb": {"value": max(r["rss_mb"] or 0.0 for r in results),
                            "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    return metrics, summary, results


def traced(workload, seed, seconds, cli, out_dir) -> tuple[dict, dict, list]:
    workdir = out_dir / "work"
    warm_up(workload, seed, cli, workdir)
    count = round_count(workload, seconds / 2, 1)
    rounds = [make_round(workload, seed, index, workdir) for index in range(count)]
    [plain] = run_passes(rounds, Runner(cli), 1, seconds / 2)
    cases = [case for cases in rounds for case in cases][:len(plain)]
    with Tracer() as tracer:
        runner = Runner(cli, tracer)
        traced_results = [runner.run(case) for case in cases]
    for before, after in zip(plain, traced_results):
        if before["digest"] != after["digest"]:
            after["problems"].append("traced report differs from the untraced one")
        after["untraced_s"] = before["s"]
    tracer.write(out_dir / f"spans-{workload}-{seed}.jsonl.gz")

    summary = summarize(plain)
    summary["attempted"] += len(traced_results)
    summary["failed"] += sum(1 for r in traced_results if r["problems"])
    summary["failed_frac"] = summary["failed"] / summary["attempted"]
    profiles = case_profiles(tracer.spans)
    groups: dict = {}
    for r in traced_results:
        r["cubic_bits"] = profiles.get(r["id"], {}).get("pipeline.cubic_bits")
        groups.setdefault(r["group"], []).append(r["id"])
    group_layers = {g: layer_metrics(profiles, ids) for g, ids in groups.items()}
    metrics = layer_metrics(profiles, [r["id"] for r in traced_results],
                            summary["rank_certified_frac"] or 0.0)
    untraced_s = sum(r["s"] or 0.0 for r in plain)
    traced_s = sum(r["s"] or 0.0 for r in traced_results)
    summary.update({
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "tracing_overhead_s": traced_s - untraced_s,
        "spans": len(tracer.spans),
        "untraced_functions": tracer.missing,
        "largest_stage": largest_stage(metrics),
        "groups": {g: {"cases": len(groups[g]),
                       "largest_stage": largest_stage(layers),
                       "layers": {k: v["value"] for k, v in layers.items() if v["value"]}}
                   for g, layers in group_layers.items()},
    })
    return metrics, summary, traced_results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    os.environ.pop("APOLAR_KIT_THREADS", None)
    cli = _load_package()
    (OUT_DIR / "work").mkdir(parents=True, exist_ok=True)
    info = machine_info()

    measure = traced if args.trace else end_to_end
    metrics, summary, results = measure(args.workload, args.seed, args.seconds,
                                        cli, OUT_DIR)
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "holdout_seed": HOLDOUT_SEED, "machine": info,
               "summary": summary, "cases": case_records(results)}
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
