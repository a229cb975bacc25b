"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve --seed 7 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all        # every workload

Run from the root of a source checkout.  A workload is a cycle of parts
(``batch``: a study, then an ecosystem repetition; ``serve``: one serve
repetition).  Each repetition runs in a fresh interpreter (``rep.py``)
with BLAS pinned to one thread.  Cycles continue while the next one
would still end within ``--seconds`` of the start, and never fewer than
three, so every metric is a median over repetitions spread across the
whole run.

With ``--trace 0`` the last line of output is one JSON object holding the
end-to-end metrics BENCHMARK.json declares.  With ``--trace 1`` every
part runs untraced, then traced; the result holds the per-layer metrics,
read from the spans of the traced repetitions, and the tracing overhead
(traced minus untraced job time).  Spans are written to ``.perfbench/``
in the checkout.  ``correct`` is false, and the operations of the
repetitions concerned count as failed, when a correctness check fails,
when two repetitions of a part disagree on an output digest, or, at the
default seed, when a digest differs from its pinned value.  RATIONALE.md
says why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, PINNED, WORKLOADS, quantile  # noqa: E402

#: a run must end within this many seconds; stop starting repetitions
#: that would not fit
DEADLINE_S = 165.0
MIN_CYCLES = 3
MIN_TRACED_CYCLES = 1
MAX_CYCLES = 12



def fail(message: str) -> None:
    """Stop without printing a result."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def declared_metrics():
    """(end-to-end, per-layer) name -> unit, as BENCHMARK.json declares."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_rev() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text("utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text("utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def rep_env() -> dict:
    """Environment of every repetition: source on the path, one BLAS
    thread (pool workers inherit it, so ``jobs=nproc`` cannot
    oversubscribe the cores)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_rep(part: str, seed: int, traced: bool, parity: bool,
            trace_out: Path, timeout: float) -> dict:
    """One repetition in a fresh interpreter; its JSON result."""
    command = [sys.executable, str(HERE / "rep.py"), "--part", part,
               "--seed", str(seed), "--trace", "1" if traced else "0"]
    if parity:
        command.append("--parity")
    if traced:
        command += ["--trace-out", str(trace_out)]
    # a session of its own, so a timeout also stops its pool workers
    child = subprocess.Popen(command, cwd=ROOT, env=rep_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except BaseException as error:
        # a timeout, or this run being stopped: stop the repetition too
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            fail(f"{part} repetition exceeded {timeout:.0f} s")
        raise
    if child.returncode != 0 or not stdout.strip():
        sys.stderr.write(stderr[-4000:])
        fail(f"{part} repetition exited with code {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 started: float) -> dict:
    """Cycles of the workload's parts until the next cycle would end the
    run later than ``seconds`` after it began, and at least
    :data:`MIN_CYCLES` (:data:`MIN_TRACED_CYCLES` when ``trace``, where
    each part runs untraced, then traced).  The first untraced serve
    repetition also runs the costly parity check.

    Returns part -> {"plain": [results], "traced": [results]}.
    """
    out_dir = ROOT / ".perfbench"
    if trace:
        out_dir.mkdir(exist_ok=True)
    reps = {part: {"plain": [], "traced": []} for part in WORKLOADS[workload]}
    wanted = MIN_TRACED_CYCLES if trace else MIN_CYCLES
    for cycle in range(MAX_CYCLES):
        begin = perf_counter()
        for part, done in reps.items():
            done["plain"].append(run_rep(
                part, seed, False, cycle == 0, out_dir,
                DEADLINE_S - (perf_counter() - started)))
            if trace:
                name = f"spans-{part}-seed{seed}-rep{cycle}.json"
                done["traced"].append(run_rep(
                    part, seed, True, False, out_dir / name,
                    DEADLINE_S - (perf_counter() - started)))
        # the next cycle should take as long as this one; the first
        # cycle's parity check makes it a safe over-estimate
        now = perf_counter()
        finish = now - started + (now - begin)
        if finish > DEADLINE_S or (cycle + 1 >= wanted and finish > seconds):
            break
    return reps


def verdicts(part: str, seed: int, reps: list):
    """(attempted, failed, problems): a repetition's operations fail when
    a check fails, a digest disagrees with the first repetition's of the
    same part, or, at the default seed, a digest differs from its pinned
    value."""
    reference = reps[0]["digests"]
    pinned = PINNED[part] if seed == DEFAULT_SEED else {}
    attempted = failed = 0
    problems = []
    for number, rep in enumerate(reps):
        attempted += rep["operations"]
        bad = [f"check {name}: {detail}"
               for name, (ok, detail) in sorted(rep["checks"].items())
               if not ok]
        for key, value in sorted(rep["digests"].items()):
            if key in reference and value != reference[key]:
                bad.append(f"digest {key} differs between repetitions")
            if key in pinned and value != pinned[key]:
                bad.append(f"digest {key} {value} != pinned {pinned[key]}")
        if bad:
            failed += rep["operations"]
            problems += [f"{part} repetition {number}: {item}"
                         for item in bad]
    return attempted, failed, problems


def median(values):
    return statistics.median(values) if values else 0.0


def pooled(reps: list, key: str, q: float) -> float:
    """Quantile ``q`` of the samples every repetition listed under key."""
    return quantile(sorted(x for rep in reps for x in rep[key]), q)


def metrics_of(reps: dict, trace: bool, e2e: dict, layers: dict) -> dict:
    """Medians over repetitions of every metric the mode reports.

    ``throughput_per_s`` and ``latency_ms`` come from the one part that
    supplies each; ``setup_s`` adds the parts' medians (a user sets up
    each) and ``peak_rss_mb`` takes the largest.  Per-layer metrics of
    different parts have different names, except span counts, which add;
    a layer the workload never calls reads 0.
    """
    if not trace:
        values = {"setup_s": 0.0, "peak_rss_mb": 0.0}
        for done in reps.values():
            plain = done["plain"]
            values["setup_s"] += median([r["setup_s"] for r in plain])
            values["peak_rss_mb"] = max(values["peak_rss_mb"], median(
                [r["peak_rss_mb"] for r in plain]))
            for name in ("throughput_per_s", "latency_ms"):
                if name in plain[0]:
                    values[name] = median([r[name] for r in plain])
            if "open_latency_us" in plain[0]:
                # serve: the median of every open-loop request of the run
                values["latency_ms"] = pooled(plain, "open_latency_us",
                                              0.50) / 1e3
        return {name: {"value": values[name], "unit": unit}
                for name, unit in e2e.items()}
    values = {"trace.overhead_s": 0.0}
    untraced_s = 0.0
    for done in reps.values():
        plain, traced = done["plain"], done["traced"]
        for name in set().union(*(r["layers"] for r in traced)):
            values[name] = values.get(name, 0.0) + median(
                [r["layers"][name] for r in traced if name in r["layers"]])
        if "open_latency_us" in plain[0]:
            values["serve.open_p99_us"] = pooled(plain, "open_latency_us",
                                                 0.99)
            values["serve.open_late_p99_us"] = pooled(plain, "open_late_us",
                                                      0.99)
        untraced = median([r["job_s"] for r in plain])
        values["trace.overhead_s"] += median(
            [r["job_s"] for r in traced]) - untraced
        untraced_s += untraced
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / untraced_s
    unknown = set(values) - set(layers)
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in layers.items()}


def report(workload: str, seed: int, reps: dict, metrics: dict,
           problems: list) -> None:
    """Human-readable lines; the JSON result follows them."""
    env = next(iter(reps.values()))["plain"][0]["env"]
    print(f"env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={env['numpy']} blas_threads={env['blas_threads']} "
          f"rev={git_rev()}")
    for part, done in reps.items():
        for kind in ("plain", "traced"):
            for number, rep in enumerate(done[kind]):
                print(f"{workload} seed={seed} {part} {kind} rep {number}: "
                      f"setup {rep['setup_s']:.3f} s, "
                      f"job {rep['job_s']:.3f} s, "
                      f"{json.dumps(rep['info'], sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"  {workload:<9} {name:<36} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    for problem in problems:
        print(f"  FAILED {problem}")


def run(workload: str, seed: int, seconds: float, trace: bool,
        started: float, e2e: dict, layers: dict) -> dict:
    reps = run_workload(workload, seed, seconds, trace, started)
    attempted = failed = 0
    problems = []
    for part, done in reps.items():
        tried, bad, why = verdicts(part, seed,
                                   done["plain"] + done["traced"])
        attempted += tried
        failed += bad
        problems += why
    metrics = metrics_of(reps, trace, e2e, layers)
    report(workload, seed, reps, metrics, problems)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program source under {ROOT / 'src'}; run from a "
             "source checkout")
    e2e, layers = declared_metrics()

    if args.workload != "all":
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), perf_counter(), e2e, layers)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for workload in WORKLOADS:
            one = run(workload, args.seed, args.seconds, bool(args.trace),
                      perf_counter(), e2e, layers)
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update(
                {f"{workload}.{name}": metric
                 for name, metric in one["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
