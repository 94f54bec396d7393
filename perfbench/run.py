#!/usr/bin/env python3
"""qwr benchmark runner: one workload per process, one question at a time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The runner imports qwr from ``src/``, sets the
workload up several times (reporting the median as ``setup_s``), then asks
the workload's questions in passes until ``--seconds`` have been used.
Times are reported in reference seconds: wall seconds divided by the host's
slowdown, which ``hostclock`` measures between questions; the wall times are
kept in the record.
Each answer is checked against an independent reference; any wrong answer
makes the exit code 1.  The last line of stdout is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Full records (provenance, pass times, counters, spans) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from statistics import median

from hostclock import HostClock
from tracing import NullTracer, Tracer, layer_medians

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 3
WORKLOADS = ("effective_deep", "code_distance", "transform_build", "schedule_survey")


class Crash:
    """An unexpected exception raised while asking a question."""

    def __init__(self, text: str):
        self.text = text


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qwr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    """Where and on what the run happened.

    The run pins itself to one CPU: qwr computes in one Python thread, and
    on a shared VM cross-CPU wake-ups between the CLI's pool threads made
    pass times swing 2-3x.  QWR_THREADS is left unset unless os.cpu_count()
    exceeds the CPUs the run may use, and then set to that count, so the
    pool never runs more threads than that."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    usable = len(os.sched_getaffinity(0))
    cpus = os.cpu_count()
    inherited = os.environ.pop("QWR_THREADS", None)
    if cpus is not None and cpus > usable:
        os.environ["QWR_THREADS"] = str(usable)
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(allowed),
        "pinned_cpu": allowed[-1],
        "os_cpu_count": cpus,
        "seed": seed,
        "qwr_threads": os.environ.get("QWR_THREADS"),
        "qwr_threads_inherited": inherited,
    }


def high_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        rank = -(-p * n // 100)  # nearest-rank
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


class Ledger:
    """Checks each question's first answer against its reference and every
    later answer against the first."""

    def __init__(self):
        self.first: dict[str, tuple] = {}
        self.attempted = self.failed = self.exact = 0
        self.failures: dict[str, str] = {}

    def judge(self, q, answer) -> None:
        self.attempted += 1
        reason, exact = self._verdict(q, answer)
        if reason is not None:
            self.failed += 1
            self.failures.setdefault(q.qid, reason)
        elif exact:
            self.exact += 1

    def _verdict(self, q, answer):
        if isinstance(answer, Crash):
            return answer.text, False
        try:
            key = q.canonical(answer)
            seen = self.first.get(q.qid)
            if seen is None:
                reason = q.check(answer)
                exact = reason is None and q.exact(answer)
                counters = q.counters(answer) if reason is None else {}
                seen = self.first[q.qid] = (key, reason, exact, counters)
            elif key != seen[0]:
                return "answer differs from the first pass", False
        except Exception:  # a malformed answer is a failed question
            return traceback.format_exc(), False
        return seen[1], seen[2]

    def counters(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for _, _, _, counters in self.first.values():
            for key, v in counters.items():
                total[key] = max(total.get(key, 0), v) if key.endswith("_max") else total.get(key, 0) + v
        return total


def run_pass(questions, tr, root: str, clock: HostClock) -> tuple[list, list[float], list[float]]:
    """Asks every question once.  Returns the answers and each question's
    wall and reference seconds; the host clock is calibrated outside the
    timed regions, at least every ``hostclock.EVERY_S``."""
    answers, wall, ref = [], [], []
    gc.collect()
    clock.calibrate()
    with tr.span(root):
        for i, q in enumerate(questions):
            with tr.span("question", q.qid):
                start = time.perf_counter()
                try:
                    answers.append(q.ask(tr))
                except Exception:  # recorded and counted as a failed question
                    answers.append(Crash(traceback.format_exc()))
                wall.append(time.perf_counter() - start)
            if clock.due() or i == len(questions) - 1:
                slowdown = clock.close()
                ref.extend(w / slowdown for w in wall[len(ref):])
    return answers, wall, ref


def typical_pass(passes: list[list[float]]) -> float:
    """Sum over questions of each question's median seconds across passes."""
    return sum(median(times) for times in zip(*passes))


def measure(questions, tracer, seconds: float, traced: bool, ledger: Ledger, clock: HostClock):
    """Passes until the time used (checks and calibration included) plus
    one more median pass would exceed the budget.  A traced run alternates
    untraced and traced passes, so it measures its own overhead.  Returns
    per-question wall and reference seconds of every pass, keyed by
    traced or not."""
    null = NullTracer()
    walls = {False: [], True: []}
    refs = {False: [], True: []}
    begin = time.perf_counter()
    while True:
        kind = traced and len(walls[False]) > len(walls[True])
        answers, wall, ref = run_pass(questions, tracer if kind else null, "pass", clock)
        walls[kind].append(wall)
        refs[kind].append(ref)
        for q, a in zip(questions, answers):
            ledger.judge(q, a)
        if kind and any(q.replay for q in questions):
            with tracer.span("replay"):
                for q in questions:
                    if q.replay:
                        q.replay(tracer)
        done_kinds = all(walls[k] for k in ((False, True) if traced else (False,)))
        typical = median(sum(w) for w in walls[False] + walls[True])
        if done_kinds and time.perf_counter() - begin + typical > seconds:
            return walls, refs


def per_layer_metrics(spec: list[dict], tracer: Tracer, counters: dict, special: dict) -> dict:
    layers = layer_medians(tracer)
    passes = tracer.per_root("pass")
    replays = tracer.per_root("replay")
    library = [sum(b for name, (_, b) in g.items() if name != "question") for g in passes]
    special = {
        **special,
        "bench.self_s": median(g.get("question", [0, 0.0])[1] - lib for g, lib in zip(passes, library)),
        "cli.overhead_s": 0.0,
    }
    if replays:
        replay_busy = median(sum(b for name, (_, b) in g.items() if name != "question") for g in replays)
        special["cli.overhead_s"] = median(g.get("cli.main", [0, 0.0])[1] for g in passes) - replay_busy
    out = {}
    for m in spec:
        name = m["name"]
        if name in special:
            value = special[name]
        elif name in counters:
            value = counters[name]
        elif name.endswith(".calls"):
            value = layers.get(name[: -len(".calls")], (0, 0.0))[0]
        elif name.endswith(".busy_s"):
            value = layers.get(name[: -len(".busy_s")], (0, 0.0))[1]
        else:
            value = 0
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    prov = provenance(args.seed)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    try:
        import qwr
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot import qwr from {SRC}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(qwr.__file__).startswith(SRC + os.sep):
        print(f"perfbench: qwr was imported from {qwr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    clock = HostClock()
    import_ref_s = import_s / clock.last
    prov["source_sha256"] = source_digest()

    traced = bool(args.trace)
    tracer = Tracer() if traced else NullTracer()
    ledger = Ledger()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setup_times = []
        for _ in range(SETUP_REPS):
            clock.calibrate()
            start = time.perf_counter()
            with tracer.span("setup"):
                questions = workloads.SETUPS[args.workload](args.seed, tracer, workdir)
            setup_times.append((time.perf_counter() - start) / clock.close())
        walls, refs = measure(questions, tracer, args.seconds, traced, ledger, clock)

    untraced = [sum(w) for w in walls[False]]
    counters = ledger.counters()
    if traced:
        special = {
            "trace.overhead_s": typical_pass(refs[True]) - typical_pass(refs[False]),
            "bench.wall_solve_s": typical_pass(walls[False]),
            "bench.host_slowdown": clock.median_slowdown(),
        }
        metrics = per_layer_metrics(spec["per_layer"], tracer, counters, special)
    else:
        values = {
            "solve_s": typical_pass(refs[False]),
            "exact_ratio": ledger.exact / ledger.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": import_ref_s + median(setup_times),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    pct = high_percentile([sum(r) for r in refs[False]])
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "provenance": prov,
        "metrics": metrics,
        "failed_ratio": ledger.failed / ledger.attempted,
        "failures": ledger.failures,
        "questions": len(questions),
        "passes_wall_s": {"untraced": untraced, "traced": [sum(w) for w in walls[True]]},
        "passes_ref_s": {"untraced": [sum(r) for r in refs[False]], "traced": [sum(r) for r in refs[True]]},
        "wall_solve_s": typical_pass(walls[False]),
        "host_slowdown": clock.samples,
        "solve_s_percentile": None if pct is None else {"p": pct[0], "value": pct[1]},
        "import_s": import_s,
        "import_ref_s": import_ref_s,
        "setup_reps_s": setup_times,
        "counters_per_pass": counters,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if traced:
        with open(os.path.join(OUT, f"{tag}.spans.json"), "w", encoding="utf-8") as f:
            json.dump({"self_times": tracer.self_times(), "spans": tracer.spans}, f)

    print(f"perfbench {args.workload}: seed {args.seed}, {len(questions)} questions, "
          f"{len(untraced)} untraced + {len(walls[True])} traced passes; "
          f"wall pass median {median(untraced):.6f} s, host slowdown {clock.median_slowdown():.4f}")
    if pct is not None:
        print(f"  solve_s p{pct[0]} = {pct[1]:.6f} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(f"  failed_ratio = {record['failed_ratio']} ratio")
    for qid, reason in ledger.failures.items():
        print(f"  WRONG {qid}: {reason.strip().splitlines()[-1]}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
