#!/usr/bin/env python3
"""heartlab benchmark: real CLI commands, timed from outside, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload audit_ladder --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

One run imports heartlab from ``src/``, generates the workload's commands
from the seed, and repeats passes over them for about ``--seconds``.  Every
command starts cold: the ``build_group`` and ``make_field`` caches are
cleared first, since a CLI user pays them on every invocation.

Times are reported in reference seconds: each command's wall time is scaled
by CALIBRATION_REFERENCE_S over the duration of a fixed pure-Python
calibration loop timed right before and right after it.  The cores this was
built on switch between a fast and a 1.6x slower state for tens of seconds
at a time, which moved raw wall time by 12-30 % (IQR over median) between
runs and the scaled time by 3-10 %.  Raw seconds are printed on stderr.  With
``--trace 1`` the run makes one untraced and one traced pass and reports
per-layer self times and work counters instead.  The last stdout line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run artifacts (batch files, spans, counter records) go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracle
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = Path(".perfbench")  # relative to ROOT, which every run uses as its cwd
GOLDEN = BENCH_DIR / "golden.json"
DEFAULT_SECONDS = 25
SETUP_SAMPLES = 5  # this process's own set-up plus four fresh interpreters
# the calibration loop's duration on an uncontended core of a 2-CPU Xeon VM
CALIBRATION_REFERENCE_S = 0.008

# per-layer metric -> (unit, span name whose self time it is, or counter key)
PER_LAYER = {
    "perms.chain_s": ("s", "perms.chain", None),
    "perms.chain_builds": ("count", None, "chain_builds"),
    "perms.schreier_sifted": ("count", None, "schreier_sifted"),
    "perms.strong_gens": ("count", None, "strong_gens"),
    "perms.enum_s": ("s", "perms.enum", None),
    "perms.elements_enumerated": ("count", None, "elements_enumerated"),
    "probe.types_s": ("s", "probe.types", None),
    "probe.types_calls": ("count", None, "types_calls"),
    "probe.factor_s": ("s", "probe.factor", None),
    "probe.primes_factored": ("count", None, "primes_factored"),
    "probe.ramified": ("count", None, "ramified"),
    "reps.end_s": ("s", "reps.end", None),
    "reps.end_calls": ("count", None, "end_calls"),
    "reps.end_unknowns": ("count", None, "end_unknowns"),
    "linalg.kernel_s": ("s", "linalg.kernel", None),
    "linalg.kernel_calls": ("count", None, "kernel_calls"),
    "linalg.kernel_cells": ("count", None, "kernel_cells"),
    "reps.meataxe_s": ("s", "reps.meataxe", None),
    "reps.meataxe_attempts": ("count", None, "meataxe_attempts"),
    "linalg.charpoly_s": ("s", "linalg.charpoly", None),
    "linalg.charpoly_calls": ("count", None, "charpoly_calls"),
    "linalg.spin_s": ("s", "linalg.spin", None),
    "fppoly.factor2_s": ("s", "fppoly.factor2", None),
    "fppoly.factor2_calls": ("count", None, "factor2_calls"),
    "reps.heart_s": ("s", "reps.heart", None),
    "reps.indec_self_s": ("s", "reps.indec", None),
    "zoo.build_s": ("s", "zoo.build_group", None),
    "audit.rules_s": ("s", "audit.audit", None),
    "cli.self_s": ("s", "cli.main", None),
}

# The layer each workload is built to stress, and the least share of traced
# self time it should take at the commit that defined the benchmark.
PREDICTIONS = {
    "audit_ladder": (("perms.chain",), 0.80),
    "heart_deep": (("reps.end", "linalg.kernel"), 0.80),
    "meataxe_large": (("linalg.charpoly", "fppoly.factor2", "linalg.spin"), 0.65),
    "probe_batch": (("probe.factor", "probe.types", "perms.enum"), 0.85),
}

COUNTERS = ("schreier_sifted", "strong_gens", "end_calls", "end_unknowns",
            "meataxe_attempts", "elements_enumerated", "primes_factored")


def calibrate() -> float:
    """Seconds taken by a fixed mix of the operations heartlab spends its time
    in: small-int arithmetic, dict stores and wide-int shifts and XORs."""
    start = perf_counter()
    table = {}
    acc = 0
    bits = (1 << 256) - 1
    for i in range(40000):
        acc += i * i % 7
        table[i & 255] = acc
        bits ^= bits >> 3
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor taking raw seconds to reference seconds."""
    return 2 * CALIBRATION_REFERENCE_S / (before + after)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark; no result is printed."""


@dataclass
class Result:
    raw: float  # wall seconds
    scale: float  # raw -> reference seconds
    code: int | None
    stdout: str
    problems: list[str]
    digest: str | None = None

    @property
    def seconds(self) -> float:
        return self.raw * self.scale


class Harness:
    """heartlab imported from the checkout, plus one workload's commands."""

    def __init__(self, workload: str, seed: int) -> None:
        before = calibrate()
        start = perf_counter()
        src = ROOT / "src"
        if not (src / "heartlab" / "__init__.py").is_file():
            raise SetupError(f"no heartlab package under {src}")
        sys.path.insert(0, str(src))
        try:
            self.cli = importlib.import_module("heartlab.cli")
        except ImportError as exc:
            raise SetupError(f"cannot import heartlab: {exc}") from exc
        if Path(self.cli.__file__).resolve().parent != (src / "heartlab").resolve():
            raise SetupError(f"heartlab imported from {self.cli.__file__}, not from {src}")
        # the package attribute heartlab.zoo is the module, but heartlab.audit
        # and heartlab.probe are shadowed by functions, so go through importlib
        self.caches = (importlib.import_module("heartlab.zoo").build_group,
                       importlib.import_module("heartlab.fields").make_field)
        self.commands = workloads.build(workload, seed, WORK / "inputs" / f"{workload}-{seed}")
        raw = perf_counter() - start
        self.setup_s = raw * scale(before, calibrate())

    def run(self, index: int, tracer: tracing.Tracer | None = None) -> Result:
        command = self.commands[index]
        for cache in self.caches:
            cache.cache_clear()
        if any(cache.cache_info().currsize for cache in self.caches):
            return Result(0.0, 1.0, None, "", ["caches not empty at command start"])
        gc.collect()
        main = self.cli.main
        if tracer is not None:
            tracer.begin_command(index)
            main = tracer.wrap("cli.main", main)
        out, err = io.StringIO(), io.StringIO()
        before = calibrate()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(command.argv))
        except Exception:  # a traceback is a failed command, not a failed benchmark
            raw = perf_counter() - start
            return Result(raw, scale(before, calibrate()), None, out.getvalue(),
                          ["raised: " + traceback.format_exc(limit=3)])
        raw = perf_counter() - start
        factor = scale(before, calibrate())
        problems, document = oracle.check(command, code, out.getvalue())
        digest = oracle.digest(document) if document is not None else None
        return Result(raw, factor, code, out.getvalue(), problems, digest)

    def run_pass(self, tracer: tracing.Tracer | None = None) -> list[Result]:
        return [self.run(i, tracer) for i in range(len(self.commands))]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heartlab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".tsv"):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cross_checks(harness: Harness, passes: list[list[Result]], workload: str,
                 seed: int, counters: dict[int, dict[str, int]] | None) -> None:
    """Checks that span commands or runs; problems land on the command."""
    golden = json.loads(GOLDEN.read_text()).get(workload, {}) if GOLDEN.is_file() else {}
    state_path = WORK / "state" / f"{workload}-{seed}-{source_digest()}.json"
    state = json.loads(state_path.read_text()) if state_path.is_file() else {}
    statuses: dict[str, str] = {}
    for i, command in enumerate(harness.commands):
        first = passes[0][i]
        for other in passes[1:]:
            if other[i].stdout != first.stdout:
                other[i].problems.append("output differs from the first pass")
        if first.digest is None:
            continue
        want = golden.get(command.label)
        if want is not None and first.digest != want:
            first.problems.append("payload digest differs from golden.json")
        record = state.setdefault(command.label, {})
        if record.setdefault("digest", first.digest) != first.digest:
            first.problems.append("payload digest differs from an earlier run of this seed")
        payload = json.loads(first.stdout)["payload"]
        if command.kind == "heart":
            status = payload["irreducibility"]["status"]
            if statuses.setdefault(command.group, status) != status:
                first.problems.append(f"MeatAxe seeds disagree on {command.group}")
        if counters is not None:
            mine = {key: counters.get(i, {}).get(key, 0) for key in COUNTERS}
            if command.kind == "heart" and mine["meataxe_attempts"] != payload["irreducibility"]["attempts"]:
                first.problems.append("traced MeatAxe attempts differ from the payload's")
            if record.setdefault("counters", mine) != mine:
                first.problems.append("work counters differ from an earlier run of this seed")
    state_path.parent.mkdir(parents=True, exist_ok=True)
    state_path.write_text(json.dumps(state, indent=1, sort_keys=True))


def measure_setup(workload: str, seed: int, own: float) -> float:
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def layer_metrics(workload: str, tracer: tracing.Tracer, self_times: dict[str, float],
                  traced_wall: float, untraced_wall: float) -> tuple[dict, dict]:
    totals: dict[str, int] = {}
    for per_command in tracer.counters.values():
        for key, value in per_command.items():
            totals[key] = totals.get(key, 0) + value
    metrics = {}
    for name, (unit, span, counter) in PER_LAYER.items():
        value = self_times.get(span, 0.0) if span else totals.get(counter, 0)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    shares = {layer: 0.0 for layer in tracing.LAYERS}
    for span, seconds in self_times.items():
        shares[span.split(".")[0]] += seconds / traced_wall
    spans, floor = PREDICTIONS[workload]
    predicted = sum(self_times.get(s, 0.0) for s in spans) / traced_wall
    prediction = {"spans": list(spans), "share": predicted, "floor": floor, "holds": predicted >= floor,
                  "layer_shares": shares}
    return metrics, prediction


def write_trace(workload: str, seed: int, harness: Harness, tracer: tracing.Tracer,
                self_times: dict[str, float], prediction: dict, missing: list[str]) -> Path:
    path = WORK / f"trace-{workload}-{seed}.json"
    document = {
        "workload": workload,
        "seed": seed,
        "commands": [c.label for c in harness.commands],
        "missing_hooks": missing,
        "prediction": prediction,
        "counters": {harness.commands[i].label: dict(c) for i, c in sorted(tracer.counters.items())},
        "self_times_reference_s": self_times,
        "spans": [[s.name, s.start, s.end, s.parent, s.command] for s in tracer.spans],
    }
    path.write_text(json.dumps(document))
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    harness = Harness(workload, seed)
    passes: list[list[Result]] = []
    counters = None
    if trace:
        passes.append(harness.run_pass())
        tracer = tracing.Tracer()
        with tracing.installed(tracer) as missing:
            passes.append(harness.run_pass(tracer))
        counters = tracer.counters
    else:
        start = perf_counter()
        while True:
            began = perf_counter()
            passes.append(harness.run_pass())
            now = perf_counter()
            if now - start + (now - began) > seconds:
                break
    cross_checks(harness, passes, workload, seed, counters)

    results = [r for p in passes for r in p]
    failed = sum(1 for r in results if r.problems)
    for r, command in zip(results, harness.commands * len(passes)):
        for problem in r.problems:
            print(f"FAIL {command.label}: {problem}", file=sys.stderr)
    walls = [sum(r.seconds for r in p) for p in passes]
    if trace:
        self_times = tracer.self_times({i: r.scale for i, r in enumerate(passes[1])})
        metrics, prediction = layer_metrics(workload, tracer, self_times, walls[1], walls[0])
        path = write_trace(workload, seed, harness, tracer, self_times, prediction, missing)
        verdict = "holds" if prediction["holds"] else "DOES NOT HOLD"
        shares = ", ".join(f"{layer} {share:.1%}" for layer, share in prediction["layer_shares"].items())
        print(f"{workload}: self-time shares {shares}", file=sys.stderr)
        print(f"{workload}: {'+'.join(prediction['spans'])} take {prediction['share']:.1%} of traced "
              f"self time (prediction >= {prediction['floor']:.0%}: {verdict}); spans in {path}",
              file=sys.stderr)
        for name in missing:
            print(f"warning: hook target {name} not found; its layer reads 0", file=sys.stderr)
    else:
        per_command = [statistics.median(p[i].seconds for p in passes) for i in range(len(harness.commands))]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "slowest_op_s": {"value": max(per_command), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "setup_s": {"value": measure_setup(workload, seed, harness.setup_s), "unit": "s"},
        }
        raw = ", ".join(f"{sum(r.raw for r in p):.3f}" for p in passes)
        print(f"{workload}: {len(passes)} pass(es) of {len(harness.commands)} commands, "
              f"wall {', '.join(f'{w:.3f}' for w in walls)} reference s, raw {raw} s", file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process; one table of every metric."""
    worst = 0
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        if done.returncode != 0:
            print(f"{workload}: exit {done.returncode}")
            worst = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ratio = result["failed"] / result["attempted"]
        cells = [f"{name} {m['value'] if isinstance(m['value'], int) else format(m['value'], '.6g')} {m['unit']}"
                 for name, m in result["metrics"].items()]
        cells.append(f"fail_ratio {ratio:.6g} ({result['failed']}/{result['attempted']})")
        print(f"{workload}:\n  " + "\n  ".join(cells), flush=True)
        if not result["correct"]:
            worst = 1
    return worst


def write_golden(workload: str) -> None:
    """Record the default seed's payload digests for ``workload``."""
    harness = Harness(workload, 0)
    results = harness.run_pass()
    bad = [(c.label, r.problems) for c, r in zip(harness.commands, results) if r.problems]
    if bad:
        raise SystemExit(f"refusing to record golden digests over failures: {bad}")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden[workload] = {c.label: r.digest for c, r in zip(harness.commands, results)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true",
                        help="record the default seed's payload digests in golden.json")
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        if args.setup_only:
            print(Harness(args.workload, args.seed).setup_s)
            return 0
        if args.write_golden:
            write_golden(args.workload)
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
