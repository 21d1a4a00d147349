"""bergmanlab benchmark: one seeded workload, timed beside its checked accuracy.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads are ``sweep``, ``moments``, ``oracle`` and ``verify``; see
``bench/README.md`` for why each exists and which layer it stresses.  The
benchmark builds the inputs from ``--seed`` and computes their references with
mpmath in this process, outside every timed region.  The program runs from
``src/`` in one child process with BLAS pinned to one thread.  Fresh
interpreters time the import (``setup_s``).  Timings are rescaled to a
reference machine speed measured in the same process; see ``throughput``.

With ``--trace 0`` the last line of stdout is one JSON object whose metrics are
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  A readable table of every metric precedes it, and the
full run record is written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import mpmath
import numpy

import reference
import workloads
from calibration import normalize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

SETUP_PROCESSES = 9  # fresh interpreters timing the import, after one discarded warm-up
PROBE_TIMEOUT_S = 20
CHILD_TIMEOUT_S = 60  # beyond --seconds: warm-up, the last pass and the calibrations

# One thread for BLAS and OpenMP, so runs do not depend on the machine's core
# count.  glibc moves its mmap threshold after each large free, which made the
# oracle's peak memory depend on the sizes of earlier evaluations (67 or 74 MB
# by seed); fixing it at its default keeps the peak a function of the largest op.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": "131072",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env.pop("PYTHONPATH", None)
    return env


@dataclass(frozen=True)
class Workload:
    """What the parent needs of one workload.

    The child builds the workload's calls itself (child.CALLS), so that it
    never imports mpmath or the reference code.

    ``references(inputs)`` gives one reference per call of a pass, computed
    before any child starts.  ``check(output, ref)`` gives the verdicts of one
    call's output, one per op.
    """

    make_inputs: Callable[[int], dict]
    modules: tuple[str, ...]  # the bergmanlab modules it calls, imported before its first op
    references: Callable[[dict], list]
    check: Callable[[object, object], list]


def _sweep_references(inputs: dict) -> list:
    return [(g["rho"], g["m"], [reference.sweep_reference(g["rho"], m) for m in g["m"]])
            for g in inputs["groups"]]


WORKLOADS = {
    "sweep": Workload(
        workloads.sweep_inputs, ("bergmanlab.cli",), _sweep_references,
        lambda out, ref: reference.check_sweep_output(*out, *ref)),
    "moments": Workload(
        workloads.moments_inputs, ("bergmanlab.geometry", "bergmanlab.quadrature"),
        lambda inputs: [reference.moment_reference(*op) for op in inputs["ops"]],
        lambda out, ref: [reference.check_moment(out, ref)]),
    "oracle": Workload(
        workloads.oracle_inputs, ("bergmanlab.density",),
        lambda inputs: [op[0] for op in inputs["ops"]],
        lambda out, m: [reference.check_oracle(out, m)]),
    "verify": Workload(
        workloads.verify_inputs, ("bergmanlab.cli",),
        lambda inputs: [None] * len(inputs["ops"]),
        lambda out, _: [reference.check_verify(*out)]),
}


def time_setup(modules: tuple[str, ...]) -> list[dict]:
    """Import times of SETUP_PROCESSES fresh interpreters (the first warm-up is dropped).

    Each interpreter's times are rescaled by normalize() with its own
    calibration; machine-speed drift between runs otherwise moved the median
    by up to 40 %.
    """
    argv = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), SRC, *modules]
    samples = []
    for i in range(SETUP_PROCESSES + 1):
        done = subprocess.run(argv, env=_child_env(), capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        if i:
            raw = json.loads(done.stdout)
            sample = {f"raw_{name}": raw[name] for name in ("numpy_import_s", "own_import_s")}
            sample["calibration_s"] = raw["calibration_s"]
            for name in ("numpy_import_s", "own_import_s"):
                sample[name] = normalize(raw[name], raw["calibration_s"])
            samples.append(sample)
    return samples


def run_child(workload: str, inputs: dict, seconds: float, trace: bool, trace_path: str) -> dict:
    request = {
        "workload": workload,
        "modules": WORKLOADS[workload].modules,
        "inputs": inputs,
        "seconds": seconds,
        "trace": trace,
        "src": SRC,
        "scratch": OUT,
        "trace_path": trace_path,
    }
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "child.py")],
        input=json.dumps(request), env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S + seconds,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} child exited with {done.returncode}")
    return json.loads(done.stdout)


# --- checks ------------------------------------------------------------------


def verdicts(workload: Workload, refs: list, outputs: list) -> list:
    return [v for out, ref in zip(outputs, refs) for v in workload.check(out, ref)]


def accuracy(found: list) -> dict:
    n = len(found)
    raised = sum(not v.completed for v in found)
    missed_tol = sum(v.completed and not v.within_tol for v in found)
    certified = [v for v in found if v.cert_ok is not None]
    cert_miss = sum(v.cert_ok is False for v in found)
    max_rel_err = max(v.rel_err for v in found)
    return {
        "ops": n,
        "not_completed": raised,
        "over_tolerance": missed_tol,
        "fail_frac": (raised + missed_tol) / n,
        "certified_ops": len(certified),
        "cert_miss": cert_miss,
        "cert_miss_frac": cert_miss / n,
        "max_rel_err": max_rel_err,
        "coarse_ok": all(v.completed and v.rel_err <= reference.COARSE_TOL for v in found),
    }


# --- metrics -------------------------------------------------------------------


def tail_percentile(pass_s: list[float]) -> int | None:
    """Highest percentile of pass time with at least ten passes beyond it."""
    n = len(pass_s)
    return None if n < 11 else math.floor(100.0 * (1.0 - 10.0 / n))


def lower_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def throughput(ops: int, run: dict) -> dict:
    """Ops per second: gated at the reference speed, plus the raw pass rates.

    The gated rate divides the ops of a pass by the sum over chunks of calls
    of each chunk's lower quartile, over timed passes, of its time at the
    reference speed, rescaled by the calibration taken right before it
    (child.timed_pass).  The lower quartile sits on the fast side, which
    other tenants disturb least, without resting on one lucky pass.  The
    raw median over passes, its tail percentile and the rate of the cold
    warm-up pass are recorded beside it.  Timed passes repeat the warm-up's inputs, so a
    cache kept across calls would serve every timed call; only the warm-up
    rate would show what it saves.
    """
    pass_s = run["pass_s"]
    rates = sorted(ops / s for s in pass_s)
    pct = tail_percentile(pass_s)
    tail = None
    if pct is not None:
        # slow passes give the low rates, so percentile p of time is 100 - p of rate
        tail = statistics.quantiles(rates, n=100, method="inclusive")[100 - pct - 1]
    ref_s = sum(lower_quartile(times) for times in run["chunk_ref_s"])
    return {"ref": ops / ref_s, "median": statistics.median(rates),
            "passes": len(rates), "chunks": len(run["chunk_ref_s"]), "tail_percentile": pct,
            "tail_ops_per_s": tail, "warmup_raw": ops / run["warmup_s"]}


def end_to_end(acc: dict, rate: dict, setup_s: float, rss: float) -> dict:
    """The gated metrics; every value is positive on every workload.

    fail_frac and cert_miss_frac can be 0, so their complements are gated.
    Ops that carry no certificate (oracle, verify) count as holding.  The
    worst relative error spans many decades between seeds on the oracle,
    whose errors are rounding noise, so it is gated as correct digits.
    """
    n = acc["ops"]
    return {
        "setup_s": setup_s,
        "ops_per_s": rate["ref"],
        "peak_rss_mb": rss,
        "pass_frac": 1.0 - acc["fail_frac"],
        "cert_hold_frac": 1.0 - acc["cert_miss"] / n,
        "accuracy_digits": -math.log10(min(max(acc["max_rel_err"], 2.0**-53), 1.0)),
    }


def metadata(workload: str, seed: int, load_avg: tuple) -> dict:
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for line in fh if line.strip())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "load_avg_at_start": list(load_avg),
        "src_nonblank_lines": src_lines,
    }


def per_layer(workload: str, traced: dict, untraced_rate: float, traced_rate: float,
              acc: dict, setup: list[dict]) -> dict:
    layers = dict(traced["layers"])
    moments = workload == "moments"
    layers["quadrature.cert_miss"] = float(acc["cert_miss"]) if moments else 0.0
    layers["quadrature.max_rel_err"] = acc["max_rel_err"] if moments else 0.0
    layers["setup.numpy_import_s"] = statistics.median(s["numpy_import_s"] for s in setup)
    layers["setup.own_import_s"] = statistics.median(s["own_import_s"] for s in setup)
    layers["trace_overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return layers


def declared_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def print_table(meta: dict, acc: dict, rate: dict, metrics: dict, units: dict) -> None:
    print(f"bergmanlab benchmark: workload {meta['workload']}, seed {meta['seed']}, "
          f"{acc['ops']} ops per pass, {rate['passes']} timed passes")
    pct = rate["tail_percentile"]
    tail = ("no percentile has ten passes beyond it" if pct is None
            else f"p{pct} of pass time: {rate['tail_ops_per_s']:.6g} 1/s")
    print(f"  ops_per_s        {rate['ref']:.6g} 1/s (lower quartiles over {rate['passes']} passes "
          f"of {rate['chunks']} chunks, at the reference speed; raw median {rate['median']:.6g} 1/s, "
          f"{tail}; "
          f"cold warm-up pass {rate['warmup_raw']:.6g} 1/s)")
    print(f"  fail_frac        {acc['fail_frac']:.6g} ratio ({acc['not_completed']} not completed, "
          f"{acc['over_tolerance']} over tolerance)")
    print(f"  cert_miss_frac   {acc['cert_miss_frac']:.6g} ratio ({acc['cert_miss']} of "
          f"{acc['certified_ops']} ops that carry a certificate)")
    print(f"  max_rel_err      {acc['max_rel_err']:.6g} ratio")
    for name, value in metrics.items():
        if name != "ops_per_s":
            print(f"  {name:<16} {value:.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bergmanlab", "__init__.py")):
        print(f"error: no bergmanlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    load_avg = os.getloadavg()
    os.makedirs(OUT, exist_ok=True)
    workload, seed = args.workload, args.seed
    spec = WORKLOADS[workload]

    inputs = spec.make_inputs(seed)
    start = perf_counter()
    refs = spec.references(inputs)
    reference_s = perf_counter() - start
    setup = time_setup(spec.modules)

    tag = f"{workload}-seed{seed}-trace{args.trace}"
    trace_path = os.path.join(OUT, f"{tag}-spans.json")
    if args.trace:
        runs = [run_child(workload, inputs, args.seconds / 2, False, trace_path),
                run_child(workload, inputs, args.seconds / 2, True, trace_path)]
    else:
        runs = [run_child(workload, inputs, args.seconds, False, trace_path)]

    acc = accuracy(verdicts(spec, refs, runs[0]["outputs"]))
    ops = acc["ops"]
    attempted = failed = 0
    consistent = True
    for run in runs:
        passes = 1 + len(run["pass_s"])
        attempted += ops * passes
        failed += acc["not_completed"] * passes + ops * run["mismatched_passes"]
        consistent = consistent and run["outputs"] == runs[0]["outputs"]
    correct = failed == 0 and consistent and acc["coarse_ok"]

    setup_s = statistics.median(s["numpy_import_s"] + s["own_import_s"] for s in setup)
    rate = throughput(ops, runs[0])
    meta = metadata(workload, seed, load_avg)
    meta["ops_attempted"] = attempted
    if args.trace:
        traced_rate = throughput(ops, runs[1])["ref"]
        metrics = per_layer(workload, runs[1], rate["ref"], traced_rate, acc, setup)
    else:
        metrics = end_to_end(acc, rate, setup_s, runs[0]["peak_rss_mb"])

    record = {
        "meta": meta,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "accuracy": acc,
        "throughput": rate,
        "setup": setup,
        "reference_s": reference_s,
        "runs": [{k: v for k, v in run.items() if k != "outputs"} for run in runs],
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    print_table(meta, acc, rate, metrics, units)
    print(json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
