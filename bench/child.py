"""Workload child process: import bergmanlab, run timed passes, report JSON.

Reads one JSON request on stdin::

    {"workload", "modules", "inputs", "seconds", "trace", "src", "scratch", "trace_path"}

and writes one JSON object on stdout.  A pass runs every op of the workload
once.  The first pass is a warm-up; its outputs are the ones the parent checks,
and every timed pass repeats its inputs and must reproduce its outputs
exactly.  Only calls into the program (and, for `sweep`, the read of the CSV
it wrote) are inside the timed region.  A timed pass runs the calls in chunks
of consecutive calls that took at least CHUNK_S in the warm-up (a long call
is a chunk of its own); each chunk is timed right after a calibration loop,
which measures how fast the machine is at that moment (see calibration.py).
With ``trace`` set, the layers are wrapped after the warm-up and the child
also reports per-layer metrics.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from calibration import calibration_s, normalize

CALIBRATION_RUNS = 3  # calibration loops before each chunk; the fastest counts
CHUNK_S = 0.02  # least warm-up time of a chunk of consecutive calls


def _failure(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _cli_call(cli, argv: list[str], out: str | None = None):
    """A call of ``cli.main(argv)`` with stdout and stderr captured.

    It returns ``[exit code, text]``, where the text is the file ``out``
    (read, then removed) if given, else the captured output.  An exception
    takes the place of the exit code.
    """

    def call():
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # an op that raises is a counted failure
                rc = _failure(exc)
        if out is None:
            return [rc, sink.getvalue()]
        text = None
        if os.path.exists(out):
            with open(out) as fh:
                text = fh.read()
            os.remove(out)
        return [rc, text]

    return call


# Each workload's calls: zero-argument callables that return their output.
# They look the program's functions up on its modules at every call, where
# the tracer finds them too.


def sweep_calls(inputs: dict, scratch: str) -> list:
    from bergmanlab import cli

    out = os.path.join(scratch, f"sweep-{os.getpid()}.csv")
    return [
        _cli_call(cli, [
            "sweep", "--rho", repr(g["rho"]),
            "--m-list", ",".join(str(m) for m in g["m"]),
            "--budget-c", inputs["budget_c"],
            "--format", "csv", "--out", out,
        ], out)
        for g in inputs["groups"]
    ]


def moment_calls(inputs: dict, scratch: str) -> list:
    from bergmanlab import geometry, quadrature

    def call(geom, m, p):
        def moment():
            result = quadrature.lambda_inv_sq(geom, m, p, quadrature.truncation_radius(m))
            return [result.value, result.abs_err]

        return moment

    geoms = {}
    return [call(geoms.setdefault(rho, geometry.ModelGeometry(rho)), m, p)
            for rho, m, p in inputs["ops"]]


def oracle_calls(inputs: dict, scratch: str) -> list:
    from bergmanlab import density

    def call(m, z):
        return lambda: density.cp1_density(m, z)

    return [call(m, complex(re, im)) for m, re, im in inputs["ops"]]


def verify_calls(inputs: dict, scratch: str) -> list:
    from bergmanlab import cli

    return [_cli_call(cli, ["verify", "--seed", str(seed), "--eta", eta])
            for seed, eta in inputs["ops"]]


CALLS = {"sweep": sweep_calls, "moments": moment_calls, "oracle": oracle_calls,
         "verify": verify_calls}


def _run(call):
    try:
        return call()
    except Exception as exc:  # an op that raises is a counted failure
        return _failure(exc)


def warm_up(calls: list) -> tuple[list, list]:
    """Run every call once; returns (outputs, each call's time)."""
    outputs = []
    times = []
    for call in calls:
        start = perf_counter()
        outputs.append(_run(call))
        times.append(perf_counter() - start)
    return outputs, times


def chunk(times: list) -> list:
    """Bounds (lo, hi) of runs of consecutive calls that took CHUNK_S or more
    in the warm-up; the last run may take less."""
    bounds = []
    lo, total = 0, 0.0
    for i, t in enumerate(times):
        total += t
        if total >= CHUNK_S or i == len(times) - 1:
            bounds.append((lo, i + 1))
            lo, total = i + 1, 0.0
    return bounds


def timed_pass(calls: list, chunks: list) -> tuple[list, float, list]:
    """Run every call once, each chunk timed right after a calibration.

    Returns the outputs, the time of the pass, and each chunk's time at the
    reference machine speed, rescaled by the calibration before it.
    """
    outputs = []
    pass_s = 0.0
    ref_s = []
    for lo, hi in chunks:
        calibration = min(calibration_s() for _ in range(CALIBRATION_RUNS))
        start = perf_counter()
        for call in calls[lo:hi]:
            outputs.append(_run(call))
        seconds = perf_counter() - start
        pass_s += seconds
        ref_s.append(normalize(seconds, calibration))
    return outputs, pass_s, ref_s


def main() -> int:
    request = json.load(sys.stdin)
    sys.path.insert(0, request["src"])
    workload = request["workload"]

    start = perf_counter()
    for name in request["modules"]:
        importlib.import_module(name)
    import_s = perf_counter() - start

    calls = CALLS[workload](request["inputs"], request["scratch"])
    first, warmup = warm_up(calls)
    chunks = chunk(warmup)

    tracer = None
    if request["trace"]:
        from spans import Tracer

        from bergmanlab import cli, cutoff, density, geometry, gram, quadrature

        tracer = Tracer()
        tracer.install(cli, cutoff, density, geometry, gram, quadrature)
    pass_s = []
    chunk_ref_s = [[] for _ in chunks]  # per chunk, its time at the reference speed in each pass
    mismatched = 0
    deadline = perf_counter() + request["seconds"]
    while not pass_s or perf_counter() < deadline:
        outputs, seconds, ref_seconds = timed_pass(calls, chunks)
        pass_s.append(seconds)
        for times, t in zip(chunk_ref_s, ref_seconds):
            times.append(t)
        mismatched += outputs != first
    if tracer is not None:
        tracer.restore()

    report = {
        "import_s": import_s,
        "warmup_s": sum(warmup),
        "pass_s": pass_s,
        "chunk_ref_s": chunk_ref_s,
        "mismatched_passes": mismatched,
        "outputs": first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(len(pass_s))
        tracer.dump(request["trace_path"])
    json.dump(report, sys.stdout, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
