"""The closed-loop caller, one fresh interpreter per benchmark run.

    python3 perfbench/worker.py SPEC.json RESULT.json

One caller sends the CLI requests in SPEC in order, in-process through
``deblur1d.cli.run_cli``, each after the previous one has finished, until
SPEC's seconds have passed.  Outputs are left for the parent to check.
With tracing on, each request is also replayed as its library calls under
spans, in alternating order with the untraced call, and the spans are
written to SPEC's span file when the run ends.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

from spans import PROBE_SPAN, Tracer


def cli_call(run_cli, argv):
    """One timed ``run_cli`` call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = run_cli(argv)
    except Exception:  # noqa: BLE001 - a crashing request is recorded as failed
        rc = None
        err.write(traceback.format_exc())
    latency = time.perf_counter() - start
    return {"rc": rc, "latency_s": latency, "stdout": out.getvalue(), "stderr": err.getvalue()}


def traced_call(tracer, replay, rid, params, probe):
    """The traced replay of one request, then the probe on the operator it
    hands back, outside the request span."""
    try:
        with tracer.span("request", rid):
            outcome, a = replay(tracer, rid, params)
        if a is not None:
            with tracer.span(PROBE_SPAN, rid):
                probe(a)
    except Exception:  # noqa: BLE001 - a crashing replay is recorded as failed
        return {"error": traceback.format_exc()}
    return outcome


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from deblur1d.cli import run_cli

    tracer = replay = probe = None
    if spec["trace"]:
        from replay import REPLAYS

        from deblur1d.linalg import svd_econ as probe

        tracer, replay = Tracer(), REPLAYS[spec["workload"]]

    cli_call(run_cli, spec["warmup"]["argv"])
    if tracer is not None:
        traced_call(Tracer(), replay, -1, spec["warmup"]["replay"], probe)
    records = []
    start = time.perf_counter()
    deadline = start + spec["seconds"]
    for rid, req in enumerate(spec["requests"]):
        begun = time.perf_counter()
        if begun >= deadline:
            break
        if tracer is None:
            rec = cli_call(run_cli, req["argv"])
        elif rid % 2 == 0:
            rec = cli_call(run_cli, req["argv"])
            rec["replay"] = traced_call(tracer, replay, rid, req["replay"], probe)
        else:
            outcome = traced_call(tracer, replay, rid, req["replay"], probe)
            rec = cli_call(run_cli, req["argv"])
            rec["replay"] = outcome
        rec["start_s"] = begun - start
        records.append(rec)
    elapsed = time.perf_counter() - start

    if tracer is not None:
        tracer.write(spec["spans"])
    result = {
        "elapsed_s": elapsed,
        "exhausted": len(records) == len(spec["requests"]),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": records,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
