"""deblur1d benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload barcode --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  The run generates its requests from ``--seed``, times a fresh
interpreter's import of ``deblur1d.cli`` (``setup_s``), then drives the CLI
in-process from one closed-loop caller in a worker interpreter for
``--seconds`` seconds, and checks every output.  With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
replays each request under spans and reports the per-layer metrics.  The
last line of stdout is the result as one JSON object.

``--record FILE`` appends the result with its environment (for
``compare.py``); ``--spans FILE`` keeps the traced run's span file.
"""

import os

# One BLAS thread: the plain single-thread baseline, set before numpy loads
# and inherited by every interpreter the run starts.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import LAYER_SPANS, PROBE_SPAN, read_spans, self_times  # noqa: E402
from workloads import COKE_DIGITS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh interpreters timed for setup_s before and again after the timed
# loop, so that one disturbed moment cannot set the median.  One untimed
# import first compiles the bytecode cache.
SETUP_SAMPLES = 5
# Requests are cut into consecutive blocks of at least this many seconds of
# latency; the least-disturbed block gives the median latency and the rate.
# Disturbances on the shared host last a few seconds, so short blocks find
# a quiet stretch in most runs.
BLOCK_SECONDS = 1.5


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_samples(count):
    """Seconds from starting a fresh interpreter to ``deblur1d.cli`` imported, ``count`` times."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", "import deblur1d.cli; print('ready', flush=True)"],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        )
        try:
            ready = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if ready.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("a fresh interpreter could not import deblur1d.cli")
    return samples


def run_worker(workload, seed, seconds, trace, work):
    """Generate the requests, run them in a worker interpreter, return both."""
    w = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    requests = w.make_requests(rng, 1 + math.ceil(w.max_rate * seconds), work)
    spec = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "src": str(SRC),
        "spans": str(work / "spans.jsonl"),
        "warmup": requests[0],
        "requests": [{"argv": r["argv"], "replay": r["replay"]} for r in requests[1:]],
    }
    (work / "spec.json").write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(work / "spec.json"),
         str(work / "result.json")],
        env=child_env(), cwd=ROOT, timeout=seconds + 120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads((work / "result.json").read_text())
    return requests[1:], result


def failures(workload, requests, records):
    """One reason per failed request: a failed output check, a crash, or
    (traced) a replay whose outputs differ from the CLI's."""
    w = WORKLOADS[workload]
    reasons = []
    for rid, (req, rec) in enumerate(zip(requests, records)):
        why = w.check(req, rec)
        if why is None and "replay" in rec:
            if "error" in rec["replay"]:
                why = "replay raised: " + rec["replay"]["error"].strip().splitlines()[-1]
            elif not w.replay_matches(req, rec):
                why = "replay outputs differ from the CLI's"
        if why is not None:
            reasons.append(f"request {rid} ({' '.join(req['argv'][:3])} ...): {why}")
    return reasons


def tail(latencies):
    """The highest percentile with at least ten samples beyond it: the 11th largest."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def blocks(records):
    """Consecutive requests cut into blocks of at least BLOCK_SECONDS of latency."""
    out, block, busy = [], [], 0.0
    for rec in records:
        block.append(rec)
        busy += rec["latency_s"]
        if busy >= BLOCK_SECONDS:
            out.append(block)
            block, busy = [], 0.0
    if block and not out:
        out.append(block)
    return out


def end_to_end(result, failed, setup_s):
    """End-to-end metrics of one untraced run.

    The shared host slows the program for seconds at a time, so the median
    latency and the request rate come from the least-disturbed stretch of
    the run: the lowest block median, and the highest block rate.  The tail
    is taken over the whole run.
    """
    records = result["records"]
    latencies = [r["latency_s"] * 1e3 for r in records]
    value, pct = tail(latencies)
    n = len(latencies)
    cut = blocks(records)
    metrics = {
        "setup_s": setup_s,
        "requests_per_s": max(
            len(b) / (b[-1]["start_s"] + b[-1]["latency_s"] - b[0]["start_s"]) for b in cut),
        "latency_p50_ms": min(statistics.median(r["latency_s"] for r in b) for b in cut) * 1e3,
        "latency_tail_ms": value,
        "ok_frac": (n - failed) / n,
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
    }
    notes = {
        "samples": n,
        "blocks": len(cut),
        "tail_percentile": round(pct, 2),
        "failed_frac": failed / n,
        "run_p50_ms": statistics.median(latencies),
        "run_requests_per_s": n / result["elapsed_s"],
    }
    return metrics, notes


def per_layer(workload, result, spans):
    """Per-layer medians over requests from the span file and replay outcomes."""
    own = self_times(spans)
    layers, total = {}, {}
    for s in spans:
        rid = s["request"]
        if s["name"] == "request":
            total[rid] = s["end"] - s["start"]
        else:
            layers.setdefault(rid, {}).setdefault(s["name"], 0.0)
            layers[rid][s["name"]] += own[s["id"]]
    records = result["records"]
    rids = [rid for rid in range(len(records)) if rid in total]
    untraced = {rid: records[rid]["latency_s"] for rid in rids}

    def median_ms(per_request):
        return 1e3 * statistics.median(per_request(rid) for rid in rids) if rids else 0.0

    def self_ms(rid, name):
        return layers.get(rid, {}).get(name, 0.0)

    metrics = {f"{name}_ms": median_ms(lambda rid, name=name: self_ms(rid, name))
               for name in LAYER_SPANS + (PROBE_SPAN,)}
    metrics["lcurve.loop_ms"] = median_ms(
        lambda rid: self_ms(rid, "lcurve.sweep") - self_ms(rid, PROBE_SPAN)
        if PROBE_SPAN in layers.get(rid, {}) else 0.0)
    metrics["cli.self_ms"] = median_ms(lambda rid: untraced[rid] - total[rid])
    metrics["trace.request_ms"] = median_ms(lambda rid: untraced[rid])
    metrics["trace.coverage"] = statistics.median(
        sum(self_ms(rid, name) for name in LAYER_SPANS) / untraced[rid] for rid in rids
    ) if rids else 0.0
    metrics["trace.requests"] = float(len(rids))
    metrics["blur.matrix_bytes"] = 8.0 * WORKLOADS[workload].n ** 2

    decodes = [r["replay"] for r in records if workload == "barcode" and "replay" in r]
    decoded = [d for d in decodes if "error" not in d]
    metrics["upc.decode_attempts"] = float(len(decodes))
    metrics["upc.decode_ok_ratio"] = (
        sum(d["digits"] == COKE_DIGITS and d["check_ok"] for d in decoded) / len(decodes)
        if decodes else 0.0)
    metrics["upc.repaired_groups"] = (
        statistics.fmean(d["repaired"] for d in decoded) if decoded else 0.0)
    metrics["upc.bit_mismatches"] = (
        statistics.fmean(d["mismatches"] for d in decoded) if decoded else 0.0)
    return metrics


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def declared(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def run(workload, seed, seconds, trace, work, spans_out=None):
    """One benchmark run; returns (result object, notes for the record)."""
    setup = [] if trace else setup_samples(1 + SETUP_SAMPLES)[1:]
    requests, result = run_worker(workload, seed, seconds, trace, work)
    if not trace:
        setup += setup_samples(SETUP_SAMPLES)
    records = result["records"]
    if not records:
        raise RuntimeError("no request completed")
    reasons = failures(workload, requests, records)
    if trace:
        metrics, notes = per_layer(workload, result, read_spans(work / "spans.jsonl")), {}
        if spans_out:
            shutil.copyfile(work / "spans.jsonl", spans_out)
    else:
        metrics, notes = end_to_end(result, len(reasons), statistics.median(setup))
    notes.update(exhausted=result["exhausted"], failures=reasons[:10])
    out = {
        "correct": not reasons,
        "attempted": len(records),
        "failed": len(reasons),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared(trace)},
    }
    return out, notes


def report(out, notes, trace):
    for why in notes["failures"]:
        print(f"FAILED {why}", file=sys.stderr)
    if notes["exhausted"]:
        print("warning: the request pool ran out before the time did", file=sys.stderr)
    metrics = out["metrics"]
    if trace:
        base = metrics["trace.request_ms"]["value"]
        print(f"{'metric':24} {'value':>14}  unit   share of trace.request_ms")
        for name, m in metrics.items():
            share = f"{m['value'] / base:7.1%}" if m["unit"] == "ms" and base else ""
            print(f"{name:24} {m['value']:14.4f}  {m['unit']:6} {share}")
    else:
        for name, m in metrics.items():
            print(f"{name:24} {m['value']:14.4f}  {m['unit']}")
        print(f"{'tail percentile':24} {notes['tail_percentile']:14.2f}  "
              f"of {notes['samples']} requests; p50 and rate from the best of "
              f"{notes['blocks']} blocks")
        print(f"{'failed_frac':24} {notes['failed_frac']:14.4f}  ratio")
        print(f"{'whole-run p50':24} {notes['run_p50_ms']:14.4f}  ms")
        print(f"{'whole-run rate':24} {notes['run_requests_per_s']:14.4f}  1/s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result and its environment to this file")
    parser.add_argument("--spans", help="with --trace 1, keep the span file here")
    args = parser.parse_args(argv)

    if not (SRC / "deblur1d" / "cli.py").is_file():
        print(f"error: no deblur1d sources under {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# " + json.dumps(env))
    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out, notes = run(args.workload, args.seed, args.seconds, bool(args.trace), work,
                         args.spans)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()
    report(out, notes, args.trace)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "env": env, "notes": notes, "result": out}) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
