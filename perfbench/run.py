"""Benchmark of the qsubgroups library, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # every workload at a tiny size
    python3 perfbench/run.py --capture    # rewrite perfbench/expected.json

The library is imported from `src/` of the checkout and nothing else.
A workload is one fixed round of checked operations.  With `--trace 0`
the run does the round once to warm up, then again while another fits
in S seconds, each time against a fresh import, and reports the
end-to-end metrics over each operation's median latency, scaled to the
reference speed (reference.py); with `--trace 1`
it does the round once untraced, then once more with every layer
wrapped, and reports the per-layer metrics.  The last line of standard
output is the JSON result; the lines before it repeat every metric with
its unit and sample count, the environment, and each failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import reference
import spans
from workloads import CACHE, ROOT, WORKLOADS, BenchError, check, run_ops

HERE = Path(__file__).resolve().parent
SETUP_REPS = 15      # set-ups per run; setup_s is their median
MIN_REPEATS = 3      # timed repeats of the round per run, at least
TAIL_BEYOND = 10     # samples beyond the tail percentile
REF_EVERY = 0.25     # seconds of ops between measurements of the reference


def pct(values, q):
    """Linear-interpolated quantile of the samples."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it (fewer only when there are not that many)."""
    s = sorted(values)
    i = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[i], 100 * i / max(len(s) - 1, 1)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qsubgroups").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(original_env) -> dict:
    return {"python": platform.python_version(), "implementation": sys.implementation.name,
            "nproc": os.cpu_count(), "source_sha256": source_digest(),
            "PYTHONDONTWRITEBYTECODE": original_env.get("PYTHONDONTWRITEBYTECODE"),
            "QSUBGROUPS_ENUM_CAP": original_env.get("QSUBGROUPS_ENUM_CAP"),
            "PYTHONHASHSEED": original_env.get("PYTHONHASHSEED"),
            "pycache": str(CACHE.relative_to(ROOT) / "pycache"), "cli_flags": "-S"}


def prepare() -> dict:
    """Check the checkout, pin what would change the work, point imports at src/."""
    if not (ROOT / "src" / "qsubgroups" / "__init__.py").is_file():
        raise BenchError("no library under src/qsubgroups in this checkout")
    original = {k: os.environ.get(k) for k in
                ("PYTHONDONTWRITEBYTECODE", "QSUBGROUPS_ENUM_CAP", "PYTHONHASHSEED")}
    os.environ.pop("QSUBGROUPS_ENUM_CAP", None)
    CACHE.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    sys.pycache_prefix = str(CACHE / "pycache")
    sys.dont_write_bytecode = False
    return original


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def set_up(wl, reps):
    """`reps` timed set-ups, each in a fresh process, then the set-up this
    process runs with (untimed); returns (library or None, seconds)."""
    times = [wl.setup_seconds() for _ in range(reps)]
    return wl.load(), times


def scaled_round(ops):
    """Runs the ops in order, measuring the reference before the first op
    and again whenever REF_EVERY seconds of ops have run since.  Returns
    (each op's latency, the same scaled by the reference measured on either
    side of it, failures)."""
    raw, scaled, failures, pending = [], [], [], []
    before = reference.reference_seconds()
    for k, op in enumerate(ops):
        (t,), fail, _ = run_ops([op])
        failures += fail
        pending.append(t)
        if sum(pending) >= REF_EVERY or k == len(ops) - 1:
            after = reference.reference_seconds()
            raw += pending
            scaled += [reference.scaled(x, before, after) for x in pending]
            pending, before = [], after
    return raw, scaled, failures


def fresh_round(wl):
    """The workload's round against a fresh set-up, after checking that no
    layer of the library is left wrapped."""
    lib = wl.load()
    if lib is not None:
        spans.check_pristine(spans.library_modules())
    return wl.round(lib)


def repeat_round(wl, seconds, min_repeats):
    """A warm-up round, then timed repeats of the same round while another
    fits in `seconds` (at least min_repeats).  Returns (raw latencies of
    each timed repeat, scaled latencies of each, failures, ops run)."""
    deadline = perf_counter() + seconds
    raw, scaled, failures, attempted = [], [], [], 0
    while True:
        t0 = perf_counter()
        ops = fresh_round(wl)
        r, sc, fail = scaled_round(ops)
        failures += fail
        attempted += len(ops)
        if attempted > len(ops):          # the first round is the warm-up
            raw.append(r)
            scaled.append(sc)
        if len(raw) >= min_repeats and perf_counter() + (perf_counter() - t0) > deadline:
            break
    return raw, scaled, failures, attempted


def measure(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result, metric values with sample counts,
    report lines, failures, known-defect ops with their failure reasons)."""
    if not (HERE / "expected.json").is_file():
        raise BenchError("perfbench/expected.json is missing")
    wl = WORKLOADS[name](seed, tiny, load_json(HERE / "expected.json"))
    lib, setup_times = set_up(wl, 1 if tiny else SETUP_REPS)
    problem = wl.verify_setup(lib)
    del lib
    lines = []
    if not trace:
        raw, scaled, failures, attempted = repeat_round(wl, seconds, 1 if tiny else MIN_REPEATS)
        lat = [statistics.median(times) for times in zip(*scaled)]
        cut, q = tail(lat)
        values = {
            "ops_per_s": (len(lat) / sum(lat), len(lat)),
            "latency_p50_ms": (pct(lat, 0.5) * 1e3, len(lat)),
            "latency_tail_ms": (cut * 1e3, len(lat)),
            "fail_ratio": (len(failures) / attempted, attempted),
            "setup_s": (statistics.median(setup_times), len(setup_times)),
            "peak_rss_mb": (resource.getrusage(wl.rusage_who).ru_maxrss / 1024, 1),
        }
        beyond = sum(1 for x in lat if x > cut)
        unscaled = [statistics.median(times) for times in zip(*raw)]
        lines += [f"# each op's latency is its median over {len(raw)} timed repeats of the "
                  f"round, scaled to the reference speed; latency_tail_ms is p{q:.1f}: "
                  f"{beyond} of {len(lat)} beyond it",
                  f"# unscaled: ops_per_s {len(lat) / sum(unscaled):.6g}, latency_p50_ms "
                  f"{pct(unscaled, 0.5) * 1e3:.6g}, latency_tail_ms "
                  f"{tail(unscaled)[0] * 1e3:.6g}; host {sum(unscaled) / sum(lat):.4f}x "
                  f"slower than the reference speed"]
    else:
        lat_u, fail_u, _ = run_ops(fresh_round(wl))
        lat_t, fail_t, kept, snap, extra = wl.traced_pass()
        fail_t += [(op, why) for op, result in kept if (why := check(op, result))]
        values = {k: (v, len(lat_t)) for k, v in spans.layer_metrics(snap).items()}
        values.update({"cli.interp_ms": (0, 0), "cli.import_ms": (0, 0),
                       "cli.stdout_bytes": (0, 0)} | extra)
        values["trace_overhead_ratio"] = (sum(lat_t) / sum(lat_u), len(lat_t))
        covered = sum(snap["self_s"].values()) if snap else 0.0
        values["trace.covered_ratio"] = (covered / sum(lat_t), len(lat_t))
        failures = fail_u + fail_t
        attempted = len(lat_u) + len(lat_t)
        lines.append(f"# one round untraced, {sum(lat_u):.4f} s, and traced, "
                     f"{sum(lat_t):.4f} s: {len(lat_t)} ops")
    _, raised, kept = run_ops(wl.known_defects(), defer=True)
    defects = raised + [(op, check(op, result)) for op, result in kept]
    values["cli.known_defects"] = (sum(1 for _, why in defects if why), len(defects))
    lines += wl.notes()
    for op, why in failures:
        lines.append(f"# failed {op.kind} {op.key}: {why}")
    # a known defect is expected only while it fails for its recorded reason
    odd = [(op, why) for op, why in defects if why not in (None, op.known)]
    for op, why in defects:
        state = "fixed" if why is None else "as recorded" if why == op.known else "UNEXPECTED"
        lines.append(f"# known defect {op.key}: {why or 'passes'} ({state})")
    if problem:
        lines.append(f"# set-up check failed: {problem}")
    result = {"correct": not failures and not odd and not problem,
              "attempted": attempted, "failed": len(failures)}
    return result, values, lines, failures, defects


def report(name, seed, trace, values, lines, result, env):
    spec = load_json(ROOT / "BENCHMARK.json")
    names = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    print(f"# qsubgroups benchmark: workload={name} seed={seed} trace={trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    units = {m["name"]: m["unit"] for m in names}
    units.setdefault("fail_ratio", "ratio")
    for key, (value, samples) in values.items():
        print(f"{key} = {value:.6g} {units.get(key, '')} (n={samples})")
    for line in lines:
        print(line)
    result["metrics"] = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                         for m in names}
    print(json.dumps(result))


def smoke() -> int:
    """Every workload at a tiny size, traced and untraced; checks the metric
    names against BENCHMARK.json, that no op of a round fails, and that the
    known defects fail for their recorded reasons."""
    spec = load_json(ROOT / "BENCHMARK.json")
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result, values, _, failures, defects = measure(name, 1, 0, trace, tiny=True)
            want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if not want <= set(values):
                problems.append(f"{name}/{trace}: missing {sorted(want - set(values))}")
            if failures:
                problems.append(f"{name}/{trace}: failed {[(op.key, why) for op, why in failures]}")
            for op, why in defects:
                if why != op.known:
                    problems.append(f"{name}/{trace}: {op.key} gives {why!r}, "
                                    f"recorded {op.known!r}")
            print(f"smoke {name} trace={trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed, {len(defects)} known defects")
    for p in problems:
        print("SMOKE FAILURE " + p)
    return 1 if problems else 0


def capture() -> int:
    """Record digests of composite-level answers and CLI transcripts."""
    out = {}
    for name in ("classify", "cli"):
        wl = WORKLOADS[name](0, False, {})
        out.update(wl.capture(wl.load()))
    (HERE / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'expected.json'}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--capture", action="store_true")
    args = ap.parse_args(argv)
    try:
        original = prepare()
        if args.smoke:
            return smoke()
        if args.capture:
            return capture()
        if args.workload is None:
            ap.error("--workload is required")
        result, values, lines, _, _ = measure(args.workload, args.seed, args.seconds,
                                              args.trace)
        report(args.workload, args.seed, args.trace, values, lines, result,
               environment(original))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
