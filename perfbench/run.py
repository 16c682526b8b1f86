"""Benchmark of the chebnets package, run from the root of a checkout:

    python3 perfbench/run.py --workload suite|meb|hyperbolic --seed N --seconds S --trace 0|1

The workload's inputs are made from --seed. Operations run in whole rounds
until --seconds have passed (at least two rounds), the outputs are checked
against independent computations, and the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json. With --trace 1 the run
first times rounds untraced for half of --seconds, then repeats as many
rounds with span tracing on every layer, and reports the per-layer metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("suite", "meb", "hyperbolic")
SETUP_REPEATS = 5
MIN_ROUNDS = 2


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "chebnets").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_rounds(ops, seconds=None, rounds=None, tracer=None, reference=None):
    """Run whole rounds of `ops` for `seconds` (at least MIN_ROUNDS) or for `rounds`.

    Returns the per-operation durations, the number of failed operations,
    the first round's results, the rounds run and the number of results
    that differ from `reference` (or from the first round).
    """
    clock = time.perf_counter
    durations, failed, first, mismatched, done = [], 0, [], 0, 0
    begin = clock()
    while True:
        for i, (span, op) in enumerate(ops):
            with tracer.span(span) if tracer else nullcontext():
                t = clock()
                result = op()
                durations.append(clock() - t)
            failed += result is None
            if done == 0:
                first.append(result)
            want = reference[i] if reference is not None else first[i]
            mismatched += result != want
        done += 1
        if rounds is not None:
            if done == rounds:
                break
        elif done >= MIN_ROUNDS and clock() - begin >= seconds:
            break
    return durations, failed, first, done, mismatched


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be nonnegative and --seconds positive")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (SRC / "chebnets" / "__init__.py").is_file():
        _fail(f"run from a checkout: {spec_path} and {SRC / 'chebnets'} must exist")
    spec = json.loads(spec_path.read_text())

    sys.path.insert(0, str(SRC))
    import numpy as np

    import chebnets
    if Path(chebnets.__file__).resolve().parent != SRC / "chebnets":
        _fail(f"imported chebnets from {chebnets.__file__}, not from {SRC}")
    import spans
    import wl_hyperbolic
    import wl_meb
    import wl_suite
    module = {"suite": wl_suite, "meb": wl_meb, "hyperbolic": wl_hyperbolic}[args.workload]
    import_s = time.perf_counter() - T_START

    setups = []
    for _ in range(SETUP_REPEATS):
        work = None  # so that peak_rss_mib holds one copy of the inputs, not two
        t = time.perf_counter()
        work = module.Workload(args.seed)
        work.warm()
        setups.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setups)

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "src_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "operations_per_round": len(work.ops),
    }

    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        durations, failed, first, done, mismatched = run_rounds(work.ops, seconds=args.seconds)
        timed = sum(durations)
        values = {
            "setup_s": setup_s,
            "ops_per_s": (len(durations) - failed) / timed,
            "op_p50_ms": statistics.median(durations) * 1e3,
            # Read before the checks, so that it is the program's peak.
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metric_specs = spec["end_to_end"]
    else:
        durations, failed, first, done, mismatched = run_rounds(work.ops, seconds=args.seconds / 2)
        untraced = sum(durations)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_durations, traced_failed, _, _, traced_mismatched = run_rounds(
                work.ops, rounds=done, tracer=tracer, reference=first)
        finally:
            tracer.uninstall()
        traced = sum(traced_durations)
        ops = len(traced_durations)
        values = spans.layer_metrics(tracer, ops, work.class_of_op)
        values.update({"trace.untraced_s": untraced, "trace.traced_s": traced,
                       "trace.overhead_ratio": traced / untraced})
        durations += traced_durations
        failed += traced_failed
        mismatched += traced_mismatched
        metric_specs = spec["per_layer"]
        tracer.save(OUT / f"spans-{args.workload}.npz")

    errors = work.check(first)
    errors += work.selftest(first)
    if mismatched:
        errors.append(f"{mismatched} results differ from the first round's")
    for err in errors[:20]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)

    metrics = {}
    for m in metric_specs:
        if m["name"] not in values:
            _fail(f"metric {m['name']} of BENCHMARK.json was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": not errors, "attempted": len(durations), "failed": failed, "metrics": metrics}
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "rounds": done, **result}, indent=1) + "\n")
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
