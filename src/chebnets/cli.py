"""Command-line front end: net I/O, solver runs, verifier suites, reports.

Machine-readable output (JSON or CSV) goes to stdout, a one-line human
summary to stderr. Exit codes: 0 success/pass, 2 verification fail,
1 usage or I/O error. All output is byte-identical for identical
(config, seed) on one platform.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import hausdorff
from .chebyshev import cheb
from .counterexamples import (
    lemma3_counterexample,
    lemma3_hyperbolic_counterexample,
    lemma3_nonuniform_sequence,
)
from .errors import ChebnetsError
from .geometry import Net, net_from_json, net_to_json
from .hyperbolic import hyperbolic_point_to_json
from .lipschitz import (
    LemmaReport,
    LipschitzSample,
    NeighborhoodSpec,
    default_epsilon,
    estimate_local_lipschitz,
    random_net,
)
from .verifiers import (
    verify_lemma1,
    verify_lemma2,
    verify_lemma4_random,
    verify_statement1,
    verify_statement2,
)

SCHEMA_VERSION = 1

_LEMMA_KEYS = {"1": "L1", "2": "L2", "4": "L4", "s1": "S1", "s2i": "S2i", "s2ii": "S2ii"}


class _UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Parsed invocation; one subcommand with its knobs."""

    command: str
    input: str | None = None
    left: str | None = None
    right: str | None = None
    lemma: str | None = None
    trials: int = 10_000
    samples: int = 1_000
    dim: int = 2
    n: int = 3
    seed: int = 0
    target: float = 10.0
    hyperbolic: bool = False
    nmax: int = 1000
    epsilon: float | None = None
    fmt: str = "json"
    quiet: bool = False

    def __post_init__(self):
        if self.trials < 1 or self.samples < 1 or self.dim < 1 or self.n < 1:
            raise _UsageError("counts and dimensions must be positive")
        if self.seed < 0:
            raise _UsageError("seed must be nonnegative")
        for path in (self.input, self.left, self.right):
            if path is not None and not Path(path).is_file():
                raise _UsageError(f"input file not found: {path}")


def sample_to_json(sample: LipschitzSample) -> dict:
    return {
        "net_a": net_to_json(sample.net_a),
        "net_b": net_to_json(sample.net_b),
        "alpha": sample.alpha_ab,
        "cheb_displacement": sample.cheb_displacement,
        "ratio": sample.ratio,
    }


def report_to_json(report: LemmaReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "lemma_id": report.lemma_id,
        "trials": report.trials,
        "max_ratio": report.max_ratio,
        "claimed_bound": report.claimed_bound,
        "worst_sample": sample_to_json(report.worst_sample),
        "pass": report.passed,
    }


def _load_net(path: str) -> Net:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise _UsageError(f"{path}: not valid JSON ({err})") from err
    try:
        return net_from_json(doc)
    except ChebnetsError as err:
        raise _UsageError(f"{path}: {err}") from err


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _summary(config: RunConfig, text: str) -> None:
    if not config.quiet:
        print(text, file=sys.stderr)


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _run_verify(config: RunConfig) -> tuple[LemmaReport, str]:
    key = _LEMMA_KEYS.get((config.lemma or "").lower())
    if key is None:
        raise _UsageError(f"unknown lemma {config.lemma!r}; pick from 1|2|4|s1|s2i|s2ii")
    if key == "L1":
        report = verify_lemma1(config.trials, config.dim, config.seed)
    elif key == "L2":
        report = verify_lemma2(config.trials, config.n, config.seed)
    elif key == "L4":
        report = verify_lemma4_random(config.trials, config.dim, config.seed)
    elif key == "S1":
        report = verify_statement1(config.trials, config.n, config.dim, config.seed)
    elif key == "S2i":
        report = verify_statement2(config.trials, config.dim, config.seed, part="i")
    else:
        report = verify_statement2(config.trials, config.dim, config.seed, part="ii")
    return report, key


def suite_all(seed: int, trials: int = 10_000, samples: int = 1_000) -> dict:
    """Run every verifier plus the counterexample checks; aggregate to JSON.

    Report keys: L1, L2, L4, S1, S2i, S2ii (bound verifiers), L3 (witness
    ratios above targets 1/10/100), L3ii (vanishing alpha with pinned
    displacement), local (neighbourhood estimates stable under halving
    epsilon).
    """
    reports: dict[str, dict] = {}
    reports["L1"] = report_to_json(verify_lemma1(trials, dim=2, seed=seed))
    reports["L2"] = report_to_json(verify_lemma2(trials, n=5, seed=seed))
    reports["L4"] = report_to_json(verify_lemma4_random(trials, dim=2, seed=seed))
    reports["S1"] = report_to_json(verify_statement1(trials, n=4, dim=2, seed=seed))
    reports["S2i"] = report_to_json(verify_statement2(trials, dim=2, seed=seed, part="i"))
    reports["S2ii"] = report_to_json(verify_statement2(trials, dim=2, seed=seed, part="ii"))

    targets = [1.0, 10.0, 100.0]
    achieved = []
    for t in targets:
        _, _, ratio = lemma3_counterexample(t)
        achieved.append(ratio)
    reports["L3"] = {
        "targets": targets,
        "achieved_ratios": achieved,
        "pass": all(r > t for r, t in zip(achieved, targets)),
    }

    nmax = 1000
    rows = lemma3_nonuniform_sequence(nmax)
    alphas = [r[2] for r in rows]
    disps = [r[3] for r in rows]
    limit = disps[-1]
    drop = alphas[9] / alphas[-1]
    max_dev = max(abs(d - limit) for d in disps)
    reports["L3ii"] = {
        "nmax": nmax,
        "alpha_at_10": alphas[9],
        "alpha_at_nmax": alphas[-1],
        "alpha_drop_factor": drop,
        "displacement_limit": limit,
        "max_displacement_deviation": max_dev,
        "pass": drop >= 10.0 and max_dev <= 0.01 * limit,
    }

    rng = np.random.default_rng(seed)
    bases = [(3, 2), (4, 2), (5, 3), (6, 3)]
    sups, sups_half, stable = [], [], []
    for size, dim in bases:
        base = random_net(rng, size, dim)
        eps = default_epsilon(base)
        sup, _ = estimate_local_lipschitz(NeighborhoodSpec(base, eps, samples, seed))
        sup_half, _ = estimate_local_lipschitz(NeighborhoodSpec(base, eps / 2.0, samples, seed))
        sups.append(sup)
        sups_half.append(sup_half)
        stable.append(
            math.isfinite(sup)
            and math.isfinite(sup_half)
            and abs(sup - sup_half) < 0.5 * max(sup, sup_half)
        )
    reports["local"] = {
        "bases": [{"size": s, "dim": d} for s, d in bases],
        "sup_ratios": sups,
        "sup_ratios_half_epsilon": sups_half,
        "pass": all(stable),
    }

    ok = all(r["pass"] for r in reports.values())
    return {"schema": SCHEMA_VERSION, "seed": seed, "reports": reports, "pass": ok}


def run(config: RunConfig) -> int:
    """Dispatch one parsed invocation; returns the process exit code."""
    cmd = config.command
    if cmd == "cheb":
        net = _load_net(config.input)
        result = cheb(net)
        doc = {
            "schema": SCHEMA_VERSION,
            "center": list(result.center.coords),
            "radius": result.radius,
            "support": [list(p.coords) for p in result.support],
        }
        _emit(_dumps(doc))
        _summary(config, f"cheb: radius {result.radius:.12g}, |support| {len(result.support)}")
        return 0

    if cmd == "alpha":
        left = _load_net(config.left)
        right = _load_net(config.right)
        value = hausdorff.alpha(left, right)
        _emit(repr(value))
        _summary(config, f"alpha: {value:.12g}")
        return 0

    if cmd == "verify":
        report, key = _run_verify(config)
        if config.fmt == "csv":
            _emit(
                "lemma_id,trials,max_ratio,claimed_bound,pass\n"
                f"{report.lemma_id},{report.trials},{report.max_ratio!r},"
                f"{report.claimed_bound!r},{str(report.passed).lower()}"
            )
        else:
            _emit(_dumps(report_to_json(report)))
        verdict = "pass" if report.passed else "FAIL"
        _summary(
            config,
            f"{key}: {verdict} (max ratio {report.max_ratio:.9g} vs bound {report.claimed_bound:.9g})",
        )
        return 0 if report.passed else 2

    if cmd == "counterexample":
        if config.hyperbolic:
            m, w, ratio = lemma3_hyperbolic_counterexample(config.target)
            doc = {
                "schema": SCHEMA_VERSION,
                "hyperbolic": True,
                "target": config.target,
                "achieved_ratio": ratio,
                "net_a": [hyperbolic_point_to_json(p) for p in m],
                "net_b": [hyperbolic_point_to_json(p) for p in w],
            }
        else:
            m, w, ratio = lemma3_counterexample(config.target)
            doc = {
                "schema": SCHEMA_VERSION,
                "hyperbolic": False,
                "target": config.target,
                "achieved_ratio": ratio,
                "net_a": net_to_json(m),
                "net_b": net_to_json(w),
            }
        _emit(_dumps(doc))
        _summary(config, f"counterexample: ratio {ratio:.6g} > target {config.target:g}")
        return 0

    if cmd == "sequence":
        rows = lemma3_nonuniform_sequence(config.nmax)
        if config.fmt == "json":
            doc = {
                "schema": SCHEMA_VERSION,
                "rows": [
                    {"n": i + 1, "alpha_n": a, "displacement_n": d}
                    for i, (_, _, a, d) in enumerate(rows)
                ],
            }
            _emit(_dumps(doc))
        else:
            lines = ["n,alpha_n,displacement_n"]
            lines += [f"{i + 1},{a!r},{d!r}" for i, (_, _, a, d) in enumerate(rows)]
            _emit("\n".join(lines))
        _summary(
            config,
            f"sequence: alpha {rows[0][2]:.6g} -> {rows[-1][2]:.6g}, "
            f"displacement ~ {rows[-1][3]:.6g}",
        )
        return 0

    if cmd == "estimate":
        net = _load_net(config.input)
        eps = config.epsilon if config.epsilon is not None else default_epsilon(net)
        try:
            spec = NeighborhoodSpec(net, eps, config.samples, config.seed)
        except ChebnetsError as err:
            raise _UsageError(str(err)) from err
        sup, worst = estimate_local_lipschitz(spec)
        doc = {
            "schema": SCHEMA_VERSION,
            "epsilon": eps,
            "samples": config.samples,
            "sup_ratio": sup,
            "worst_pair": sample_to_json(worst),
        }
        if config.fmt == "csv":
            _emit(f"epsilon,samples,sup_ratio\n{eps!r},{config.samples},{sup!r}")
        else:
            _emit(_dumps(doc))
        _summary(config, f"estimate: sup ratio {sup:.6g} over {config.samples} pairs")
        return 0

    if cmd == "suite-all":
        doc = suite_all(config.seed, trials=config.trials, samples=config.samples)
        _emit(_dumps(doc))
        for key in sorted(doc["reports"]):
            _summary(config, f"{key}: {'pass' if doc['reports'][key]['pass'] else 'FAIL'}")
        return 0 if doc["pass"] else 2

    raise _UsageError(f"unknown subcommand {cmd!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="chebnets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("cheb", help="minimum enclosing ball of a net (a function of the net alone)")
    p.add_argument("--input", required=True)
    common(p)

    p = sub.add_parser("alpha", help="Hausdorff distance between two nets")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    common(p)

    p = sub.add_parser("verify", help="run one bound verifier")
    p.add_argument("--lemma", required=True, choices=("1", "2", "4", "s1", "s2i", "s2ii"))
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0, help="seed of the random draws")
    common(p)

    p = sub.add_parser("counterexample", help="blow-up witness construction")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--hyperbolic", action="store_true")
    common(p)

    p = sub.add_parser("sequence", help="vanishing-alpha sequence as CSV")
    p.add_argument("--nmax", type=int, default=1000)
    common(p)

    p = sub.add_parser("estimate", help="sampled local Lipschitz estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--samples", type=int, default=1_000)
    p.add_argument("--seed", type=int, default=0, help="seed of the random draws")
    common(p)

    p = sub.add_parser("suite-all", aliases=["suite_all"], help="run the whole verifier suite")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--samples", type=int, default=1_000)
    p.add_argument("--seed", type=int, default=0, help="seed of the random draws")
    common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command.replace("suite_all", "suite-all")
    fields = {}
    for name in ("input", "left", "right", "lemma", "trials", "samples", "dim", "n",
                 "seed", "target", "hyperbolic", "nmax", "epsilon", "quiet"):
        if hasattr(args, name) and getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    fmt = getattr(args, "fmt", None)
    default_fmt = "csv" if command == "sequence" else "json"
    return RunConfig(command=command, fmt=fmt or default_fmt, **fields)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        return run(config)
    except _UsageError as err:
        print(f"chebnets: error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"chebnets: i/o error: {err}", file=sys.stderr)
        return 1
    except ChebnetsError as err:
        print(f"chebnets: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
