"""Command-line front end: net I/O, solver runs, verifier suites, reports.

Subcommands: `cheb`, `alpha`, `verify`, `counterexample`, `sequence`,
`estimate` and `suite-all` (alias `suite_all`). Machine-readable output goes
to stdout, a one-line human summary to stderr. Three subcommands take
`--format json|csv`: `verify` (default json), `sequence` (default csv) and
`estimate` (default json); the others have one output form. Exit codes:
0 success/pass, 2 verification fail, 1 usage or I/O error. All output is
byte-identical for identical (config, seed) on one platform.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys

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


class _UsageError(Exception):
    pass


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


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _summary(args: argparse.Namespace, text: str) -> None:
    if not args.quiet:
        print(text, file=sys.stderr)


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


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


# `verify --lemma` choice -> the verifier, called with the trials, the seed
# and the sizing options it takes as parameters. A sizing option given to a
# lemma whose verifier does not take it is a usage error.
_VERIFIERS = {
    "1": lambda trials, seed, dim: verify_lemma1(trials, dim, seed),
    "2": lambda trials, seed, n: verify_lemma2(trials, n, seed),
    "4": lambda trials, seed, dim: verify_lemma4_random(trials, dim, seed),
    "s1": lambda trials, seed, n, dim: verify_statement1(trials, n, dim, seed),
    "s2i": lambda trials, seed, dim: verify_statement2(trials, dim, seed, part="i"),
    "s2ii": lambda trials, seed, dim: verify_statement2(trials, dim, seed, part="ii"),
}
# Sizing option of `verify` -> its value when a lemma that reads it is not given it.
_VERIFY_SIZES = {"dim": 2, "n": 3}


def _reads(lemma: str) -> set[str]:
    """The sizing options that the verifier of `lemma` reads."""
    return set(inspect.signature(_VERIFIERS[lemma]).parameters) & set(_VERIFY_SIZES)


def _size_help(option: str, what: str) -> str:
    lemmas = ", ".join(lemma for lemma in _VERIFIERS if option in _reads(lemma))
    return f"{what}; lemmas {lemmas} (default {_VERIFY_SIZES[option]})"


def _cheb(args: argparse.Namespace) -> int:
    result = cheb(args.input)
    doc = {
        "schema": SCHEMA_VERSION,
        "center": list(result.center.coords),
        "radius": result.radius,
        "support": [list(p.coords) for p in result.support],
    }
    _emit(_dumps(doc))
    _summary(args, f"cheb: radius {result.radius:.12g}, |support| {len(result.support)}")
    return 0


def _alpha(args: argparse.Namespace) -> int:
    value = hausdorff.alpha(args.left, args.right)
    _emit(repr(value))
    _summary(args, f"alpha: {value:.12g}")
    return 0


def _verify(args: argparse.Namespace) -> int:
    reads, sizes = _reads(args.lemma), {}
    for option, default in _VERIFY_SIZES.items():
        value = getattr(args, option)
        if option in reads:
            sizes[option] = default if value is None else value
        elif value is not None:
            raise _UsageError(f"verify --lemma {args.lemma} does not read --{option}")
    report = _VERIFIERS[args.lemma](args.trials, args.seed, **sizes)
    if args.format == "csv":
        _emit(
            "lemma_id,trials,max_ratio,claimed_bound,pass\n"
            f"{report.lemma_id},{report.trials},{report.max_ratio!r},"
            f"{report.claimed_bound!r},{str(report.passed).lower()}"
        )
    else:
        _emit(_dumps(report_to_json(report)))
    verdict = "pass" if report.passed else "FAIL"
    _summary(
        args,
        f"{report.lemma_id}: {verdict} (max ratio {report.max_ratio:.9g} vs bound {report.claimed_bound:.9g})",
    )
    return 0 if report.passed else 2


def _counterexample(args: argparse.Namespace) -> int:
    if args.hyperbolic:
        m, w, ratio = lemma3_hyperbolic_counterexample(args.target)
        nets = {"net_a": [hyperbolic_point_to_json(p) for p in m],
                "net_b": [hyperbolic_point_to_json(p) for p in w]}
    else:
        m, w, ratio = lemma3_counterexample(args.target)
        nets = {"net_a": net_to_json(m), "net_b": net_to_json(w)}
    doc = {
        "schema": SCHEMA_VERSION,
        "hyperbolic": args.hyperbolic,
        "target": args.target,
        "achieved_ratio": ratio,
        **nets,
    }
    _emit(_dumps(doc))
    _summary(args, f"counterexample: ratio {ratio:.6g} > target {args.target:g}")
    return 0


def _sequence(args: argparse.Namespace) -> int:
    rows = lemma3_nonuniform_sequence(args.nmax)
    if args.format == "json":
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
        args,
        f"sequence: alpha {rows[0][2]:.6g} -> {rows[-1][2]:.6g}, "
        f"displacement ~ {rows[-1][3]:.6g}",
    )
    return 0


def _estimate(args: argparse.Namespace) -> int:
    eps = args.epsilon if args.epsilon is not None else default_epsilon(args.input)
    sup, worst = estimate_local_lipschitz(NeighborhoodSpec(args.input, eps, args.samples, args.seed))
    if args.format == "csv":
        _emit(f"epsilon,samples,sup_ratio\n{eps!r},{args.samples},{sup!r}")
    else:
        doc = {
            "schema": SCHEMA_VERSION,
            "epsilon": eps,
            "samples": args.samples,
            "sup_ratio": sup,
            "worst_pair": sample_to_json(worst),
        }
        _emit(_dumps(doc))
    _summary(args, f"estimate: sup ratio {sup:.6g} over {args.samples} pairs")
    return 0


def _suite(args: argparse.Namespace) -> int:
    doc = suite_all(args.seed, trials=args.trials, samples=args.samples)
    _emit(_dumps(doc))
    for key in sorted(doc["reports"]):
        _summary(args, f"{key}: {'pass' if doc['reports'][key]['pass'] else 'FAIL'}")
    return 0 if doc["pass"] else 2


def _int_at_least(text: str, low: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
    return value


def _positive(text: str) -> int:
    """A count or dimension: an integer of at least 1."""
    return _int_at_least(text, 1, "positive")


def _nonnegative(text: str) -> int:
    """A seed: an integer of at least 0."""
    return _int_at_least(text, 0, "nonnegative")


def _net_file(path: str) -> Net:
    """The net stored as a JSON document in the file at `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise argparse.ArgumentTypeError(f"cannot read {path}: {err.strerror}") from err
    except json.JSONDecodeError as err:
        raise argparse.ArgumentTypeError(f"{path}: not valid JSON ({err})") from err
    try:
        return net_from_json(doc)
    except ChebnetsError as err:
        raise argparse.ArgumentTypeError(f"{path}: {err}") from err


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="chebnets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, what, fmt=None, **kwargs):
        p = sub.add_parser(name, help=what, **kwargs)
        p.set_defaults(run=run)
        p.add_argument("--quiet", action="store_true")
        if fmt is not None:
            p.add_argument("--format", choices=("json", "csv"), default=fmt)
        return p

    def seed(p):
        p.add_argument("--seed", type=_nonnegative, default=0, help="seed of the random draws")

    p = command("cheb", _cheb, "minimum enclosing ball of a net (a function of the net alone)")
    p.add_argument("--input", type=_net_file, required=True)

    p = command("alpha", _alpha, "Hausdorff distance between two nets")
    p.add_argument("--left", type=_net_file, required=True)
    p.add_argument("--right", type=_net_file, required=True)

    p = command("verify", _verify, "run one bound verifier", fmt="json")
    p.add_argument("--lemma", required=True, choices=_VERIFIERS)
    p.add_argument("--trials", type=_positive, default=10_000)
    p.add_argument("--dim", type=_positive, help=_size_help("dim", "dimension"))
    p.add_argument("--n", type=_positive, help=_size_help("n", "net size"))
    seed(p)

    p = command("counterexample", _counterexample, "blow-up witness construction")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--hyperbolic", action="store_true")

    p = command("sequence", _sequence, "vanishing-alpha sequence as CSV", fmt="csv")
    p.add_argument("--nmax", type=int, default=1000)

    p = command("estimate", _estimate, "sampled local Lipschitz estimate", fmt="json")
    p.add_argument("--input", type=_net_file, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--samples", type=_positive, default=1_000)
    seed(p)

    p = command("suite-all", _suite, "run the whole verifier suite", aliases=["suite_all"])
    p.add_argument("--trials", type=_positive, default=10_000)
    p.add_argument("--samples", type=_positive, default=1_000)
    seed(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except (_UsageError, ChebnetsError) as err:
        print(f"chebnets: error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"chebnets: i/o error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
