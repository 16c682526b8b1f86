"""`suite` workload: `chebnets suite-all`, run in-process through `cli.main`.

One operation is one suite-all invocation with the benchmark's seed. Its
verifier loops draw nets of 2 to 6 points, so `sample_pair`, alpha and the
`Net`/`Point` constructors do most of the work.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import certify
from chebnets import cli

# Trials per verifier and samples per local estimate. The package defaults
# (10,000 and 1,000) take over 20 s for one invocation; this keeps their
# ratio, so that the verifier loops still do most of the work.
TRIALS = 1000
SAMPLES = TRIALS // 10
WARM_TRIALS = 5


def _invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _argv(seed, trials, samples):
    return ["suite-all", "--seed", str(seed), "--trials", str(trials),
            "--samples", str(samples), "--quiet"]


class Workload:
    def __init__(self, seed: int):
        self.seed = seed
        argv = _argv(seed, TRIALS, SAMPLES)
        self.ops = [("bench.op", lambda: _invoke(argv))]
        self.class_of_op = {}

    def warm(self):
        _invoke(_argv(self.seed, WARM_TRIALS, WARM_TRIALS))

    def check(self, results):
        """Errors in the first round's output; later rounds must equal it byte for byte."""
        code, text = results[0]
        if code != 0:
            return [f"suite-all exited with {code}"]
        err = certify.suite_report(json.loads(text), self.seed, TRIALS)
        return [err] if err else []

    def selftest(self, results):
        """Each verifier report pushed past its paper bound must be rejected."""
        doc = json.loads(results[0][1])
        errors = []
        for lemma, bound in certify.PAPER_BOUNDS.items():
            bad = copy.deepcopy(doc)
            bad["reports"][lemma]["max_ratio"] = bound + 1e-3
            if certify.suite_report(bad, self.seed, TRIALS) is None:
                errors.append(f"check accepted {lemma} max ratio above its bound")
        return errors
