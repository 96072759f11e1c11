"""Output checks for benchmark invocations.

Every checker takes the parsed JSON report (and what else it needs) and
returns a list of problems; an empty list means the output is correct.

- ``exact``: reports must be byte-identical to digests recorded at the parent
  commit of the benchmark (``golden.json``), and carry the paper's named
  values (overlaps 1/3 and 9/80, crossings 6, 7, 24, 38 and 78).
- ``coupling``: reports are random, so no bytes are compared against a
  golden. They must validate against the report schema, repeat byte for byte
  under the same seed (checked by the runner across passes), satisfy the
  coupling inequality P(X_n != X'_n) <= (1-eps)^floor(n/n0) + 4 se on every
  lattice point of a whole-space coupling, and, for grid chains, have X_n
  counts following the exact law mu0 P^n and X'_n counts following pi.
- ``verify``: the certificate must pass within its quadrature tolerance.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

# label -> fields of "results" whose values the paper fixes
NAMED_VALUES = {
    "finite_pseudo_3x3": {"epsilon": "1/3", "threshold_steps": 24},
    "finite_minorization_3x3": {"epsilon": "9/80", "threshold_steps": 78},
    "finite_eigen_bound_3x3": {"threshold_steps": 6},
    "bound_t1_half": {"crossing": 7},
    "bound_t1_9_80": {"crossing": 78},
    "bound_t1_0_117": {"crossing": 38},
    "bound_t1_pointprocess": {"crossing": 38},
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_golden(label: str, stdout: bytes, files: dict[str, str], golden: dict) -> list[str]:
    """Stdout and every written report file must match the recorded digests."""
    expected = golden.get(label)
    if expected is None:
        return [f"{label}: no golden digest recorded"]
    problems = []
    if sha256(stdout) != expected["stdout"]:
        problems.append(f"{label}: stdout differs from the golden report")
    if files != expected["files"]:
        problems.append(f"{label}: output files differ from the golden reports")
    return problems


def check_named_values(label: str, report: dict) -> list[str]:
    results = report.get("results", {})
    return [
        f"{label}: results.{key} is {results.get(key)!r}, expected {want!r}"
        for key, want in NAMED_VALUES.get(label, {}).items()
        if results.get(key) != want
    ]


def check_schema(label: str, report: dict, validator) -> list[str]:
    return [f"{label}: schema: {err.message}" for err in validator.iter_errors(report)]


def check_coupling_bound(label: str, report: dict) -> list[str]:
    """Monotone non-coupling curve under the whole-space coupling inequality.

    Coupled pairs stay coupled, so P(X_n != X'_n) never rises along the
    lattice. The geometric bound (1-eps)^floor(n/n0) holds for couplings
    whose coin is flipped everywhere (mode "uniform"); a small-set coupling
    only flips it inside C, and its non-coupling probability is bounded by the
    two-term drift/overlap bound instead, so the geometric bound is not
    applied to it.
    """
    config, results = report["config"], report["results"]
    problems = []
    p_neq = results["p_neq"]
    if any(later > earlier for earlier, later in zip(p_neq, p_neq[1:])):
        problems.append(f"{label}: p_neq rises along the lattice")
    if results["mode"] != "uniform":
        return problems
    eps = float(Fraction(str(config["epsilon"])))
    n0 = results["n0"]
    for n, p, se in zip(results["lattice"], p_neq, results["p_neq_se"]):
        bound = (1.0 - eps) ** (n // n0)
        if p > bound + 4.0 * se:
            problems.append(
                f"{label}: p_neq {p:.6g} at n={n} exceeds (1-eps)^floor(n/n0) "
                f"= {bound:.6g} by more than 4 se ({se:.3g})"
            )
    return problems


def counts_match_law(counts, law) -> tuple[float, float]:
    """(plug-in TV of counts from law, the largest TV accepted).

    The limit is the multinomial noise floor, the estimator's mean when the
    law is right, plus four standard errors. The standard error uses the
    Efron-Stein bound Var <= 1/(2N): moving one of N samples changes the
    estimate by at most 1/N.
    """
    total = sum(counts)
    tv = 0.5 * sum(abs(c / total - p) for c, p in zip(counts, law))
    floor = 0.5 * math.sqrt(2.0 / math.pi) * sum(
        math.sqrt(p * (1.0 - p) / total) for p in law
    )
    return tv, floor + 4.0 * math.sqrt(1.0 / (2.0 * total))


def check_grid_laws(label: str, report: dict, laws, pi) -> list[str]:
    """X_n counts against mu0 P^n and X'_n counts against pi, per lattice point."""
    results = report["results"]
    problems = []
    for n, counts, counts_prime, law in zip(
        results["lattice"], results["marginal_counts"],
        results["marginal_counts_prime"], laws,
    ):
        for name, row, ref in (("X", counts, law), ("X'", counts_prime, pi)):
            tv, limit = counts_match_law(row, ref)
            if tv > limit:
                problems.append(
                    f"{label}: {name}_{n} counts are {tv:.4f} in TV from their "
                    f"exact law (limit {limit:.4f})"
                )
    return problems


def check_verify(label: str, report: dict) -> list[str]:
    results, config = report["results"], report["config"]
    problems = []
    if results.get("passed") is not True:
        problems.append(f"{label}: verification did not pass")
    if not results.get("quadrature_error_estimate", math.inf) <= config["tolerance"]:
        problems.append(
            f"{label}: quadrature error {results.get('quadrature_error_estimate')} "
            f"exceeds the tolerance {config['tolerance']}"
        )
    return problems
