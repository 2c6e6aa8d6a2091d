"""Benchmark workloads: the CLI invocations each one makes, and their checks.

A workload is a sequence of rounds.  Every round holds the same mix of
cases (one per genus or split, or one per variable count and command),
so a run that stops after whole rounds keeps the stated mix.  Round r
of a workload draws its inputs from a generator seeded by
(workload, benchmark seed, r), so a seed fixes every input.  The
program only sees the generated inputs: a `--seed` for the verifiers,
JSON cubics for the form commands.

Each case carries a check of its report.  A check returns the list of
problems it found; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import comb, factorial
from pathlib import Path
from typing import Callable, Optional

TRIGONAL_GENERA = (5, 6, 7, 8)
TETRAGONAL_MIX = ((6, None), (7, (1, 1)), (7, (0, 2)), (8, None))
FORM_NVARS = (3, 4, 5, 6, 7, 8)
FORM_COEFFICIENT_BITS = 10
FERMAT_MATRIX_BOUND = 3
FERMAT_TOLERANCE = 1e-10   # the CLI's default --tolerance
# Round time in seconds on the 2-core Intel Xeon the benchmark was written
# on, where it drifted by about a third; a run makes
# round(seconds / (PASSES * this)) rounds, so this fixes how many cases
# every run measures.
ROUND_SECONDS = {"trigonal": 4.5, "tetragonal": 7.5, "forms": 3.6}
# How often an end-to-end run repeats each case; a case's time is the
# median of its runs.  The cost of a tetragonal g = 8 case varies with
# its inputs by a factor of two (2.6 to 7.4 s), against 6% between
# trigonal g = 8 cases, so tetragonal measures more distinct cases, each
# once.  Forms cases take 5 to 300 ms, and a burst of slowness shorter
# than a second moves them most, so they run five times.
PASSES = {"trigonal": 3, "tetragonal": 1, "forms": 5}


@dataclass
class Case:
    """One CLI invocation with its check.

    `argv` omits `--out`; the runner appends it.  `prepare`, when set,
    writes input files that depend on earlier cases of the round and
    runs before the timed call.
    """

    id: str
    group: str
    argv: list
    check: Callable[[dict], list]
    props: dict = field(default_factory=dict)
    prepare: Optional[Callable[[], None]] = None
    out_path: Optional[Path] = None


def _round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _case_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _problem(condition: bool, message: str) -> list:
    return [] if condition else [message]


# ----------------------------------------------------------------------
# verifiers
# ----------------------------------------------------------------------

def _check_verify_a(g: int):
    def check(report: dict) -> list:
        problems = _problem(report.get("passed") is True, "report not passed")
        trials = report.get("trials") or [{}]
        trial = trials[0]
        problems += _problem(len(trials) == 1, "expected one trial")
        problems += _problem(trial.get("hilbert") == [1, g - 2, g - 2, 1],
                             f"hilbert {trial.get('hilbert')}")
        problems += _problem(trial.get("detected_rank") == g - 2,
                             f"detected_rank {trial.get('detected_rank')}")
        problems += _problem(trial.get("agreement") is True, "no agreement")
        return problems
    return check


def tetragonal_bound(g: int) -> int:
    return -(-(3 * g - 7) // 2)


def _check_verify_b(g: int):
    bound = tetragonal_bound(g)

    def check(report: dict) -> list:
        problems = _problem(report.get("passed") is True, "report not passed")
        trials = report.get("trials") or [{}]
        trial = trials[0]
        problems += _problem(len(trials) == 1, "expected one trial")
        problems += _problem(trial.get("hilbert") == [1, g - 2, g - 2, 1],
                             f"hilbert {trial.get('hilbert')}")
        length = trial.get("length")
        problems += _problem(isinstance(length, int) and length <= bound,
                             f"length {length} exceeds bound {bound}")
        problems += _problem(trial.get("bound") == bound,
                             f"reported bound {trial.get('bound')} != {bound}")
        return problems
    return check


def _trigonal_round(seed: int, index: int, workdir: Path) -> list:
    rng = _round_rng("trigonal", seed, index)
    cases = []
    for g in TRIGONAL_GENERA:
        case_seed = _case_seed(rng)
        cases.append(Case(
            id=f"r{index}.g{g}", group=f"g={g}",
            argv=["verify-a", "--g", str(g), "--trials", "1",
                  "--seed", str(case_seed)],
            check=_check_verify_a(g),
            props={"g": g, "seed": case_seed}))
    return cases


def _tetragonal_round(seed: int, index: int, workdir: Path) -> list:
    rng = _round_rng("tetragonal", seed, index)
    cases = []
    for g, split in TETRAGONAL_MIX:
        case_seed = _case_seed(rng)
        argv = ["verify-b", "--g", str(g), "--trials", "1",
                "--seed", str(case_seed)]
        if split is None:
            split = ((g - 5) // 2, g - 5 - (g - 5) // 2)
        else:
            argv += ["--split", f"{split[0]},{split[1]}"]
        cases.append(Case(
            id=f"r{index}.g{g}s{split[0]}{split[1]}",
            group=f"g={g} split={split[0]},{split[1]}",
            argv=argv, check=_check_verify_b(g),
            props={"g": g, "split": list(split), "seed": case_seed}))
    return cases


# ----------------------------------------------------------------------
# forms: exact cubics built here, in the benchmark's own arithmetic
# ----------------------------------------------------------------------

def monomials(n: int, d: int) -> list:
    """Exponent tuples of degree d in n variables."""
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1) for rest in monomials(n - 1, d - e)]


def random_cubic(n: int, rng: random.Random) -> dict:
    bound = 2 ** FORM_COEFFICIENT_BITS
    while True:
        terms = {exp: Fraction(rng.randint(-bound, bound)) for exp in monomials(n, 3)}
        terms = {e: c for e, c in terms.items() if c}
        if terms:
            return terms


def _determinant(rows: list) -> Fraction:
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] / mat[col][col]
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return det


def fermat_cubic(n: int, rng: random.Random) -> dict:
    """x_1^3 + ... + x_n^3 under a random invertible integer substitution."""
    bound = FERMAT_MATRIX_BOUND
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if _determinant(rows):
            break
    terms: dict = {}
    for exp in monomials(n, 3):
        multinomial = factorial(3)
        for e in exp:
            multinomial //= factorial(e)
        total = 0
        for row in rows:
            value = multinomial
            for a, e in zip(row, exp):
                value *= a ** e
            total += value
        if total:
            terms[exp] = Fraction(total)
    return terms


def poly_to_json(n: int, terms: dict) -> dict:
    return {"nvars": n, "degree": 3,
            "terms": [{"exp": list(e), "coef": str(c)}
                      for e, c in sorted(terms.items(), reverse=True)]}


def poly_from_json(data: dict) -> dict:
    return {tuple(t["exp"]): Fraction(t["coef"]) for t in data["terms"]}


def _annihilates(op: dict, form: dict) -> bool:
    """Whether the dual operator kills the form (contraction by differentiation)."""
    image: dict = {}
    for a, ca in op.items():
        for b, cb in form.items():
            factor = 1
            for bi, ai in zip(b, a):
                if ai > bi:
                    factor = 0
                    break
                for j in range(ai):
                    factor *= bi - j
            if factor:
                key = tuple(bi - ai for bi, ai in zip(b, a))
                image[key] = image.get(key, 0) + ca * cb * factor
    return not any(image.values())


def _check_apolar(n: int, k: int, form: dict):
    expected_dim = comb(n + 1, 2) - n if k == 2 else comb(n + 2, 3) - 1

    def check(report: dict) -> list:
        problems = _problem(report.get("hilbert") == [1, n, n, 1],
                            f"hilbert {report.get('hilbert')}")
        piece = report.get("piece") or {}
        basis = piece.get("basis") or []
        problems += _problem(piece.get("dim") == expected_dim == len(basis),
                             f"piece dim {piece.get('dim')} != {expected_dim}")
        if not all(_annihilates(poly_from_json(p), form) for p in basis):
            problems.append("a piece element does not annihilate the form")
        return problems
    return check


def _check_inverse(form: dict):
    lead = form[max(form)]
    expected = {e: c / lead for e, c in form.items()}

    def check(report: dict) -> list:
        got = poly_from_json(report.get("form") or {"terms": []})
        return _problem(got == expected, "round trip differs from the normalized input")
    return check


def _check_fermat(n: int, is_fermat: bool):
    def check(report: dict) -> list:
        if not is_fermat:
            return _problem(report.get("fermat") is False,
                            "a random cubic was reported as Fermat")
        problems = _problem(report.get("fermat") is True,
                            f"not detected: {report.get('reason')}")
        dec = report.get("decomposition") or {}
        problems += _problem(dec.get("rank") == n, f"rank {dec.get('rank')} != {n}")
        try:
            residual = float(dec.get("residual"))
        except (TypeError, ValueError):
            residual = float("inf")
        problems += _problem(residual <= FERMAT_TOLERANCE, f"residual {dec.get('residual')}")
        return problems
    return check


def _write_pieces(apolar_cases: list, path: Path) -> None:
    """Input of `inverse`: the pieces the round's `apolar` cases returned."""
    reports = [json.loads(c.out_path.read_text()) for c in apolar_cases]
    path.write_text(json.dumps({"d": 3, "pieces": [r["piece"] for r in reports]}))


def _forms_round(seed: int, index: int, workdir: Path) -> list:
    rng = _round_rng("forms", seed, index)
    cases = []
    for n in FORM_NVARS:
        for kind in ("random", "fermat"):
            terms = fermat_cubic(n, rng) if kind == "fermat" else random_cubic(n, rng)
            stem = f"r{index}.n{n}{kind[0]}"
            form_path = workdir / f"{stem}.form.json"
            form_path.write_text(json.dumps(poly_to_json(n, terms)))
            pieces_path = workdir / f"{stem}.pieces.json"
            props = {"n": n, "kind": kind,
                     "coef_bits": max(abs(c.numerator).bit_length() for c in terms.values())}
            group = f"n={n} {kind}"
            apolar = [Case(id=f"{stem}.apolar{k}", group=f"{group} apolar",
                           argv=["apolar", "--in", str(form_path), "--k", str(k)],
                           check=_check_apolar(n, k, terms), props=dict(props))
                      for k in (2, 3)]
            cases += apolar
            cases.append(Case(id=f"{stem}.inverse", group=f"{group} inverse",
                              argv=["inverse", "--in", str(pieces_path)],
                              check=_check_inverse(terms), props=dict(props),
                              prepare=partial(_write_pieces, apolar, pieces_path)))
            cases.append(Case(id=f"{stem}.fermat", group=f"{group} fermat",
                              argv=["fermat", "--in", str(form_path),
                                    "--seed", str(_case_seed(rng))],
                              check=_check_fermat(n, kind == "fermat"),
                              props=dict(props)))
    return cases


ROUNDS = {
    "trigonal": _trigonal_round,
    "tetragonal": _tetragonal_round,
    "forms": _forms_round,
}
WORKLOADS = tuple(ROUNDS)


def make_round(workload: str, seed: int, index: int, workdir: Path) -> list:
    """The cases of round `index`, with their output paths under `workdir`."""
    cases = ROUNDS[workload](seed, index, workdir)
    for case in cases:
        case.out_path = workdir / f"{case.id}.out.json"
    return cases
