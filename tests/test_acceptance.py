"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see every line.

Criterion 5b recovers 1/(1+z) at z = 1/2 from 60 exact integer samples to
within 1e-6 of 2/3.  The 60-term Gregory-Newton partial sum cannot do this:
its terms decay like k^{-5/2} with a single sign, so it misses by
~0.19 * 60^{-3/2} = 4.07e-4.  The test pins that partial sum exactly (it is
still what eval_series returns as .value) and checks the criterion on the
Levin-extrapolated value from extrapolate_series, at the same 1e-6.
"""

import math
import random
import time
from fractions import Fraction

from cmtk.bernstein import (
    BernsteinTriplet,
    check_bf_via_theta,
    check_selfdecomposable,
    eval_bernstein,
    extract_triplet,
    triplet_handle,
)
from cmtk.builtins import get_handle, get_webster_g
from cmtk.classify import atom_at_zero, certify
from cmtk.funcops import FunctionHandle, bf_limit_decompose, lattice_check
from cmtk.moments import evaluate, invert_cm
from cmtk.newton import eval_series, extrapolate_series, series_from_samples
from cmtk.seqcore import (
    Sequence,
    binomial_transform,
    closed_form_entry,
    difference_table,
)
from cmtk.webster import WebsterProblem, WebsterSolution, verify_functional_equation


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"runtime {elapsed:.2f}s over {self.budget}s"


def report(num, name, ok):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_paper_example():
    sw = Stopwatch(1.0)
    a = Sequence.from_values([Fraction(1, k + 1) for k in range(31)])
    table = difference_table(a, 30)
    exact_ok = all(table.rows[n][0] == Fraction(1, n + 1) for n in range(31))

    eps = Fraction(1, 20)
    perturbed = Sequence.from_values(
        [Fraction(1) - eps] + [Fraction(1, k + 1) for k in range(1, 31)]
    )
    cert = certify(perturbed, "cm", 30)
    # first n with 1/(n+1) < eps is n = 20
    fail_ok = cert.failed and cert.witness[:2] == (20, 0)
    sw.check()
    report(1, "harmonic difference column and eps-perturbation", exact_ok and fail_ok)


def test_criterion_2_transform_algebra():
    sw = Stopwatch(5.0)
    rng = random.Random(77)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 20)
        vals = [
            Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for _ in range(n)
        ]
        a = Sequence.from_values(vals)
        ok &= binomial_transform(binomial_transform(a)).values == a.values
        table = difference_table(a, a.last_index)
        for row_n in range(len(vals)):
            for k in range(len(vals) - row_n):
                ok &= table.rows[row_n][k] == closed_form_entry(a, row_n, k)
        if not ok:
            break
    sw.check()
    report(2, "involution and closed-form/recurrence agreement", ok)


def test_criterion_3_minimality():
    sw = Stopwatch(1.0)
    point = Sequence.from_values([Fraction(1)] + [Fraction(0)] * 30)
    est1 = atom_at_zero(point, "cm", 30)
    ok = est1.estimate == 1

    geom = Sequence.from_values([Fraction(1, 2**k) for k in range(31)])
    est2 = atom_at_zero(geom, "cm", 30)
    ok &= est2.estimate <= 1e-8
    ok &= est2.monotone_ok
    ok &= all(b <= a for a, b in zip(est2.trail, est2.trail[1:]))
    sw.check()
    report(3, "atom-at-zero estimates", ok)


def test_criterion_4_moment_inversion():
    sw = Stopwatch(10.0)
    geom = Sequence.from_values([Fraction(1, 2**k) for k in range(21)])
    measure, fit = invert_cm(geom, grid_m=200)
    cell = [w for u, w in measure.atoms if abs(u - 0.5) <= 1.0 / 200 + 1e-15]
    ok = sum(cell) >= 0.99 * measure.total_mass and fit.residual <= 1e-8

    harmonic = Sequence.from_values([Fraction(1, k + 1) for k in range(21)])
    measure2, _ = invert_cm(harmonic, grid_m=200)
    ok &= abs(evaluate(measure2, 0.5) - 1.0 / 1.5) <= 1e-3
    ok &= abs(evaluate(measure2, 3.0) - 0.25) <= 1e-3
    sw.check()
    report(4, "moment inversion (delta and Lebesgue)", ok)


def test_criterion_5a_newton_geometric():
    sw = Stopwatch(2.0)
    samples = Sequence.from_values([Fraction(1, 2**k) for k in range(60)])
    series = series_from_samples(samples)
    value = float(eval_series(series, Fraction(1, 2)).value)
    ok = abs(value - 2.0**-0.5) <= 1e-9
    # interpolation nodes are exact in exact mode
    ok &= eval_series(series, 7).value == Fraction(1, 2**7)
    sw.check()
    report("5a", "Gregory-Newton for 2^-z", ok)


def test_criterion_5b_newton_reciprocal_stated_tolerance():
    # The partial sum misses by 4.07e-4 (see module docstring); the criterion
    # is met by the extrapolated value, with .value pinned as the partial sum.
    sw = Stopwatch(2.0)
    z = Fraction(1, 2)
    samples = Sequence.from_values([Fraction(1, k + 1) for k in range(60)])
    series = series_from_samples(samples)
    partial = eval_series(series, z).value
    accelerated = extrapolate_series(series, z)

    # closed form, independent of the difference table:
    # c_k = Delta^k f(0) / k! = (-1)^k / (k+1)!
    expected_partial = Fraction(0)
    falling = Fraction(1)
    for k in range(60):
        expected_partial += Fraction((-1) ** k, math.factorial(k + 1)) * falling
        falling *= z - k
    partial_err = float(abs(partial - Fraction(2, 3)))
    err = float(abs(accelerated.value - Fraction(2, 3)))
    ok = partial == expected_partial and partial_err > 1e-6
    ok &= err <= 1e-6 and accelerated.error_estimate <= 1e-6
    sw.check()
    report(
        "5b",
        f"Gregory-Newton for 1/(1+z) (partial sum error {partial_err:.2e}, "
        f"extrapolated error {err:.2e})",
        ok,
    )


def test_criterion_6_webster_gamma():
    sw = Stopwatch(30.0)
    target = math.sqrt(math.pi)
    errors = {}
    solutions = {}
    for n in (10**3, 10**4, 10**5):
        sol = WebsterSolution(WebsterProblem(get_webster_g("identity"), n_terms=n))
        solutions[n] = sol
        errors[n] = abs(sol(0.5) - target)
    ok = errors[10**4] <= 1e-4 and errors[10**5] <= 1e-5
    ok &= errors[10**3] > errors[10**4] > errors[10**5]

    grid = [0.1 + (4.9 - 0.1) * i / 24 for i in range(25)]
    residual = verify_functional_equation(
        solutions[10**5], get_webster_g("identity"), grid
    )
    ok &= residual <= 1e-6
    sw.check()
    report(6, "Webster/Gamma accuracy and functional equation", ok)


def test_criterion_7_bernstein_roundtrip():
    sw = Stopwatch(60.0)
    rng = random.Random(20250811)
    ok = True
    for _ in range(50):
        n_atoms = rng.randint(0, 8)
        q = Fraction(rng.randint(0, 12), rng.randint(1, 6))
        d = (
            Fraction(rng.randint(0, 8), rng.randint(1, 4))
            if rng.random() < 0.7
            else Fraction(0)
        )
        xs = {Fraction(rng.randint(10, 300), 100) for _ in range(n_atoms)}
        atoms = tuple(
            sorted((float(x), float(Fraction(rng.randint(1, 40), 20))) for x in xs)
        )
        truth = BernsteinTriplet(float(q), float(d), atoms)
        got, rep = extract_triplet(triplet_handle(truth), tol=1e-4)
        ok &= got.q == eval_bernstein(truth, 0.0)
        ok &= abs(got.d - truth.d) <= 1e-3
        sup = max(
            abs(eval_bernstein(got, k) - eval_bernstein(truth, k))
            for k in range(21)
        )
        ok &= sup <= 10.0 * rep.fit.residual
        if not ok:
            break
    sw.check()
    report(7, "triplet sample/extract/evaluate roundtrip", ok)


def test_criterion_8_theta_characterization():
    sw = Stopwatch(10.0)
    ok = True
    for h in (
        get_handle("linear"),
        get_handle("one-minus-exp"),
        get_handle("bf-ratio"),
        get_handle("sqrt-triplet"),
    ):
        ok &= check_bf_via_theta(h).overall_pass

    rep = check_bf_via_theta(get_handle("square"), cs=(1.0,))
    entry = rep.entries[0]
    ok &= entry.certificate.failed and entry.certificate.witness[0] == 1

    tele = bf_limit_decompose(
        get_handle("one-minus-exp"), c=1.0, n_max=50
    ).telescoping_residual
    ok &= tele <= 1e-13
    sw.check()
    report(8, "theta membership and telescoping identity", ok)


def test_criterion_9_self_decomposability():
    sw = Stopwatch(5.0)
    sd_log = check_selfdecomposable(get_handle("log1p"), depth=30, tol=0.05)
    ok = sd_log.sd_pass
    b = sd_log.derivative_test
    ok &= b.certificate.passed and b.minimality.minimal

    sd_bad = check_selfdecomposable(get_handle("one-minus-exp"), depth=30)
    cert = sd_bad.derivative_test.certificate
    witness_value = math.exp(-1.0) - 2.0 * math.exp(-2.0)  # ~ +0.0972 in D[1][1]
    ok &= sd_bad.verdict == "fail"
    ok &= cert.failed and cert.witness[:2] == (1, 1)
    ok &= abs(cert.witness[2] - witness_value) <= 1e-12

    sd_drift = check_selfdecomposable(get_handle("linear"), depth=30)
    ok &= sd_drift.sd_pass
    sw.check()
    report(9, "self-decomposability verdicts", ok)


def test_criterion_10_lattice_characterizations():
    sw = Stopwatch(5.0)
    rep = lattice_check(
        FunctionHandle(lambda x: math.exp(-x), "exp-decay"),
        "cm",
        [1.0, 0.5, 1.0 / 3.0],
        depth=18,
        tol=1e-3,
    )
    ok = rep.overall_pass and rep.all_minimal

    sin_rep = lattice_check(get_handle("abs-sin-pi"), "cm", [1.0, 0.5], depth=10)
    by_alpha = {e.alpha: e for e in sin_rep.entries}
    ok &= by_alpha[1.0].certificate.passed
    ok &= by_alpha[0.5].certificate.failed
    ok &= not sin_rep.overall_pass
    sw.check()
    report(10, "multi-lattice requirement", ok)
