"""Theta-nulls of hyperelliptic Jacobians against Thomae's formula, g = 1-5.

The curve y^2 = p(x) = prod_i (x - e_i) with the 2g + 2 real branch points
e_1 < ... < e_{2g+2}, here e_i = i - 1, has a period matrix that this module
computes by quadrature, without the evaluator.  Take the differentials
omega_k = x^(k-1) dx / y, k = 1..g, and just above the real axis the branch
y = i^#(e_j > x) sqrt|p(x)|.  Then

    a_i = 2 * integral over the cut [e_{2i-1}, e_{2i}],
    b_i = 2 * sum of the integrals over the gaps [e_{2i}, e_{2i+1}], ..., [e_{2g}, e_{2g+1}],

and tau = A^-1 B with A[k, i] = integral of omega_k over a_i, B likewise.
Each segment is one 200-node Gauss-Chebyshev rule: the weight
1/sqrt((x - a)(b - x)) holds the two branch points at its ends, and the rest
of 1/|y| is smooth there (Deconinck and van Hoeij, Physica D 152-153, 2001).
Putting the cuts into b_i as well shifts tau by an integer matrix that is not
symmetric from g = 2 on, which the symmetry test catches.

For such a curve exactly d+ - C(2g+1, g) even nulls vanish: 0, 0, 1, 10, 66
at g = 1-5 (Mumford, Tata Lectures on Theta II, IIIa.5-8).  Thomae's formula
(J. reine angew. Math. 71, 1870) gives the others up to one constant,
theta[eta_S](0)^4 = +-c Delta(S) Delta(S^c) with Delta(T) = prod_{i<j in T}
(e_i - e_j), over the splits of the branch points into two halves S, S^c.
Which characteristic belongs to which split depends on the homology basis,
but the multiset of |theta|^4 / max does not.

hyperelliptic_corpus.json holds the g = 2 and g = 3 period matrices, made
symmetric and written at 17 significant digits, as a run-suite corpus with
their vanishing counts; the test here regenerates them.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from theta4.basis_analysis import basis_report, split_nulls
from theta4.char2 import d_plus
from theta4.cli import main
from theta4.theta_eval import PeriodMatrix, theta_nulls

NODES = 200
GENERA = [1, 2, 3, 4, 5]
VANISHING = {1: 0, 2: 0, 3: 1, 4: 10, 5: 66}
CORPUS = Path(__file__).with_name("hyperelliptic_corpus.json")


def branch_points(g: int) -> np.ndarray:
    return np.arange(2.0 * g + 2)


def segment(e: np.ndarray, lo: int, g: int) -> np.ndarray:
    """Integrals of omega_1..omega_g over [e[lo], e[lo + 1]], just above the real axis."""
    a, b = e[lo], e[lo + 1]
    x = (a + b) / 2 + (b - a) / 2 * np.cos((2 * np.arange(1, NODES + 1) - 1) * np.pi / (2 * NODES))
    rest = np.prod(np.abs(x[:, None] - np.delete(e, [lo, lo + 1])), axis=1)
    # every branch point from e[lo + 1] on lies above the segment's interior
    branch = 1j ** (len(e) - lo - 1)
    return np.pi / NODES * (x[:, None] ** np.arange(g) / np.sqrt(rest)[:, None]).sum(0) / branch


def hyperelliptic_tau(g: int) -> np.ndarray:
    e = branch_points(g)
    a = np.array([2 * segment(e, 2 * i, g) for i in range(g)]).T
    gaps = [2 * segment(e, 2 * i + 1, g) for i in range(g)]
    b = np.array([sum(gaps[i:]) for i in range(g)]).T
    return np.linalg.solve(a, b)


@pytest.fixture(scope="module", params=GENERA, ids=[f"g{g}" for g in GENERA])
def curve(request):
    g = request.param
    tau = hyperelliptic_tau(g)
    return g, tau, theta_nulls(PeriodMatrix(tau))


def test_tau_symmetric(curve):
    g, tau, _ = curve
    assert np.max(np.abs(tau - tau.T)) <= 1e-12
    assert np.linalg.eigvalsh(tau.imag).min() > 0


def test_vanishing_count(curve):
    g, _, nulls = curve
    top, vanishing, _ = split_nulls(nulls)
    assert len(vanishing) == VANISHING[g] == d_plus(g) - math.comb(2 * g + 1, g)
    # far from the threshold on either side, so the count does not hang on it
    ratios = {c: abs(v) / top for c, v in nulls.items()}
    assert all(ratios[c] < 1e-12 for c in vanishing)
    assert all(r > 1e-3 for c, r in ratios.items() if c not in vanishing)


def test_thomae_multiset(curve):
    g, _, nulls = curve
    e = branch_points(g)
    _, vanishing, _ = split_nulls(nulls)
    fourth = np.sort([abs(v) ** 4 for c, v in nulls.items() if c not in vanishing])

    def delta(t):
        return math.prod(e[i] - e[j] for i, j in itertools.combinations(t, 2))

    # each split once: S holds the first branch point
    splits = [(0, *s) for s in itertools.combinations(range(1, 2 * g + 2), g)]
    thomae = np.sort([abs(delta(s) * delta([i for i in range(2 * g + 2) if i not in s])) for s in splits])
    assert len(fourth) == len(thomae)
    np.testing.assert_allclose(fourth / fourth[-1], thomae / thomae[-1], rtol=0, atol=1e-12)


def test_basis_report_corank_g3():
    report = basis_report(PeriodMatrix(hyperelliptic_tau(3)))
    assert report["consistent"] is True
    assert (report["ev_matrix_rank"], report["fourth_power_rank"], report["dim"]) == (35, 35, 36)
    assert len(report["vanishing_nulls"]) == 1


def test_corpus_regenerates_and_passes(capsys):
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert [entry["tau"]["g"] for entry in corpus["entries"]] == [2, 3]
    for entry in corpus["entries"]:
        g = entry["tau"]["g"]
        # the quadrature's tau is symmetric to within 7.0e-15 at g = 3
        tau = hyperelliptic_tau(g)
        literal = np.array(entry["tau"]["re"]) + 1j * np.array(entry["tau"]["im"])
        assert np.max(np.abs(literal - (tau + tau.T) / 2)) <= 1e-14
        assert entry["expect"]["vanishing_nulls"] == VANISHING[g]
    code = main(["run-suite", "--corpus", str(CORPUS)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [e["status"] for e in report["entries"]] == ["pass", "pass"]
