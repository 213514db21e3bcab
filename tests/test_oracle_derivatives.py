"""Jacobi's and Rosenhain's derivative formulas, an oracle for the odd characteristics.

The odd theta functions vanish at z = 0, but their gradients there do not.
In genus 1 (Jacobi), in this package's convention,

    theta[1,1]'(0) = -pi theta[0,0](0) theta[0,1](0) theta[1,0](0).

In genus 2 (Rosenhain), for two distinct odd characteristics o_i and o_k,
the Jacobian determinant D = det(grad theta[o_i](0), grad theta[o_k](0)) is

    D = s(o_i, o_k) pi^2 prod theta[e](0)

over the four even e = o_i + o_k + o_m, where o_m runs over the other four
odd characteristics (any three distinct odd characteristics of genus 2 sum
to an even one), and s(o_i, o_k) = +-1 depends on the pair alone (SIGNS).
See Rosenhain (1851), Igusa, "On Jacobi's derivative formula and its
generalizations" (Amer. J. Math. 102, 1980), and Grushevsky and Salvati
Manni, "Gradients of odd theta functions" (J. reine angew. Math. 573, 2004).

Nothing here shares a step with the order-four relations.  The gradients
come from theta_table alone: the trapezoid rule with NODES nodes for the
Cauchy integral on each circle z = RHO e^(i phi) e_j.  Theta is entire, so
the rule converges geometrically.  The GF(2) sums and parities are taken on
bit tuples here, not through the package's characteristic algebra.

Measured worst cases of |D / (s pi^2 prod theta[e](0)) - 1| and of the
genus-1 analogue, against BOUND: 5.5e-16 (genus 1, random_tau(1, 0..3) at
floors 1 and 0.5, and the Sp-moved tau of test_oracle_modular), 7.3e-15
(genus 2, random_tau(2, 0..5) at floors 1 and 0.5) and 3.5e-15 (genus 2,
Sp-moved tau, smallest eigenvalue of Im tau 0.07 and 0.12).  Replacing one
of the four even characteristics by another even one gives at least 0.92.

At a block product of genus-1 tau (PRODUCTS, genus 2 and 3) an odd theta[a]
is one odd genus-1 factor times even nulls, so Jacobi's formula on the
blocks gives its whole gradient at 0 (product_misfit).  Measured worst
misfit at the scale of the largest component: 5.8e-16; reading one even null
at the wrong characteristic gives at least 0.25.  Products with genus-2
blocks (Rosenhain on a block) are not checked here.
"""

import itertools

import numpy as np
import pytest

from test_oracle_modular import WORDS, moved, word
from theta4.char2 import Characteristic
from theta4.theta_eval import PeriodMatrix, TruncationPolicy, block_diagonal_tau, random_tau, theta_table

NODES, RHO = 32, 0.1
POLICY = TruncationPolicy(target_eps=1e-14)
BOUND = 1e-12
RANDOM = [(seed, floor) for floor in (1.0, 0.5) for seed in range(6)]  # random_tau(g, seed, floor)
PRODUCTS = [(0, 1), (2, 3), (1, 1), (0, 1, 2), (3, 2, 1), (4, 5, 0)]  # the seeds of random_tau(1, s) blocks

# s(o_i, o_k) of Rosenhain's formula, by the pair's "a1,a2" specs
SIGNS = {
    ("01,01", "01,11"): -1, ("01,01", "10,10"): -1, ("01,01", "10,11"): -1,
    ("01,01", "11,01"): 1, ("01,01", "11,10"): -1, ("01,11", "10,10"): -1,
    ("01,11", "10,11"): -1, ("01,11", "11,01"): 1, ("01,11", "11,10"): -1,
    ("10,10", "10,11"): 1, ("10,10", "11,01"): 1, ("10,10", "11,10"): -1,
    ("10,11", "11,01"): 1, ("10,11", "11,10"): -1, ("11,01", "11,10"): -1,
}


def pairs(g: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every characteristic of genus g as a pair of bit tuples, in canonical order."""
    halves = list(itertools.product((0, 1), repeat=g))
    return [(a1, a2) for a1 in halves for a2 in halves]


def is_odd(c) -> bool:
    return sum(x & y for x, y in zip(*c)) % 2 == 1


def add(*chars):
    """The GF(2) sum of characteristics given as bit-tuple pairs."""
    return tuple(tuple(sum(bits) % 2 for bits in zip(*half)) for half in zip(*chars))


def spec(c) -> str:
    return ",".join("".join(map(str, half)) for half in c)


def table(chars, points, tau: PeriodMatrix) -> np.ndarray:
    return theta_table([Characteristic(*c) for c in chars], points, tau, POLICY)


def gradients(chars, tau: PeriodMatrix) -> np.ndarray:
    """(chars x g) gradients at z = 0 by the trapezoid rule for the Cauchy integral."""
    g = tau.g
    w = np.exp(2j * np.pi * np.arange(NODES) / NODES)
    points = np.concatenate([np.outer(RHO * w, np.eye(g)[j]) for j in range(g)])
    values = table(chars, points, tau).reshape(len(chars), g, NODES)
    return (values * w.conj()).sum(axis=2) / (NODES * RHO)


def nulls(tau: PeriodMatrix) -> dict:
    evens = [c for c in pairs(tau.g) if not is_odd(c)]
    return dict(zip(evens, table(evens, [np.zeros(tau.g)], tau)[:, 0]))


def jacobi_ratio(tau: PeriodMatrix) -> complex:
    """theta[1,1]'(0) / (-pi theta[0,0](0) theta[0,1](0) theta[1,0](0)), which is 1."""
    grad = gradients([((1,), (1,))], tau)[0, 0]
    return grad / (-np.pi * np.prod(list(nulls(tau).values())))


def rosenhain_ratios(tau: PeriodMatrix, wrong_even: bool = False) -> dict:
    """D / (pi^2 prod theta[e](0)) for each pair of odd characteristics, by specs.

    wrong_even replaces the first of the four even characteristics by the
    first even one outside them."""
    odds = [c for c in pairs(2) if is_odd(c)]
    grad = gradients(odds, tau)
    null = nulls(tau)
    ratios = {}
    for i, k in itertools.combinations(range(len(odds)), 2):
        evens = [add(odds[i], odds[k], odds[m]) for m in range(len(odds)) if m not in (i, k)]
        if wrong_even:
            evens[0] = next(e for e in null if e not in evens)
        det = np.linalg.det(grad[[i, k]])
        ratios[spec(odds[i]), spec(odds[k])] = det / (np.pi**2 * np.prod([null[e] for e in evens]))
    return ratios


def rosenhain_misfit(tau: PeriodMatrix, wrong_even: bool = False) -> float:
    return max(abs(SIGNS[p] * r - 1) for p, r in rosenhain_ratios(tau, wrong_even).items())


def product_misfit(seeds, wrong_even: bool = False) -> float:
    """Worst distance of the odd gradients at 0 of the block product of the
    random_tau(1, s), s in seeds, from Jacobi's formula on the blocks, at the
    scale of the largest expected component.

    theta[a] is the product of its blocks' theta[a_j]: with one odd factor,
    at block j, its gradient is Jacobi's theta[1,1]'(0) of block j times the
    other blocks' even nulls, on axis j alone; with three odd factors it is 0.
    wrong_even reads the first other block's null at the next even
    characteristic of that block instead."""
    blocks = [random_tau(1, s) for s in seeds]
    block_nulls = [nulls(b) for b in blocks]
    odds = [c for c in pairs(len(blocks)) if is_odd(c)]
    expected = np.zeros((len(odds), len(blocks)), dtype=complex)
    for row, (a1, a2) in zip(expected, odds):
        factors = [((x,), (y,)) for x, y in zip(a1, a2)]
        odd = [j for j, f in enumerate(factors) if is_odd(f)]
        if len(odd) != 1:
            continue
        others = [(b, f) for b, f in enumerate(factors) if b != odd[0]]
        if wrong_even:
            evens = list(block_nulls[others[0][0]])
            others[0] = (others[0][0], evens[(evens.index(others[0][1]) + 1) % len(evens)])
        jacobi = -np.pi * np.prod(list(block_nulls[odd[0]].values()))
        row[odd[0]] = jacobi * np.prod([block_nulls[b][f] for b, f in others])
    got = gradients(odds, block_diagonal_tau(blocks))
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


def moved_tau(g: int, seed: int) -> PeriodMatrix:
    """The Sp(2g, Z)-moved tau of test_oracle_modular for this word."""
    return moved(word(g, seed), random_tau(g, seed=g))[0]


def test_rosenhain_triples_are_even_and_distinct():
    odds = [c for c in pairs(2) if is_odd(c)]
    assert len(odds) == 6 and [spec(c) for c in odds] == sorted({p for pair in SIGNS for p in pair})
    for i, k in itertools.combinations(range(6), 2):
        evens = {add(odds[i], odds[k], odds[m]) for m in range(6) if m not in (i, k)}
        assert len(evens) == 4 and not any(map(is_odd, evens))


@pytest.mark.parametrize("seed, floor", [(s, f) for s, f in RANDOM if s < 4])
def test_jacobi_random(seed, floor):
    assert abs(jacobi_ratio(random_tau(1, seed, floor)) - 1) < BOUND


@pytest.mark.parametrize("seed", [seed for g, seed in WORDS if g == 1])
def test_jacobi_moved(seed):
    assert abs(jacobi_ratio(moved_tau(1, seed)) - 1) < BOUND


@pytest.mark.parametrize("seed, floor", RANDOM)
def test_rosenhain_random(seed, floor):
    assert rosenhain_misfit(random_tau(2, seed, floor)) < BOUND


@pytest.mark.parametrize("seed", [seed for g, seed in WORDS if g == 2])
def test_rosenhain_moved(seed):
    tau = moved_tau(2, seed)
    assert tau.lambda_min < 0.2  # far from random_tau's floors
    assert rosenhain_misfit(tau) < BOUND


def test_sign_table_is_the_sign_of_each_ratio():
    # the ratios are +-1 up to BOUND, so their signs are read off without doubt
    ratios = rosenhain_ratios(random_tau(2, 0))
    assert {p: int(np.sign(r.real)) for p, r in ratios.items()} == SIGNS


@pytest.mark.parametrize("seed", range(6))
def test_wrong_even_characteristic_fails(seed):
    assert rosenhain_misfit(random_tau(2, seed), wrong_even=True) > 0.5


@pytest.mark.parametrize("seeds", PRODUCTS)
def test_jacobi_block_product(seeds):
    assert product_misfit(seeds) < BOUND


@pytest.mark.parametrize("seeds", PRODUCTS)
def test_jacobi_block_product_wrong_even_fails(seeds):
    assert product_misfit(seeds, wrong_even=True) > 0.1
