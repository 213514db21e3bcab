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
at the wrong characteristic gives at least 0.25.

At a block product with genus-2 blocks (GENUS2_PRODUCTS: 2x1, 1x2, 2x2,
2x1x1 and 1x2x1) a gradient is no closed form, but the Jacobian
determinant D of g odd characteristics is (factored_det): the blocks'
Rosenhain and Jacobi determinants times even nulls of the blocks, up to
the sign of sorting the rows by block.  D is 0 when a row has three odd
factors, when a block holds more rows than its genus, or when a genus-2
block holds one odd factor twice; at the same tau the even nulls with two
odd block factors vanish (6, 36 and 46 of them at genus 3, 2x2 and
2x1x1) and no other does.  Measured over every odd triple at genus 3 and
600 drawn 4-tuples at genus 4: worst |D / factored - 1| 6.3e-15 over the
82 to 1,350 tuples left nonzero, worst vanishing |D| 1.9e-16 at the scale
of the largest gradient to the g; reading one even null of each genus-2
block's Rosenhain product at the wrong characteristic (rosenhain_evens)
gives at least 1.12.
"""

import functools
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
GENUS2_PRODUCTS = [(2, 1), (1, 2), (2, 2), (2, 1, 1), (1, 2, 1)]  # block genera; block j is random_tau(g_j, j)
SAMPLED = 600  # odd 4-tuples drawn at genus 4, of 8,214,570 sets

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


def rosenhain_evens(p, q, null: dict, wrong_even: bool = False) -> list:
    """The four even p + q + o, o over the other odd characteristics of genus 2.

    wrong_even replaces the first of them by the first even one of null
    outside them."""
    evens = [add(p, q, o) for o in pairs(2) if is_odd(o) and o not in (p, q)]
    if wrong_even:
        evens[0] = next(e for e in null if e not in evens)
    return evens


def rosenhain_ratios(tau: PeriodMatrix, wrong_even: bool = False) -> dict:
    """D / (pi^2 prod theta[e](0)) for each pair of odd characteristics, by
    specs; wrong_even as in rosenhain_evens."""
    odds = [c for c in pairs(2) if is_odd(c)]
    grad = gradients(odds, tau)
    null = nulls(tau)
    ratios = {}
    for i, k in itertools.combinations(range(len(odds)), 2):
        evens = rosenhain_evens(odds[i], odds[k], null, wrong_even)
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


def block_factors(c, genera) -> list:
    """The block factors of a characteristic of a block product, by block genera."""
    ends = list(itertools.accumulate(genera, initial=0))
    return [tuple(half[lo:hi] for half in c) for lo, hi in zip(ends, ends[1:])]


def permutation_sign(order) -> int:
    return (-1) ** sum(x > y for i, x in enumerate(order) for y in order[i + 1 :])


def block_det(null: dict, factors, wrong_even: bool) -> complex:
    """det of one block's gradients at 0 of its odd factors, in order: Jacobi's
    formula for a genus-1 block, Rosenhain's for a genus-2 block (0 when the
    two factors are equal); wrong_even as in rosenhain_evens."""
    if len(factors) == 1:
        return -np.pi * np.prod(list(null.values()))
    p, q = factors
    if p == q:
        return 0
    sign = SIGNS[spec(p), spec(q)] if p < q else -SIGNS[spec(q), spec(p)]
    return sign * np.pi**2 * np.prod([null[e] for e in rosenhain_evens(p, q, null, wrong_even)])


def factored_det(rows, genera, block_nulls, wrong_even: bool = False) -> complex:
    """D of the odd characteristics rows at a block product, from its blocks alone.

    A row with one odd factor, at block j, has its gradient on block j's axes:
    the factor's block gradient times the other blocks' even nulls.  A row with
    three odd factors has gradient 0, and so has D when a block holds more rows
    than its genus.  Otherwise sorting the rows by block makes the matrix block
    diagonal, so D is the sort's sign times each block's det (block_det) times
    the other blocks' nulls of its rows."""
    factors = [block_factors(r, genera) for r in rows]
    owners = []
    for f in factors:
        odd = [j for j, fj in enumerate(f) if is_odd(fj)]
        if len(odd) != 1:
            return 0
        owners.append(odd[0])
    if [owners.count(j) for j in range(len(genera))] != list(genera):
        return 0
    order = sorted(range(len(rows)), key=owners.__getitem__)
    value = permutation_sign(order)
    for j, null in enumerate(block_nulls):
        mine = [r for r in order if owners[r] == j]
        value *= block_det(null, [factors[r][j] for r in mine], wrong_even)
        value *= np.prod([block_nulls[i][factors[r][i]] for r in mine for i in range(len(genera)) if i != j])
    return value


@functools.cache
def rosenhain_product(genera, wrong_even: bool = False) -> dict:
    """The block product of random_tau(g_j, j) over the block genera, against
    factored_det on its odd g-tuples: every tuple at genus 3, SAMPLED seeded
    draws in random row order at genus 4.  Returns the worst |D / factored - 1|
    over the tuples factored_det leaves nonzero, the worst |D| at the scale of
    the largest gradient to the g over those it sends to 0, how many of each,
    and the even nulls of the product that vanish (below BOUND of the
    largest) and that have two odd block factors."""
    blocks = [random_tau(gj, j) for j, gj in enumerate(genera)]
    tau = block_diagonal_tau(blocks)
    odds = [c for c in pairs(tau.g) if is_odd(c)]
    grad = dict(zip(odds, gradients(odds, tau)))
    if tau.g == 3:
        tuples = list(itertools.combinations(odds, 3))
    else:
        rng = np.random.default_rng(0)
        tuples = [[odds[i] for i in rng.choice(len(odds), tau.g, replace=False)] for _ in range(SAMPLED)]
    block_nulls = [nulls(b) for b in blocks]
    scale = max(np.linalg.norm(v) for v in grad.values()) ** tau.g
    fits, zeros = [], []
    for rows in tuples:
        expected = factored_det(rows, genera, block_nulls, wrong_even)
        got = np.linalg.det(np.array([grad[r] for r in rows]))
        if expected == 0:
            zeros.append(abs(got) / scale)
        else:
            fits.append(abs(got / expected - 1))
    null = nulls(tau)
    top = max(map(abs, null.values()))
    return {
        "misfit": max(fits), "zero": max(zeros), "counts": (len(fits), len(zeros)),
        "vanishing": {e for e, v in null.items() if abs(v) < BOUND * top},
        "two_odd": {e for e in null if sum(map(is_odd, block_factors(e, genera))) == 2},
    }


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


@pytest.mark.parametrize("genera", GENUS2_PRODUCTS)
def test_rosenhain_block_product(genera):
    found = rosenhain_product(genera)
    assert found["misfit"] < BOUND and found["zero"] < BOUND
    assert min(found["counts"]) > 50  # both kinds of D are checked


@pytest.mark.parametrize("genera", GENUS2_PRODUCTS)
def test_block_product_nulls_and_d_vanish_together(genera):
    # the even nulls with two odd block factors vanish, and no other, where the D
    # that factored_det sends to 0 vanish: a product with a genus-2 block loses both
    found = rosenhain_product(genera)
    assert found["vanishing"] == found["two_odd"]
    assert len(found["vanishing"]) == {3: 6, 4: 36 if len(genera) == 2 else 46}[sum(genera)]
    assert found["zero"] < BOUND and found["counts"][1] > 0


@pytest.mark.parametrize("genera", GENUS2_PRODUCTS)
def test_rosenhain_block_product_wrong_even_fails(genera):
    assert rosenhain_product(genera, wrong_even=True)["misfit"] > 0.5
