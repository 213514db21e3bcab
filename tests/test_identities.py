import numpy as np
import pytest

import theta4.identities as identities
from theta4.char2 import (
    Characteristic,
    d_plus,
    enumerate_characteristics,
    even_characteristics,
    weil_pairing,
)
from theta4.identities import inversion_residuals, quartic_residuals, summarize
from theta4.jsonio import complex_json
from theta4.mmatrix import build_m, pairing_signs
from theta4.theta_eval import (
    TruncationPolicy,
    random_tau,
    sample_cell_points,
    theta_series,
)

# theta3(0, i)^4 and twice it, frozen from an independent high-precision source
THETA3_4TH_AT_I = 1.3932039296856768592
TWICE_THETA3_4TH = 2.7864078593713537184


def value(v: dict) -> complex:
    """The complex number of a record's {"re", "im"} value."""
    return complex(v["re"], v["im"])


def record(records: list[dict], c: Characteristic) -> dict:
    """The record of c in a one-point sweep."""
    [res] = [r for r in records if r["char"] == c.to_json()]
    return res


def float_bytes(v) -> bytes:
    """The bytes of every float in a record value, in order."""
    if isinstance(v, dict):
        return b"".join(float_bytes(x) for x in v.values())
    if isinstance(v, list):
        return b"".join(map(float_bytes, v))
    return np.float64(v).tobytes()


class TestQuartic:
    def test_jacobi_specialization(self, tau_g1_i, zero1):
        res = record(quartic_residuals(tau_g1_i, [zero1]), Characteristic.zero(1))
        assert res["rel_residual"] < 1e-9
        assert abs(value(res["lhs"]) - THETA3_4TH_AT_I) < 1e-10
        # the relation at z=0, g=1 is literally theta3^4 = theta2^4 + theta4^4
        nulls = {c: theta_series(c, zero1, tau_g1_i).value for c in enumerate_characteristics(1)}
        jacobi = nulls[Characteristic((0,), (0,))] ** 4 - (
            nulls[Characteristic((0,), (1,))] ** 4 + nulls[Characteristic((1,), (0,))] ** 4
        )
        assert abs(jacobi) < 1e-9

    @pytest.mark.parametrize("g", [1, 2])
    def test_all_characteristics_random_tau(self, g):
        for seed in (0, 1):
            tau = random_tau(g, seed=seed, floor=1.0)
            for res in quartic_residuals(tau, sample_cell_points(tau, 2, seed=seed + 50)):
                assert res["rel_residual"] < 1e-8

    def test_odd_characteristic(self, tau_g1_i):
        res = record(quartic_residuals(tau_g1_i, [[0.23 + 0.11j]]), Characteristic((1,), (1,)))
        assert res["rel_residual"] < 1e-8

    def test_residual_fields_consistent(self, tau_g2_random):
        res = record(quartic_residuals(tau_g2_random, [[0.1j, 0.2]]), Characteristic.zero(2))
        lhs, rhs = value(res["lhs"]), value(res["rhs"])
        assert res["abs_residual"] == abs(lhs - rhs)
        assert res["rel_residual"] == res["abs_residual"] / max(abs(lhs), abs(rhs), 1e-30)
        assert res["abs_residual"] >= 0.0 and res["scale"] > 0.0
        assert res["kind"] == "quartic"
        assert res["char"] == Characteristic.zero(2).to_json()
        assert res["z"] == [{"re": 0.0, "im": 0.1}, {"re": 0.2, "im": 0.0}]
        # a record holds no inputs but its point: tau and the policy belong to the sweep
        fields = ["kind", "char", "z", "lhs", "rhs", "abs_residual", "rel_residual", "scale"]
        assert list(res) == fields

    def test_one_point_sweep_matches_sweep(self):
        # every record of a sweep is bit for bit that point's record in a one-point sweep
        for g in (1, 2, 3):
            tau = random_tau(g, seed=g + 40, floor=1.0)
            points = sample_cell_points(tau, 2, seed=9)
            for sweep, n_chars in ((quartic_residuals, 4**g), (inversion_residuals, d_plus(g))):
                records = sweep(tau, points)
                assert len(records) == 2 * n_chars
                for k, res in enumerate(records):
                    single = record(sweep(tau, points[k // n_chars : k // n_chars + 1]),
                                    Characteristic.from_json(res["char"]))
                    assert single["char"] == res["char"] and single["kind"] == res["kind"]
                    for field in ("z", "lhs", "rhs", "scale", "abs_residual", "rel_residual"):
                        bits = [float_bytes(r[field]) for r in (single, res)]
                        assert bits[0] == bits[1], (g, res["kind"], res["char"], field)


@pytest.mark.parametrize("points", [[], np.empty((0, 2))], ids=["list", "array"])
@pytest.mark.parametrize("sweep", [quartic_residuals, inversion_residuals])
def test_empty_points_rejected_before_any_sum(sweep, points, no_lattice_sum):
    # summarize([]) would count a sweep with no records as a pass
    with pytest.raises(ValueError, match="at least one point"):
        sweep(random_tau(2, seed=7), points)


class TestSignedSums:
    """_signed_sums, the fast Walsh-Hadamard transform, against the dense pairing_signs sums."""

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_matches_dense_pairing_signs(self, g):
        # each side is within 2g u sum|terms| of the exact sums: the transform's
        # 2g passes and the reference's pairwise sum over 4^g products
        rng = np.random.default_rng(g)
        chars, evens = enumerate_characteristics(g), even_characteristics(g)
        terms = rng.normal(size=(3, 4**g)) + 1j * rng.normal(size=(3, 4**g))
        odd = [c.index for c in chars if c not in evens]
        zero_filled = terms.copy()
        zero_filled[:, odd] = 0.0
        u = np.finfo(float).eps / 2
        for rows, t in ((chars, terms), (evens, zero_filled)):
            signs = pairing_signs(rows, chars)
            dense = np.array([(point * signs).sum(-1) for point in t])
            bound = 4 * g * u * np.abs(t).sum(axis=1, keepdims=True)
            assert np.all(np.abs(identities._signed_sums(t, rows) - dense) <= bound)

    def test_wrong_even_sign_fails_one_record(self, monkeypatch, tau_g2_random):
        # one wrong sign on the even term b of the even row c must break the relation
        # at that record only; an odd term would be invisible, its null vanishing
        c, b = even_characteristics(2)[1], even_characteristics(2)[2]
        signed_sums = identities._signed_sums

        def flipped(terms, rows):
            sums = signed_sums(terms, rows)
            sums[:, rows.index(c)] -= 2 * weil_pairing(c, b) * terms[:, b.index]
            return sums

        monkeypatch.setattr(identities, "_signed_sums", flipped)
        for sweep in (quartic_residuals, inversion_residuals):
            records = sweep(tau_g2_random, sample_cell_points(tau_g2_random, 1, seed=5))
            failed = [r["char"] for r in records if not summarize([r], 1e-8)[1]]
            assert failed == [c.to_json()]

    def test_genus5_sums_peak_below_four_times_terms(self, traced_peak):
        # a genus-5 sweep's 20 points: the dense sums held one 1024 x 1024
        # product per point (16 MB, 51 times these terms); the transform holds
        # the moved terms, two half-size results and numpy's ufunc buffers
        rng = np.random.default_rng(5)
        terms = rng.normal(size=(20, 1024)) + 1j * rng.normal(size=(20, 1024))
        sums, peak = traced_peak(lambda: identities._signed_sums(terms, enumerate_characteristics(5)))
        assert sums.shape == terms.shape
        assert peak < 4 * terms.nbytes, peak / terms.nbytes


class TestSummarize:
    """The one pass rule: rel_residual < eps or abs_residual < eps * scale."""

    @staticmethod
    def record(rel: float, abs_residual: float, scale: float) -> dict:
        return {"rel_residual": rel, "abs_residual": abs_residual, "scale": scale}

    def test_empty(self):
        assert summarize([], 1e-8) == (0.0, True, 0)

    def test_relative_clause_is_strict(self):
        # rel == eps is no relative pass: with abs == eps * scale it fails both clauses,
        # and with a larger scale it passes at term scale only
        assert summarize([self.record(1e-8, 1e-8, 1.0)], 1e-8) == (1e-8, False, 0)
        assert summarize([self.record(1e-8, 1e-8, 2.0)], 1e-8) == (1e-8, True, 1)

    def test_counts_term_scale_passes(self):
        records = [self.record(1e-12, 1e-12, 1.0), self.record(1.0, 1e-17, 1e-3),
                   self.record(0.5, 1e-20, 1.0)]
        assert summarize(records, 1e-8) == (1.0, True, 2)

    def test_failure_fails_and_sets_maximum(self):
        records = [self.record(1e-12, 1e-12, 1.0), self.record(0.25, 0.5, 1.0)]
        assert summarize(records, 1e-8) == (0.25, False, 0)

    def test_records_share_char_and_point_objects(self, tau_g2_random):
        points = sample_cell_points(tau_g2_random, 2, seed=9)
        for sweep, chars in ((quartic_residuals, enumerate_characteristics(2)),
                             (inversion_residuals, even_characteristics(2))):
            records = sweep(tau_g2_random, points)
            n = len(chars)
            for k, res in enumerate(records):
                assert res["char"] is records[k % n]["char"]
                assert res["z"] is records[k - k % n]["z"]
                assert res["char"] == chars[k % n].to_json()
                assert res["z"] == [complex_json(v) for v in points[k // n]]


class TestReferenceLoops:
    """Sweep records against the per-pair loops of the literal sums."""

    @pytest.mark.parametrize("fixture", ["tau_g2_random", "tau_g2_product"])
    def test_records_match_literal_sums(self, fixture, request):
        tau = request.getfixturevalue(fixture)
        g = tau.g
        zero = np.zeros(g, dtype=complex)
        evens = even_characteristics(g)
        null = {b: theta_series(b, zero, tau).value for b in enumerate_characteristics(g)}
        points = sample_cell_points(tau, 2, seed=6)
        records = quartic_residuals(tau, points) + inversion_residuals(tau, points)
        for res in records:
            z, c = np.array([value(v) for v in res["z"]]), Characteristic.from_json(res["char"])
            if res["kind"] == "quartic":
                terms = {b: n**3 * theta_series(b, 2.0 * z, tau).value / 2**g for b, n in null.items()}
                lhs = theta_series(c, z, tau).value ** 4
                rhs = sum(weil_pairing(c, b) * t for b, t in terms.items())
                largest = max(abs(t) for t in terms.values())
            else:
                fourth = {a: theta_series(a, z, tau).value ** 4 for a in evens}
                lhs = 2**g * null[c] ** 3 * theta_series(c, 2.0 * z, tau).value
                rhs = -(2**g) * fourth[c] + sum(weil_pairing(a, c) * 2 * f for a, f in fourth.items())
                largest = max(2**g * abs(fourth[c]), 2 * max(abs(f) for f in fourth.values()))
            assert value(res["lhs"]) == lhs
            # two summation orders of at most n = 16 terms: within 2 (n-1) n u of the largest
            assert abs(value(res["rhs"]) - rhs) <= 1e-13 * largest
            sides = abs(value(res["lhs"])), abs(value(res["rhs"]))
            assert res["abs_residual"] == abs(value(res["lhs"]) - value(res["rhs"]))
            assert res["rel_residual"] == res["abs_residual"] / max(*sides, 1e-30)
            assert res["scale"] == max(largest, *sides)


class TestInversion:
    def test_g1_z0(self, tau_g1_i, zero1):
        res = record(inversion_residuals(tau_g1_i, [zero1]), Characteristic.zero(1))
        assert res["rel_residual"] < 1e-9
        assert abs(value(res["lhs"]) - TWICE_THETA3_4TH) < 1e-10
        assert abs(value(res["rhs"]) - TWICE_THETA3_4TH) < 1e-10

    def test_g2_all_even(self, tau_g2_random):
        for res in inversion_residuals(tau_g2_random, sample_cell_points(tau_g2_random, 2, seed=3)):
            assert res["rel_residual"] < 1e-8

    def test_checks_even_pairs_only(self, tau_g1_i):
        # the inversion is stated for even pairs only: no record names an odd one
        records = inversion_residuals(tau_g1_i, [[0.1]])
        assert [r["char"] for r in records] == [c.to_json() for c in even_characteristics(1)]
        assert Characteristic((1,), (1,)).to_json() not in [r["char"] for r in records]

    def test_vanishing_null_record_passes_at_scale(self, tau_g2_product):
        # at the product point the relation for the vanishing pair reads 0 = 0:
        # the relative residual is noise over noise, the absolute one is tiny
        vanishing = Characteristic((1, 1), (1, 1))
        [res] = [
            r
            for r in inversion_residuals(tau_g2_product, sample_cell_points(tau_g2_product, 1, seed=4))
            if r["char"] == vanishing.to_json()
        ]
        assert abs(value(res["lhs"])) < 1e-12 * res["scale"]
        assert summarize([res], 1e-8)[1]
        assert res["abs_residual"] < 1e-10 * res["scale"]

    def test_consistency_with_quartic_on_shared_samples(self, tau_g2_random):
        points = sample_cell_points(tau_g2_random, 2, seed=12)
        quartic = quartic_residuals(tau_g2_random, points)
        inversion = inversion_residuals(tau_g2_random, points)
        assert max(r["rel_residual"] for r in quartic) < 1e-8
        assert max(r["rel_residual"] for r in inversion) < 1e-8


class TestDegradation:
    """Zeroing one even null must break the identities loudly."""

    def test_inversion_detects_zeroed_null(self, tau_g2_random):
        g = 2
        z = sample_cell_points(tau_g2_random, 1, seed=21)[0]
        evens = even_characteristics(g)
        c = evens[0]
        res = record(inversion_residuals(tau_g2_random, [z]), c)
        zeroed_lhs = 0.0 + 0.0j  # pretend theta[c](0) = 0
        rhs = value(res["rhs"])
        rel = abs(zeroed_lhs - rhs) / max(abs(zeroed_lhs), abs(rhs), 1e-30)
        assert rel > 1e-3

    def test_quartic_detects_dropped_term(self, tau_g2_random):
        g = 2
        z = sample_cell_points(tau_g2_random, 1, seed=22)[0]
        c = Characteristic.zero(g)
        res = record(quartic_residuals(tau_g2_random, [z]), c)
        dropped = evens_term(c, z, tau_g2_random, drop=Characteristic.zero(g))
        lhs = value(res["lhs"])
        rel = abs(lhs - dropped) / max(abs(lhs), abs(dropped), 1e-30)
        assert rel > 1e-3


def evens_term(c, z, tau, drop):
    """Quartic right side with one pair's null zeroed out."""
    g = tau.g
    zero = np.zeros(g, dtype=complex)
    total = 0.0 + 0.0j
    for b in enumerate_characteristics(g):
        if b == drop:
            continue
        null = theta_series(b, zero, tau).value
        total += weil_pairing(c, b) * null**3 * theta_series(b, 2.0 * np.asarray(z), tau).value
    return total / 2**g


class TestCoefficients:
    # The inversion writes theta[c](0)^3 theta[c](2z) as row c of the
    # coefficient table (2 M - 2^g I) / 2^g applied to the even fourth powers

    def test_g1_first_row(self):
        # at g = 1 the table is (2 M - 2 I) / 2 = M - I, integral
        m = build_m(1)
        table = m - np.eye(3, dtype=np.int64)
        assert table[0].tolist() == [0, 1, 1]

    @pytest.mark.parametrize("g", [1, 2])
    def test_reproduces_inversion_numerically(self, g):
        tau = random_tau(g, seed=g + 30, floor=1.0)
        policy = TruncationPolicy()
        z = sample_cell_points(tau, 1, seed=g + 31)[0]
        evens = even_characteristics(g)
        fourths = np.array([theta_series(a, z, tau, policy).value ** 4 for a in evens])
        m = build_m(g)
        zero = np.zeros(g, dtype=complex)
        for i, c in enumerate(evens):
            # numerators +-2 and 2 - 2^g over a power of two: exact in floats
            row = (2 * m[i] - 2**g * np.eye(len(m), dtype=np.int64)[i]) / 2**g
            combo = row @ fourths
            direct = (
                theta_series(c, zero, tau, policy).value ** 3
                * theta_series(c, 2.0 * z, tau, policy).value
            )
            assert abs(combo - direct) <= 1e-8 * max(abs(combo), abs(direct), 1.0)

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_composition_with_quartic_is_identity(self, g):
        # the quartic relation transports fourth powers through M / 2^g, so the
        # coefficient table composed with it must be exactly the identity:
        # cleared of denominators, (2 M - 2^g I) M = 4^g I
        m = build_m(g)
        eye = np.eye(len(m), dtype=np.int64)
        assert np.array_equal((2 * m - 2**g * eye) @ m, 4**g * eye)
