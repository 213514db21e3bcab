import dataclasses
import itertools
import json
import pickle
import re

import numpy as np
import pytest

from theta4.char2 import (
    _SIGN,
    MAX_GENUS,
    Characteristic,
    d_minus,
    d_plus,
    enumerate_characteristics,
    even_characteristics,
    even_points,
    isometry_to_even_points,
    kappa_value,
    parity,
    translate,
    weil_pairing,
)


def char(a1, a2):
    return Characteristic(tuple(a1), tuple(a2))


def dot(u, v):
    return sum(x & y for x, y in zip(u, v)) & 1


def ref_parity(c):
    return -1 if dot(c.a1, c.a2) else 1


def ref_pairing(a, b):
    return -1 if dot(a.a1, b.a2) ^ dot(a.a2, b.a1) else 1


def ref_kappa(c, a):
    return -1 if dot(a.a1, a.a2) ^ dot(c.a1, a.a2) ^ dot(c.a2, a.a1) else 1


def ref_translate(b, c):
    return char([x ^ y for x, y in zip(b.a1, c.a1)], [x ^ y for x, y in zip(b.a2, c.a2)])


def ref_index(c):
    return int("".join(map(str, c.a1 + c.a2)), 2)


def ref_swapped(c):
    return int("".join(map(str, c.a2 + c.a1)), 2)


def assert_stored_ints(c):
    assert c.g == len(c.a1)
    assert (c.index, c._swapped) == (ref_index(c), ref_swapped(c))


def sampled_pairs(g, n, seed):
    rng = np.random.default_rng(seed)
    chars = enumerate_characteristics(g)
    idx = rng.integers(0, len(chars), size=(n, 2))
    return [(chars[i], chars[j]) for i, j in idx]


class TestEnumeration:
    def test_g1_explicit(self):
        got = [(c.a1, c.a2) for c in enumerate_characteristics(1)]
        assert got == [((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]

    def test_counts(self):
        for g in (1, 2, 3, 4):
            assert len(enumerate_characteristics(g)) == 4**g

    def test_g3_endpoints(self):
        chars = enumerate_characteristics(3)
        assert chars[0] == char((0, 0, 0), (0, 0, 0))
        assert chars[-1] == char((1, 1, 1), (1, 1, 1))

    def test_sorted_by_canonical_index(self):
        for g in (1, 2, 3):
            indices = [c.index for c in enumerate_characteristics(g)]
            assert indices == sorted(indices) == list(range(4**g))

    def test_deterministic(self):
        assert enumerate_characteristics(2) == enumerate_characteristics(2)

    @pytest.mark.parametrize("g", [0, -1, 7, "2"])
    def test_genus_out_of_range(self, g):
        with pytest.raises(ValueError):
            enumerate_characteristics(g)


class TestCharacteristic:
    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            char((0, 2), (0, 0))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            char((0, 1), (0,))

    @pytest.mark.parametrize("g, index", [(1, 4), (2, 16), (3, -1)])
    def test_from_index_out_of_range(self, g, index):
        with pytest.raises(ValueError, match=f"index {index} out of range for genus {g}"):
            Characteristic.from_index(g, index)

    def test_index_roundtrip(self):
        for g in (1, 2, 3):
            for c in enumerate_characteristics(g):
                assert Characteristic.from_index(g, c.index) == c

    def test_from_ints(self):
        c = Characteristic.from_ints(2, 2, 1)
        assert c == char((1, 0), (0, 1))
        with pytest.raises(ValueError, match="a1=4 out of range for genus 2"):
            Characteristic.from_ints(2, 4, 0)
        with pytest.raises(ValueError, match="a2=16 out of range for genus 4"):
            Characteristic.from_ints(4, 0, 16)

    def test_json_roundtrip(self):
        c = char((1, 0), (0, 1))
        assert Characteristic.from_json(c.to_json()) == c
        with pytest.raises(ValueError):
            Characteristic.from_json({"a1": [0], "a2": [0], "extra": 1})

    def test_json_integer_halves(self):
        # the JSON encoding is the bit lists to_json writes; integer halves go through from_ints
        for obj in ({"a1": 2, "a2": 1}, {"a1": [1, 0], "a2": 1}, {"a1": 2}):
            with pytest.raises(ValueError, match="characteristic JSON must be"):
                Characteristic.from_json(obj)

    def test_str(self):
        assert str(char((1, 0), (0, 1))) == "10,01"

    @pytest.mark.parametrize("bad", [1.0, 0.0, 0.5, np.float64(1.0), "1", "0", None, -1])
    def test_rejects_non_bit_values(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            char((0, bad), (0, 0))
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            char((0, 0), (bad, 0))

    def test_numpy_ints_are_stored_as_python_ints(self):
        c = char(np.array([1, 0], dtype=np.int64), (np.uint8(0), np.int32(1)))
        assert c == char((1, 0), (0, 1))
        assert all(type(b) is int for b in c.a1 + c.a2)
        assert c.index == 0b1001 and weil_pairing(c, char((0, 1), (1, 0))) == 1

    @pytest.mark.parametrize(
        "obj",
        [
            {"a1": [0.9], "a2": [1.2]},
            {"a1": [1.0], "a2": [0]},
            {"a1": [0], "a2": ["1"]},
            {"a1": [0, "x"], "a2": [0, 0]},
        ],
    )
    def test_json_rejects_non_integer_bits(self, obj):
        bad = next(b for b in obj["a1"] + obj["a2"] if not isinstance(b, int))
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            Characteristic.from_json(obj)

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True)])
    def test_rejects_boolean_bits(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            char((0, bad), (0, 0))
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            char((0, 0), (bad, 0))

    @pytest.mark.parametrize(
        "text, bad",
        [
            ('{"a1": [true], "a2": [false]}', True),
            ('{"a1": [0, 1], "a2": [1, false]}', False),
            ('{"a1": true, "a2": false}', True),
            ('{"a1": 1, "a2": false}', False),
        ],
    )
    def test_json_true_is_not_a_bit(self, text, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            Characteristic.from_json(json.loads(text))

    def test_json_numpy_ints_still_parse(self):
        obj = {"a1": [np.int64(1), np.uint8(0)], "a2": [np.int32(0), 1]}
        assert Characteristic.from_json(obj) == char((1, 0), (0, 1))


class TestSignTable:
    def test_matches_popcount_parity_everywhere(self):
        assert len(_SIGN) == 4**MAX_GENUS
        assert all(s == (-1) ** bin(x).count("1") for x, s in enumerate(_SIGN))


class TestIntegerHalves:
    """The cached ints agree with the bit tuples and change nothing visible."""

    @pytest.mark.parametrize("g", [1, 2, 3, MAX_GENUS])
    def test_stored_ints_match_bit_reference(self, g):
        for c in enumerate_characteristics(g):
            assert_stored_ints(c)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_match_bit_reference_exhaustive(self, g):
        chars = enumerate_characteristics(g)
        for c in chars:
            assert parity(c) == ref_parity(c)
            assert c.index == ref_index(c)
            assert c.is_zero == (ref_index(c) == 0) == (c.index == 0)
        for a, b in itertools.product(chars, repeat=2):
            assert weil_pairing(a, b) == ref_pairing(a, b)
            assert kappa_value(a, b) == ref_kappa(a, b)
            assert translate(a, b) == ref_translate(a, b)

    def test_match_bit_reference_sampled_max_genus(self):
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2, size=(2000, 2, 2, MAX_GENUS)).tolist()
        for (a1, a2), (b1, b2) in bits:
            a, b = char(a1, a2), char(b1, b2)
            assert parity(a) == ref_parity(a) and parity(b) == ref_parity(b)
            assert a.index == ref_index(a)
            assert weil_pairing(a, b) == ref_pairing(a, b)
            assert kappa_value(a, b) == ref_kappa(a, b)
            assert kappa_value(b, a) == ref_kappa(b, a)
            assert translate(a, b) == ref_translate(a, b)
            assert_stored_ints(translate(a, b))

    def test_equality_and_hash_ignore_the_cache(self):
        for g in (1, 2, 3):
            for c in enumerate_characteristics(g):
                same = char(list(c.a1), list(c.a2))
                assert same == c == Characteristic.from_index(g, c.index)
                assert hash(same) == hash(c) == hash(Characteristic.from_ints(g, c.index >> g, c.index % 2**g))
                assert len({same, c}) == 1
        c = char((1, 0), (0, 1))
        assert repr(c) == "Characteristic(a1=(1, 0), a2=(0, 1))"
        assert c.to_json() == {"a1": [1, 0], "a2": [0, 1]}
        assert [f.name for f in dataclasses.fields(c)] == ["a1", "a2"]
        # a characteristic equal in its fields but with other stored ints is still equal
        other = char((1, 0), (0, 1))
        object.__setattr__(other, "index", 0)
        object.__setattr__(other, "_swapped", 0)
        assert other == c and hash(other) == hash(c) and repr(other) == repr(c)

    @pytest.mark.parametrize("g", range(1, MAX_GENUS + 1))
    def test_zero_is_the_all_zero_pair(self, g):
        zero, ref = Characteristic.zero(g), char((0,) * g, (0,) * g)
        assert zero == ref and hash(zero) == hash(ref) and repr(zero) == repr(ref)
        assert zero.is_zero and (zero.index, zero._swapped) == (0, 0)

    def test_pickle_round_trip(self):
        chars = enumerate_characteristics(3)
        back = pickle.loads(pickle.dumps(chars))
        assert back == chars
        for a, b in zip(back, back[::-1]):
            assert_stored_ints(a)
            assert a.index == ref_index(a)
            assert weil_pairing(a, b) == ref_pairing(a, b)
            assert kappa_value(a, b) == ref_kappa(a, b)

    def test_replace_recomputes_the_halves(self):
        c = char((1, 0, 1), (0, 0, 1))
        for new in (dataclasses.replace(c, a2=(1, 1, 0)), dataclasses.replace(c, a1=(0, 0, 0))):
            assert_stored_ints(new)
            assert new.index == ref_index(new)
            assert parity(new) == ref_parity(new)
            for x in enumerate_characteristics(3):
                assert weil_pairing(new, x) == ref_pairing(new, x)
                assert kappa_value(new, x) == ref_kappa(new, x)
        with pytest.raises(ValueError):
            dataclasses.replace(c, a1=(1.0, 0, 1))


class TestParity:
    def test_zero_is_even(self):
        assert parity(Characteristic.zero(2)) == 1

    def test_g1_odd(self):
        assert parity(char((1,), (1,))) == -1

    def test_g2_counts(self):
        values = [parity(c) for c in enumerate_characteristics(2)]
        assert values.count(1) == 10
        assert values.count(-1) == 6

    def test_counts_match_formulas(self):
        for g in (1, 2, 3, 4):
            values = [parity(c) for c in enumerate_characteristics(g)]
            assert values.count(1) == d_plus(g)
            assert values.count(-1) == d_minus(g)


class TestWeilPairing:
    def test_zero_argument(self):
        for g in (1, 2):
            zero = Characteristic.zero(g)
            assert all(weil_pairing(zero, b) == 1 for b in enumerate_characteristics(g))

    def test_g1_cross_term(self):
        assert weil_pairing(char((1,), (0,)), char((0,), (1,))) == -1

    def test_g2_hand_example(self):
        # a1.b2 + a2.b1 = (1,0).(1,0) + (0,1).(0,1) = 1 + 1 = 0 mod 2
        assert weil_pairing(char((1, 0), (0, 1)), char((0, 1), (1, 0))) == 1

    def test_symmetric_exhaustive_g2(self):
        chars = enumerate_characteristics(2)
        for a, b in itertools.product(chars, repeat=2):
            assert weil_pairing(a, b) == weil_pairing(b, a)

    def test_bilinear_exhaustive_g2(self):
        chars = enumerate_characteristics(2)
        for a, b in itertools.product(chars, repeat=2):
            ab = translate(a, b)
            for x in chars[:4]:
                assert weil_pairing(ab, x) == weil_pairing(a, x) * weil_pairing(b, x)

    @pytest.mark.parametrize("g", [3, 4])
    def test_bilinear_sampled(self, g):
        for a, b in sampled_pairs(g, 60, seed=g):
            ab = translate(a, b)
            for x, _ in sampled_pairs(g, 10, seed=g + 10):
                assert weil_pairing(ab, x) == weil_pairing(a, x) * weil_pairing(b, x)

    def test_genus_mismatch(self):
        with pytest.raises(ValueError):
            weil_pairing(Characteristic.zero(1), Characteristic.zero(2))
        # the AND of the indices would read a valid sign; the genus check comes first
        for a, b in itertools.product(enumerate_characteristics(1), enumerate_characteristics(2)):
            with pytest.raises(ValueError, match="genus mismatch"):
                weil_pairing(a, b)
            with pytest.raises(ValueError, match="genus mismatch"):
                weil_pairing(b, a)


class TestKappaValue:
    def test_zero_char_is_parity(self):
        for g in (1, 2, 3):
            zero = Characteristic.zero(g)
            for a in enumerate_characteristics(g):
                assert kappa_value(zero, a) == parity(a)

    def test_g1_example(self):
        assert kappa_value(char((0,), (1,)), char((1,), (0,))) == -1

    def test_axiom_exhaustive_g2(self):
        chars = enumerate_characteristics(2)
        for c in chars:
            for a, b in itertools.product(chars[::3], chars[::3]):
                lhs = kappa_value(c, translate(a, b))
                rhs = kappa_value(c, a) * kappa_value(c, b) * weil_pairing(a, b)
                assert lhs == rhs

    @pytest.mark.parametrize("g", [3, 4])
    def test_axiom_sampled(self, g):
        for c, _ in sampled_pairs(g, 20, seed=g):
            for a, b in sampled_pairs(g, 20, seed=g + 5):
                lhs = kappa_value(c, translate(a, b))
                rhs = kappa_value(c, a) * kappa_value(c, b) * weil_pairing(a, b)
                assert lhs == rhs

    def test_plus_count_matches_parity_g2(self):
        for c in enumerate_characteristics(2):
            plus = sum(1 for a in enumerate_characteristics(2) if kappa_value(c, a) == 1)
            if parity(c) == 1:
                assert plus == d_plus(2) == 10
            else:
                assert plus == d_minus(2)

    def test_genus_mismatch(self):
        with pytest.raises(ValueError):
            kappa_value(Characteristic.zero(2), Characteristic.zero(1))


class TestTranslate:
    def test_identity(self):
        c = char((1, 0), (0, 1))
        assert translate(Characteristic.zero(2), c) == c

    def test_involution(self):
        for b, c in sampled_pairs(2, 30, seed=0):
            assert translate(b, translate(b, c)) == c

    def test_pairing_postcondition_g1(self):
        b = char((1,), (0,))
        c = Characteristic.zero(1)
        assert translate(b, c) == b
        for x in enumerate_characteristics(1):
            assert kappa_value(translate(b, c), x) == weil_pairing(b, x) * kappa_value(c, x)

    def test_pairing_postcondition_exhaustive_g2(self):
        chars = enumerate_characteristics(2)
        for b, c in itertools.product(chars[::2], chars[::2]):
            t = translate(b, c)
            for x in chars:
                assert kappa_value(t, x) == weil_pairing(b, x) * kappa_value(c, x)

    def test_even_iff_in_even_points(self):
        for g in (1, 2, 3):
            for c in even_characteristics(g):
                members = set(even_points(c))
                for b in enumerate_characteristics(g):
                    assert (parity(translate(b, c)) == 1) == (b in members)


class TestEvenPoints:
    def test_g1_zero(self):
        pts = even_points(Characteristic.zero(1))
        assert pts == [char((0,), (0,)), char((0,), (1,)), char((1,), (0,))]

    def test_lengths_and_zero_first(self):
        for g in (1, 2, 3):
            for c in even_characteristics(g)[:4]:
                pts = even_points(c)
                assert len(pts) == d_plus(g)
                assert pts[0] == Characteristic.zero(g)

    def test_g2_g3_counts(self):
        assert len(even_points(Characteristic.zero(2))) == 10
        assert len(even_points(Characteristic.zero(3))) == 36

    def test_odd_input_rejected(self):
        with pytest.raises(ValueError):
            even_points(char((1,), (1,)))


class TestIsometry:
    def test_bijection_and_pairing_preserved(self):
        for g in (1, 2, 3):
            evens = even_characteristics(g)
            for kappa0 in evens:
                image = [isometry_to_even_points(kappa0, b) for b in evens]
                assert sorted(c.index for c in image) == sorted(
                    c.index for c in even_points(kappa0)
                )
                for a, b in zip(evens[::3], evens[1::3]):
                    pa = isometry_to_even_points(kappa0, a)
                    pb = isometry_to_even_points(kappa0, b)
                    assert weil_pairing(pa, pb) == weil_pairing(a, b)

    def test_identity_for_zero(self):
        for b in even_characteristics(2):
            assert isometry_to_even_points(Characteristic.zero(2), b) == b

    def test_rejects_odd(self):
        odd = char((1,), (1,))
        with pytest.raises(ValueError):
            isometry_to_even_points(odd, Characteristic.zero(1))
        with pytest.raises(ValueError):
            isometry_to_even_points(Characteristic.zero(1), odd)
