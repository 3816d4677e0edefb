"""Report text against the generic encoders and the one-monomial renderer.

``formats.report_json`` must equal ``json.dumps(obj, indent=2,
sort_keys=True)`` on Hypothesis-generated payloads and on every machine
golden.  ``formats.monomial_texts`` must equal
``helpers.reference_monomial_text`` item by item on seeded exponent
tuples, and ``WeightPolynomial`` texts, read from one table per number of
variables, must equal ``helpers.TupleWeightPolynomial``'s.
"""

import json
import random
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    TupleWeightPolynomial,
    monomial_to_text,
    reference_monomial_text,
)
from toricbundles import WeightPolynomial
from toricbundles.equivariant import _exponents, _key_texts
from toricbundles.formats import monomial_texts, report_json

GOLDEN = Path(__file__).parent / "golden"

# quotes, backslashes, control characters and non-ASCII text, beside any
# other character
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", "€", "\U0001f600"]
)), max_size=8)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10**40, max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True), TEXT,
)
PAYLOADS = st.recursive(
    st.one_of(SCALARS, st.lists(st.integers()), st.lists(TEXT),
              st.lists(st.one_of(st.integers(), st.booleans()))),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(TEXT, inner, max_size=5),
    ),
    max_leaves=40,
)


@given(PAYLOADS)
@example([1, True])
@example([True, 1])
@example(["a", 1])
@example({"b": [], "a": {}, "": ()})
@example([float("nan"), float("inf"), -float("inf"), -0.0])
def test_report_json_is_json_dumps(payload):
    assert report_json(payload) == json.dumps(payload, indent=2,
                                              sort_keys=True)


def test_every_machine_golden_is_written_back_unchanged():
    paths = sorted(GOLDEN.glob("*.machine.txt"))
    assert len(paths) >= 15
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert report_json(json.loads(text)) + "\n" == text, path.name


def test_monomial_texts_match_the_one_monomial_reference():
    rng = random.Random("monomial texts")
    for nvars in range(0, 7):
        names = [f"x{i}" for i in range(nvars)]
        for _ in range(40):
            batch = [(0,) * nvars] + [
                tuple(rng.choice([0, 0, 1, 2, 3, 9, 10, 11, 99])
                      for _ in range(nvars))
                for _ in range(rng.randint(0, 12))
            ]
            rng.shuffle(batch)
            assert monomial_texts(batch, names) == [
                reference_monomial_text(m, names) for m in batch
            ]
            for m in batch:
                assert monomial_to_text(m, names) == reference_monomial_text(
                    m, names)
    assert monomial_texts([], ["x0"]) == []
    assert monomial_texts([(0, 12, 1)], ["h", "k", "x2"]) == ["k^12*x2"]


def test_weight_polynomial_texts_come_from_one_table_per_variable_count():
    """Both polynomials hold the packed key 0, the only key that a valid
    monomial of 2 and one of 3 variables share; every other key of either
    would decode to a wrong text in the other's table."""
    rng = random.Random("weight texts")
    for _ in range(20):
        for n in (2, 3, 2):
            terms = {(0,) * n: rng.choice([-1, 1, 4])}
            for _ in range(rng.randint(0, 6)):
                exps = tuple(rng.randint(0, 11) for _ in range(n))
                terms[exps] = rng.choice([-3, -1, 1, 2])
            assert repr(WeightPolynomial(n, terms)) == repr(
                TupleWeightPolynomial(n, terms))
    assert _key_texts(2) is not _key_texts(3)
    for n in (2, 3):
        names = [f"t{k + 1}" for k in range(n)]
        assert 0 in _key_texts(n)
        for key, text in _key_texts(n).items():
            assert text == reference_monomial_text(_exponents(key, n), names)
