"""Presented bases: the product table against the summed basis products.

A presentation multiplies as every ring does, through a table of normal
forms, which it keeps for its lifetime and fills on first read;
``helpers.summed_product`` sums the basis products and reduces them by a
walk over the pivots.  The two must agree on every basis pair and on
seeded random classes, over the fixed presentations in
``perfbench/bases/``, the hand presentations of P1 and P2 and the
presentations of the corpus fans.  The parse cache of presentation texts
is checked here too.
"""

import random
from pathlib import Path

import pytest

from helpers import (
    P1_PRESENTATION,
    P2_PRESENTATION,
    p1_presentation,
    p2_presentation,
    summed_product,
)
from toricbundles import presentation_from_fan
from toricbundles.cohomology import CohomologyClass, RingConsistencyError
from toricbundles.corpus import corpus_fans
from toricbundles.formats import ParseError, parse_base_presentation

BASES = Path(__file__).parent.parent / "perfbench" / "bases"

PRESENTATIONS = (
    [(f"bases/{path.name}", lambda path=path: path.read_text())
     for path in sorted(BASES.glob("*.pres"))]
    + [("P1_PRESENTATION", lambda: P1_PRESENTATION),
       ("P2_PRESENTATION", lambda: P2_PRESENTATION)]
)


def _class(pres, coefficient):
    """The class with coefficient(d, i) at basis position i of degree d."""
    return CohomologyClass(pres, tuple(
        tuple(coefficient(d, i) for i in range(pres.rank(d)))
        for d in range(pres.half_top + 1)
    ))


def basis_pairs(pres):
    """The ordered basis pairs whose product does not vanish by degree."""
    return [
        (m1, m2)
        for d1 in range(pres.half_top + 1)
        for d2 in range(pres.half_top + 1 - d1)
        for m1 in pres.basis_monomials(d1)
        for m2 in pres.basis_monomials(d2)
    ]


def _check_products(pres, seed):
    basis = [
        _class(pres, lambda d, i, k=k, j=j: int((d, i) == (k, j)))
        for k in range(pres.half_top + 1) for j in range(pres.rank(k))
    ]
    rng = random.Random(seed)
    randoms = [
        _class(pres, lambda d, i: rng.randint(-4, 4)) for _ in range(5)
    ]
    for a in basis + randoms:
        for b in basis + randoms:
            assert pres.multiply(a, b) == summed_product(pres, a, b)


@pytest.mark.parametrize("label,text", PRESENTATIONS,
                         ids=[label for label, _ in PRESENTATIONS])
def test_presentation_file_products_match_the_skeleton(label, text):
    pres = parse_base_presentation(text())
    _check_products(pres, f"structure constants/{label}")


@pytest.mark.parametrize("name,fan", corpus_fans(),
                         ids=[name for name, _ in corpus_fans()])
def test_fan_presentation_products_match_the_skeleton(name, fan):
    _check_products(presentation_from_fan(fan, name),
                    f"structure constants/{name}")


def test_hand_presentation_products_match_the_skeleton():
    for pres in (p1_presentation(), p2_presentation()):
        _check_products(pres, f"structure constants/{pres.name} by hand")


def test_products_come_from_the_table():
    pres = parse_base_presentation(P2_PRESENTATION)
    table = pres.normal_forms()
    assert pres.normal_forms() is table
    units = {m: pres.reduce_poly({m: 1}) for d in range(pres.half_top + 1)
             for m in pres.basis_monomials(d)}
    for m1, m2 in basis_pairs(pres):
        product = pres.multiply(units[m1], units[m2])
        # the table keeps each product monomial's normal form, flat
        form = table[tuple(map(sum, zip(m1, m2)))]
        flat = [c for part in product.parts for c in part]
        assert {k: c for k, c in enumerate(flat) if c} == dict(form)
    h = pres.reduce_poly({(0, 0, 1): 1})
    assert pres.multiply(h, h) == pres.reduce_poly({(1, 0, 1): 1})
    with pytest.raises(ValueError, match="different rings"):
        pres.multiply(h, p2_presentation().unit())


def test_a_presentation_text_is_parsed_once():
    first = parse_base_presentation(P2_PRESENTATION)
    assert parse_base_presentation(P2_PRESENTATION) is first
    assert parse_base_presentation("# comment\n" + P2_PRESENTATION) is not first


@pytest.mark.parametrize("text,error", [
    # two degree-2 basis monomials where the rank is one
    (P2_PRESENTATION.replace("2 : x2", "2 : x2 x1"), RingConsistencyError),
    (P2_PRESENTATION.replace("integration 1", "integration 2"),
     RingConsistencyError),
    (P2_PRESENTATION.replace("x0 2\n", "x0 two\n"), ParseError),
])
def test_a_failing_presentation_text_raises_on_every_call(text, error):
    for _ in range(3):
        with pytest.raises(error):
            parse_base_presentation(text)
