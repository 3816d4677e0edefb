"""One-pass face monomials against the recursive grower.

A face ring's columns in degree d are every monomial whose support is a
face.  The library makes them in one pass over the degrees, each
degree-d monomial a degree-(d-1) one times its last ray or a later ray;
``helpers.grown_face_monomials`` regrows each degree from scratch over
frozenset supports.  The face ring at the largest degree bound,
DEGREE_BOUND_LIMIT * n, must list the grower's monomials in its order in
every degree: on the corpus pairs, the seeded non-toric charmaps, the
seeded star subdivisions and the non-projective threefold.
"""

import pytest

from helpers import (
    charmap_pair_cases,
    grown_face_monomials,
    nonprojective_threefold,
    star_subdivision_cases,
)
from toricbundles import face_ring, tautological_pair
from toricbundles.corpus import corpus_pairs
from toricbundles.equivariant import DEGREE_BOUND_LIMIT
from toricbundles.faces import mask_rays

CASES = (
    list(corpus_pairs()) + charmap_pair_cases()
    + [(name, tautological_pair(f)) for name, f in star_subdivision_cases()]
    + [("non-projective threefold",
        tautological_pair(nonprojective_threefold()))]
)


@pytest.mark.parametrize("name,pair", CASES, ids=[name for name, _ in CASES])
def test_face_ring_columns_match_the_grower(name, pair):
    n = pair.complex.dim
    ring = face_ring(pair, DEGREE_BOUND_LIMIT * n)
    assert ring.degree_cap == DEGREE_BOUND_LIMIT * n // 2
    faces = set(map(frozenset, map(mask_rays, ring.face_masks)))
    for d in range(ring.degree_cap + 1):
        grown = grown_face_monomials(ring.ray_count, faces, d)
        assert list(ring.basis_monomials(d)) == grown, d
