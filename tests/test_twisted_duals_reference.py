"""A twisted fan's dual rows from its parts against a Bareiss pass per cone.

``twist.twisted_fan`` records the base fan, the fiber fan and the base
rays' lifts on the twisted fan, and its ``fan.tables`` record builds its
dual table from the base's and fiber's tables by the block inverse.
That table must equal ``dual_table`` of the twisted rays exactly, in
determinants and rows, on seeded twists over P^n and products and with
the non-projective threefold as base and as fiber.  A parsed copy of the twisted fan has no
parts, so it runs the Bareiss passes, and must get the same table; a ring
rebuilt after the record is cleared reads the derived rows.  The cone
rewrites check the rows a ring is given: a corrupted or an all-zero
inverse row raises, naming its cone.
"""

import random

import pytest

from helpers import (
    clear_fan_caches,
    dim5_twists,
    nonprojective_threefold,
    p1_power,
    projective_space,
)
from toricbundles import build_ring, make_plmap, product_fan, twisted_fan
from toricbundles import cohomology
from toricbundles import fan as fan_module
from toricbundles.cohomology import RingConsistencyError, linear_relations
from toricbundles.fan import dual_table, tables
from toricbundles.formats import fan_to_text, parse_fan


def _twist(base, fiber, rng):
    phi = make_plmap(fiber.dim, [
        [rng.randint(-3, 3) for _ in range(fiber.dim)]
        for _ in range(base.ray_count)
    ])
    return twisted_fan(base, fiber, phi)


def _cases():
    p1, p2, p3, p4 = (projective_space(n) for n in (1, 2, 3, 4))
    p1xp1, p2xp1 = p1_power(2), product_fan(p2, p1)
    bases = {"P1": p1, "P2": p2, "P3": p3, "P4": p4, "P1xP1": p1xp1,
             "P2xP1": p2xp1}
    fibers = {"P1": p1, "P2": p2, "P3": p3, "P1xP1": p1xp1}
    rng = random.Random("twisted duals")
    cases = [(f"{fname} over {bname}", _twist(base, fiber, rng))
             for bname, base in bases.items()
             for fname, fiber in fibers.items()
             if base.dim + fiber.dim <= 5]
    threefold = nonprojective_threefold()
    cases += [(f"{fname} over the threefold", _twist(threefold, fiber, rng))
              for fname, fiber in (("P1", p1), ("P2", p2))]
    cases += [(f"the threefold over {bname}", _twist(base, threefold, rng))
              for bname, base in (("P1", p1), ("P2", p2))]
    cases += [(f"dim-5 twist {k}", twisted)
              for k, twisted in enumerate(dim5_twists(7, 29))]
    return cases


CASES = _cases()


@pytest.mark.parametrize("name,twisted", CASES,
                         ids=[name for name, _ in CASES])
def test_derived_table_is_the_bareiss_table(name, twisted):
    assert twisted.parts is not None
    derived = tables(twisted).duals
    bareiss = dual_table(twisted.rays, twisted.max_cones)
    assert derived.determinants == bareiss.determinants
    assert derived.rows == bareiss.rows


@pytest.mark.parametrize("name,twisted", CASES[::4],
                         ids=[name for name, _ in CASES[::4]])
def test_a_parsed_copy_gets_the_same_table_by_bareiss(name, twisted,
                                                       monkeypatch):
    clear_fan_caches()
    parsed = parse_fan(fan_to_text(twisted))
    assert parsed == twisted and parsed.parts is None
    table = tables(parsed).duals
    clear_fan_caches()
    base, fiber, _ = twisted.parts
    tables(base).duals, tables(fiber).duals

    def no_bareiss(m):
        raise AssertionError(f"Bareiss pass on {m}")

    monkeypatch.setattr(fan_module, "det_adjugate", no_bareiss)
    assert tables(twisted).duals == table


def test_a_rebuilt_twisted_ring_reads_the_derived_rows():
    twisted = CASES[-1][1]
    old = build_ring(twisted)
    clear_fan_caches()
    ring = build_ring(twisted)
    assert ring is not old
    assert ring.inverses is tables(twisted).duals.rows


def _corrupted(row):
    return (row[0] + 1,) + row[1:]


def _zero(row):
    return (0,) * len(row)


@pytest.mark.parametrize("spoil", [_corrupted, _zero],
                         ids=["corrupted row", "all-zero row"])
@pytest.mark.parametrize("name,twisted", [CASES[0], CASES[-1]],
                         ids=[CASES[0][0], CASES[-1][0]])
def test_a_wrong_inverse_row_fails_its_cone_rewrite(name, twisted, spoil):
    rows = list(tables(twisted).duals.rows)
    k = len(rows) // 2
    cone = sorted(twisted.max_cones[k])
    spoiled = list(rows[k])
    spoiled[1] = spoil(spoiled[1])
    rows[k] = tuple(spoiled)
    with pytest.raises(RingConsistencyError) as error:
        cohomology._certified_ring(twisted, linear_relations(twisted),
                                   "fan ring", tuple(rows))
    assert str(error.value) == (f"the inverse rows given for cone {cone} do "
                                "not invert its linear relations")
