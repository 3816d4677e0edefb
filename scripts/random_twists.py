#!/usr/bin/env python3
"""Stress the main formula on random twists beyond the bundled corpus.

Draws random piecewise-linear maps over the standard bases and fibers,
compares the intrinsic and bundle-formula Chern classes, checks the Chern
numbers of the bundle ring over the base's presentation (the third route,
whose normal form carries the twisting classes) and by fixed-point
localization on the twisted fan (the fourth, with no ring at all), checks
Gauss-Bonnet, and spot-checks invariance under a random unimodular change
of fiber coordinates.  Everything is exact; a single disagreement exits
nonzero.

Usage: python scripts/random_twists.py [trials] [seed] [max_entry]
"""

import random
import sys

from toricbundles import (
    CharacteristicPair,
    RingConsistencyError,
    build_bundle_ring,
    build_ring,
    chern_numbers,
    chern_numbers_localized,
    compare,
    equivariant_total_chern,
    forget,
    masuda_check,
    presentation_from_fan,
    total_chern_general,
    total_chern_intrinsic,
    twisting_from_principal,
)
from toricbundles.corpus import (
    projective_line,
    projective_plane,
    quadric_surface,
    random_unimodular,
    transform_instance,
    TwistInstance,
)
from toricbundles.equivariant import ordinary_ring
from toricbundles.lattice import mat_vec
from toricbundles.twist import (
    make_plmap,
    principal_classes,
    tautological_pair,
    twisted_fan,
    twisted_pair,
)


def moved_pair_holds(pair: CharacteristicPair, u) -> bool:
    """The pair with its charmap moved by u passes the Masuda check, and
    its ordinary ring certifies and takes the equivariant class to its
    intrinsic one."""
    charmap = tuple(mat_vec(u, v) for v in pair.charmap)
    moved = CharacteristicPair(complex=pair.complex, charmap=charmap)
    try:
        ring = ordinary_ring(moved)
    except RingConsistencyError:
        return False
    return masuda_check(moved).passed and forget(
        moved, equivariant_total_chern(moved)
    ) == total_chern_intrinsic(ring)


def main(trials: int = 25, seed: int = 7, max_entry: int = 3) -> int:
    rng = random.Random(seed)
    moves = random.Random(f"charmap moves {seed}")
    bases = [("P1", projective_line()), ("P2", projective_plane()),
             ("P1xP1", quadric_surface())]
    fibers = [("P1", projective_line()), ("P2", projective_plane())]
    failures = 0
    for trial in range(trials):
        bname, base = rng.choice(bases)
        fname, fiber = rng.choice(fibers)
        values = [
            [rng.randint(-max_entry, max_entry) for _ in range(fiber.dim)]
            for _ in range(base.ray_count)
        ]
        phi = make_plmap(fiber.dim, values)
        name = f"trial {trial}: base {bname}, fiber {fname}, phi {values}"
        report = compare(base, fiber, phi, name)
        gauss = report.euler_intrinsic == report.euler_expected
        pres = presentation_from_fan(base)
        bundle = build_bundle_ring(
            pres, twisting_from_principal(pres, principal_classes(phi)), fiber
        )
        presented = chern_numbers(
            bundle, total_chern_general(bundle)
        ) == report.intrinsic_numbers
        localized = chern_numbers_localized(
            twisted_fan(base, fiber, phi).twisted
        ) == report.intrinsic_numbers
        inst = TwistInstance(name, base, fiber, phi)
        moved = transform_instance(inst, random_unimodular(fiber.dim, rng))
        moved_ring = build_ring(
            twisted_fan(moved.base, moved.fiber, moved.phi).twisted
        )
        invariant = chern_numbers(
            moved_ring, total_chern_intrinsic(moved_ring)
        ) == report.intrinsic_numbers
        pair = twisted_pair(
            tautological_pair(base), tautological_pair(fiber), phi
        )
        quasitoric = moved_pair_holds(
            pair, random_unimodular(pair.complex.dim, moves)
        )
        ok = (report.equal and presented and localized and gauss
              and invariant and quasitoric)
        mark = "ok" if ok else "FAIL"
        print(f"[{mark}] {name}  chi={report.euler_intrinsic}")
        if not ok:
            failures += 1
    print(f"\n{trials - failures}/{trials} random twists verified")
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:4]]
    sys.exit(main(*args))
