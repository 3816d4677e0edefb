"""Seeded request inputs for the four benchmark workloads.

Every fan, piecewise-linear map, characteristic pair and twisting file is
built here from the seed, as text in the CLI's file grammars, without
calling the library.  The five base presentations are fixed data files in
``bases/``.  Each generator yields requests whose twisted or total fans
are pairwise distinct, so no request is served from an earlier request's
``build_ring`` or ``validate`` cache.

A request is ``(command, files, expect)``: the CLI subcommand, the input
files as ``(suffix, text)`` pairs in argument order, and what the oracle
needs to know about the answer.
"""

from __future__ import annotations

import itertools
import os
import random

BASES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bases")


class StdFan:
    """A smooth complete fan as plain data: rays and maximal cones."""

    def __init__(self, name, dim, rays, cones):
        self.name = name
        self.dim = dim
        self.rays = [tuple(r) for r in rays]
        self.cones = [tuple(sorted(c)) for c in cones]

    def text(self, extra_lines=()):
        lines = [f"dim {self.dim}", "rays"]
        lines += [" ".join(map(str, r)) for r in self.rays]
        lines.append("max_cones")
        lines += [" ".join(map(str, c)) for c in self.cones]
        lines += list(extra_lines)
        return "\n".join(lines) + "\n"


def projective(n):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = itertools.combinations(range(n + 1), n)
    return StdFan(f"P{n}", n, rays, cones)


def product(f, g):
    rays = [r + (0,) * g.dim for r in f.rays]
    rays += [(0,) * f.dim + r for r in g.rays]
    shift = len(f.rays)
    cones = [s + tuple(i + shift for i in t) for s in f.cones for t in g.cones]
    return StdFan(f"{f.name}x{g.name}", f.dim + g.dim, rays, cones)


def twisted(base, fiber, phi):
    """Rays (v, phi(v)) then (0, w); maximal cones all unions."""
    rays = [v + phi[i] for i, v in enumerate(base.rays)]
    rays += [(0,) * base.dim + w for w in fiber.rays]
    shift = len(base.rays)
    cones = [
        s + tuple(i + shift for i in t) for s in base.cones for t in fiber.cones
    ]
    return StdFan(f"{base.name}~{fiber.name}", base.dim + fiber.dim, rays, cones)


P1, P2, P3, P4 = (projective(n) for n in (1, 2, 3, 4))
P1xP1 = product(P1, P1)
P2xP1 = product(P2, P1)
BASES = (P2, P3, P4, P1xP1, P2xP1)
FIBERS = (P1, P2, P3, P1xP1)
PHI_RANGE = 3


def combos(total_dims):
    """(base, fiber) pairs of the given total dimensions, in fixed order."""
    return [
        (b, f) for b in BASES for f in FIBERS if b.dim + f.dim in total_dims
    ]


def phi_text(phi):
    lines = [f"fiber_rank {len(phi[0])}", "values"]
    lines += [" ".join(map(str, (i,) + v)) for i, v in enumerate(phi)]
    return "\n".join(lines) + "\n"


def _fresh_phi(rng, base, fiber, seen):
    """A phi with entries in [-3, 3] whose twisted fan is new to this run."""
    while True:
        phi = tuple(
            tuple(rng.randint(-PHI_RANGE, PHI_RANGE) for _ in range(fiber.dim))
            for _ in base.rays
        )
        key = (base.name, fiber.name, phi)
        if key not in seen:
            seen.add(key)
            return phi


def _round_robin(rng, pairs):
    """Cycle through pairs so every run sees the same mix of sizes."""
    seen = set()
    for i in itertools.count():
        base, fiber = pairs[i % len(pairs)]
        yield base, fiber, _fresh_phi(rng, base, fiber, seen)


def twist_compare(seed):
    rng = random.Random(f"twist-compare/{seed}")
    for base, fiber, phi in _round_robin(rng, combos({5})):
        total = twisted(base, fiber, phi)
        files = [("fan", base.text()), ("fan", fiber.text()),
                 ("phi", phi_text(phi))]
        yield "compare", files, {"dim": total.dim, "cones": len(total.cones)}


def random_surface(rng, ray_count):
    """Star subdivisions of P2 at random 2-cones until ray_count rays."""
    rays = list(P2.rays)  # in cyclic order around the origin
    while len(rays) < ray_count:
        i = rng.randrange(len(rays))
        a, b = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (a[0] + b[0], a[1] + b[1]))
    n = len(rays)
    return StdFan("surface", 2, rays, [(i, (i + 1) % n) for i in range(n)])


SURFACE_RAYS = 14


def surfaces(seed):
    rng = random.Random(f"surfaces/{seed}")
    seen = set()
    while True:
        fan = random_surface(rng, SURFACE_RAYS)
        key = tuple(fan.rays)
        if key in seen:
            continue
        seen.add(key)
        yield "chern", [("fan", fan.text())], {"dim": 2, "cones": len(fan.cones)}


def base_presentation_text(base):
    with open(os.path.join(BASES_DIR, f"{base.name}.pres"), encoding="utf-8") as fh:
        return fh.read()


def twisting_text(base, phi):
    """One class sum_rho phi(v_rho)[i] x_rho per fiber coordinate i."""
    lines = ["classes"]
    for i in range(len(phi[0])):
        terms = [f"{v[i]}*x{rho}" for rho, v in enumerate(phi) if v[i]]
        lines.append(" + ".join(terms) if terms else "0")
    return "\n".join(lines) + "\n"


def presented_bundle(seed):
    rng = random.Random(f"presented-bundle/{seed}")
    texts = {b.name: base_presentation_text(b) for b in BASES}
    for base, fiber, phi in _round_robin(rng, combos({5, 6})):
        files = [("pres", texts[base.name]), ("cls", twisting_text(base, phi)),
                 ("fan", fiber.text())]
        expect = {"dim": base.dim + fiber.dim,
                  "cones": len(base.cones) * len(fiber.cones)}
        yield "bundle", files, expect


def equivariant(seed):
    """Tautological characteristic pairs of twisted fans."""
    rng = random.Random(f"equivariant/{seed}")
    for base, fiber, phi in _round_robin(rng, combos({4, 5})):
        total = twisted(base, fiber, phi)
        charmap = ["charmap"] + [" ".join(map(str, r)) for r in total.rays]
        files = [("pair", total.text(charmap))]
        yield "equivariant", files, {"dim": total.dim, "cones": len(total.cones)}


WORKLOADS = {
    "twist-compare": twist_compare,
    "surfaces": surfaces,
    "presented-bundle": presented_bundle,
    "equivariant": equivariant,
}
# Requests per round of each workload's input mix.
CYCLE = {
    "twist-compare": len(combos({5})),
    "surfaces": 1,
    "presented-bundle": len(combos({5, 6})),
    "equivariant": len(combos({4, 5})),
}
