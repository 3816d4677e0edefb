"""Shared fixtures-by-hand and independent oracles for the test suite.

The oracles deliberately avoid the library's reduction machinery: the
determinant oracle expands over permutations, and the surface oracle
computes c1^2 from the classical fan-walk rules (adjacent divisors meet
once, self-intersections from the wall relation v_prev + v_next = a*v).
``AllFaceMonomialRing`` is the reference for rings with linear relations:
it eliminates over every face monomial of each degree, as the library did
before it rewrote repeated exponents into squarefree face monomials.
``AllFaceMonomialBundleRing`` is the same reference for the bundle ring:
every face monomial up to fiber degree 2n is a column, and reduction
carries the lambda terms down degree by degree, as the library did before
the bundle ring ran on the fiber ring's squarefree columns.
``multipass_eliminate`` is the reference for ``graded_eliminate``: it
rescans every column in passes, defers a column whose residual gcd is
not a unit, and pushes each new pivot into the earlier pivot rows, as
the library did before it certified each graded piece in one pass; both
reference rings eliminate with it.  ``grown_face_monomials`` is the
reference for a face ring's columns and gives both reference rings
theirs: it regrows each degree's face monomials by recursion over
frozenset supports, as the library did before it made every degree in
one pass.
``subset_minimal_nonfaces`` is the reference for minimal non-faces: it
tries every subset of the rays, as the library did before it grew them
from the faces.
``subset_faces`` is the reference for the face set: every subset of every
maximal cone as a frozenset, as the library kept faces before they became
ray bitmasks from one submask walk; ``ray_sets`` turns a ring's
``face_masks`` into those frozensets.  ``FrozensetWalkRing`` and
``FrozensetWalkBundleRing`` are the references for the interval walk and
the relation rows on those bitmasks: they walk each interval [bad(sigma),
sigma] as frozenset unions, build a monomial per face, test faces against
``subset_faces`` and address each row's terms by monomial, as the library
did before.
``naive_restrict`` and ``naive_substitute`` are the references for
fixed-point localization: they expand every monomial as a fresh product
of linear forms, as the library did before one memoised substitution per
cone, in ``TupleWeightPolynomial`` arithmetic; ``reference_of`` reads a
library polynomial's terms into that reference to compare.
``pairwise_validate`` is the reference for ``validate``: it decides
well-formedness by a Fourier-Motzkin search for a separating hyperplane
between every two maximal cones and completeness by wall counts and
adjacency, as the library did before it certified complete fans from one
dual basis per cone (and still does for the fans that certificate
rejects).  ``hnf_inverse`` is the reference for the dual rows of a
unimodular cone: the transform of the Hermite normal form, as the library
computed the inverse before it read it off the adjugate.
``hermite_normal_form``
(with its ``_xgcd``) and ``congruent_mod_form`` live here because only
tests call them: the GKM wall check restricts at the two cones of a wall
and compares modulo the weight of the missing ray.
``TupleWeightPolynomial`` is the reference for ``WeightPolynomial``: the
same terms, equality, hash and substitution on tuple-keyed terms, as the
library stored weight polynomials before it packed each monomial into
one integer, and the same text, each monomial by
``reference_monomial_text``.  It keeps the sums, products, constants and
linear forms the library's class no longer has, and every reference
polynomial is built with them.
``reference_monomial_text`` is the reference for ``monomial_texts``: one
monomial at a time, each factor's text formatted anew, as the library
rendered monomials before a batch shared one table of factor texts.
``monomial_to_text`` and ``polynomial_to_text`` render one monomial and
one polynomial through ``monomial_texts``, for the tests that parse
polynomial text back; the library renders only batches.
``pair_to_text`` and ``plmap_to_text`` write a characteristic pair and a
piecewise-linear map in the pair and phi file grammars, for the tests
that run the CLI on them or parse them back; the library only parses
those files.
``RewrittenProductRing`` and ``RewrittenProductBundleRing`` are the
references for the relation rows: they build n rows per squarefree face
monomial x_tau, the normal forms of x_tau times each relation, and carry
the matching lambda cofactors in the bundle ring, as the library did
before it took each cone's dual rows; their columns come from
``squarefree_monomials``, a scan of every face, and their basis from
``plan_monomials``, not from the library's walk of the plan's intervals.
``star_subdivision_cases`` (seeded star subdivisions of the non-projective
threefold, P3, P4, (P1)^3 and (P1)^4, by ``scripts/random_twists.py``'s
generator, which ``load_script`` loads) and
``charmap_pair_cases`` (seeded charmaps that are no linear image of the
rays, by ``random_charmap_pair``) are the inputs both references check
the library's rows on.  ``bundle_cases``,
``random_base_class`` and ``random_fiber_poly`` are the bundle rings and
seeded coefficients both bundle-ring references run on, and
``random_face_poly`` the seeded polynomials of the fan-ring reference.
``dim5_twists`` are the seeded twisted fans both Chern-number reference
tests run on, and ``dim5_twist_data`` their (base, fiber, phi).
``left_to_right_chern_numbers`` is the reference for ``chern_numbers``:
it multiplies the Chern classes of each partition left to right and
integrates the top component, as the library did before it split each
partition in two and paired the halves.
``sweeping_basis_plan`` is the reference for ``fixed_point_basis_plan``:
it sweeps the moment curve for the first point whose restriction sets
are distinct and count the h-vector, as the library did before it read
the plan at the fan's cached first generic point; ``generic_coordinates``
is its sweep, every point off the walls in turn, where the library stops
at the first, and it gives up after ``SWEEP_POINTS`` of them.
``summed_product`` is the reference for a presentation's products: it
sums the basis products of ``basis_products`` and reduces them by the
pivots, as the library did before every product read one table of
normal forms.
``PerDegreeClass`` is the reference for a class's own arithmetic (sums,
scalar multiples, components, truth, equality, hashing and terms): one
tuple of coefficients per degree, each operation rebuilding every
degree's tuple, as the library's classes did before they held one flat
tuple over the numbered basis.
``fiber_restriction`` sets a bundle class's positive-degree base classes
to zero, which gives the fiber fan's class.
``nonprojective_threefold`` is a smooth complete fan that no polytope
gives, the one input where the plan's interval argument (which needs
completeness only) and a shelling argument (which needs a polytope)
part ways.
``matrix``, ``transpose``, ``mat_mul`` and the Bareiss ``determinant`` are
the suite's dense-matrix references; the library reads determinants off
``det_adjugate`` alone and no longer carries them.
``clear_fan_caches`` empties the per-fan record ``fan.tables`` and the
two per-pair caches at once, for the tests that count work on a cold
fan, and ``fresh_ring`` builds a fan's ring past them.
"""

import importlib.util
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from operator import add, mul
from pathlib import Path

from toricbundles import (
    BasePresentation,
    CharacteristicPair,
    TwistingClasses,
    build_ring,
    make_fan,
    make_plmap,
    presentation_from_fan,
    principal_classes,
    product_fan,
    twisted_fan,
    twisting_from_principal,
)
from toricbundles.bundlering import BundleRing
from toricbundles.chern import partitions
from toricbundles.cohomology import (
    CohomologyClass,
    GradedPiece,
    GradedQuotientRing,
    RingConsistencyError,
    linear_relations,
)
from toricbundles.corpus import corpus_instances
from toricbundles.faces import face_monomial_sum, mask_rays
from toricbundles.equivariant import fixed_point_weights, ordinary_ring
from toricbundles.fan import (
    ValidationReport,
    _meet_in_face,
    moment_curve,
    tables,
)
from toricbundles.formats import fan_to_text, join_terms, monomial_texts
from toricbundles.lattice import (
    IntMatrix,
    IntVector,
    identity,
    is_primitive,
    vector,
)
from toricbundles.twist import weight_table


def clear_fan_caches():
    """Empty the per-fan caches together: the ``tables`` record of every
    fan (its dual table, generic point, validation report, ring and total
    class), the pair rings and the weight tables.  A pair ring may be a
    fan's ring, and a ring keeps the dual rows it was built with, so
    clearing one of these alone leaves the others holding stale
    objects."""
    for cached in (tables, ordinary_ring, weight_table):
        cached.cache_clear()


def fresh_ring(f):
    """``build_ring(f)`` built anew, after ``clear_fan_caches``: every
    piece is eliminated again, on the fan's tables built again."""
    clear_fan_caches()
    return build_ring(f)


def p1():
    return make_fan(1, [[1], [-1]], [[0], [1]])


def p2():
    return make_fan(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [0, 2], [1, 2]])


def projective_space(n):
    rays = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
    cones = [[j for j in range(n + 1) if j != i] for i in range(n + 1)]
    return make_fan(n, rays, cones)


def p1_power(n):
    fan = p1()
    for _ in range(n - 1):
        fan = product_fan(fan, p1())
    return fan


def square_fan():
    return product_fan(p1(), p1())


def dp6():
    return make_fan(
        2,
        [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
        [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]],
    )


def cp2_sharp_cp2():
    """The quasitoric CP2#CP2: the square's cones with a charmap of cone
    determinants 1, 1, -1, -1, which no fan's rays give."""
    square = make_fan(2, [[1, 0], [0, 1], [-1, 0], [0, -1]],
                      [[0, 1], [1, 2], [2, 3], [3, 0]])
    return CharacteristicPair(
        complex=square, charmap=((1, 0), (1, 1), (0, 1), (1, -1)))


def nonprojective_threefold():
    """A smooth complete threefold with 14 rays and 24 cones, not projective.

    Nine wall relations with positive weights 3, 6, 3/2, 4, 7, 1, 20, 10
    and 5/2 sum to zero, so no strictly convex support function exists.
    """
    rays = [[1, 0, 2], [2, 1, 3], [3, 2, 1], [0, -1, 2], [1, 2, 1],
            [-1, 0, -3], [2, 1, 2], [0, 1, -1], [1, 1, 2], [1, 0, 3],
            [1, 1, -1], [1, 1, 1], [0, 0, -1], [2, 1, 1]]
    cones = [[1, 2, 6], [0, 2, 6], [0, 1, 6], [3, 5, 7], [3, 4, 7],
             [0, 1, 4], [3, 4, 8], [0, 4, 8], [3, 8, 9], [0, 8, 9],
             [0, 3, 9], [1, 5, 10], [1, 2, 10], [5, 7, 11], [1, 5, 11],
             [4, 7, 11], [1, 4, 11], [0, 2, 3], [5, 10, 12], [3, 10, 12],
             [3, 5, 12], [3, 10, 13], [2, 10, 13], [2, 3, 13]]
    return make_fan(3, rays, cones)


def load_script(name):
    """A module of ``scripts/``, loaded by path (its ``main`` is not run)."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def is_linear_image_of_rays(pair):
    """Whether the charmap is U times the rays for one rational matrix U,
    read off the first maximal cone, so that the pair is toric in disguise."""
    f = pair.complex
    cone = sorted(f.max_cones[0])
    for i in range(f.dim):
        # solve u . rays[rho] = charmap[rho][i] on the cone, then test all rays
        rows = [list(map(Fraction, f.rays[rho])) + [Fraction(pair.charmap[rho][i])]
                for rho in cone]
        for c in range(f.dim):
            pivot = next(r for r in range(c, f.dim) if rows[r][c])
            rows[c], rows[pivot] = rows[pivot], rows[c]
            rows[c] = [x / rows[c][c] for x in rows[c]]
            for r in range(f.dim):
                if r != c and rows[r][c]:
                    rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
        u = [row[-1] for row in rows]
        if any(sum(map(mul, u, ray)) != value[i]
               for ray, value in zip(f.rays, pair.charmap)):
            return False
    return True


def random_charmap_pair(fan, rng, moves=12):
    """A characteristic pair on a smooth fan whose charmap is not a linear
    image of the rays: each move adds a vector with entries in -2..2 to
    one ray's value and is kept when every maximal cone's values still
    have determinant +-1.  Returns None if no move gives a non-toric pair.
    """
    charmap = [tuple(r) for r in fan.rays]
    for _ in range(moves):
        rho = rng.randrange(fan.ray_count)
        old = charmap[rho]
        charmap[rho] = tuple(x + rng.randint(-2, 2) for x in old)
        if any(abs(determinant([list(charmap[i]) for i in sorted(cone)])) != 1
               for cone in fan.max_cones if rho in cone):
            charmap[rho] = old
    pair = CharacteristicPair(complex=fan, charmap=tuple(charmap))
    return None if is_linear_image_of_rays(pair) else pair


def star_subdivision_cases(per_fan=10):
    """Seeded star subdivisions, 1 to 3 steps, of the non-projective
    threefold, P3, P4, (P1)^3 and (P1)^4, by the generator that
    ``scripts/random_twists.py`` runs on the threefold."""
    subdivide = load_script("random_twists").random_star_subdivision
    rng = random.Random("star subdivisions")
    fans = [("non-projective threefold", nonprojective_threefold()),
            ("P3", projective_space(3)), ("P4", projective_space(4)),
            ("(P1)^3", p1_power(3)), ("(P1)^4", p1_power(4))]
    return [(f"{name} star {k}",
             subdivide(fan, rng, rng.randint(1, 3)))
            for name, fan in fans for k in range(per_fan)]


def charmap_pair_cases(per_fan=5):
    """Seeded non-toric charmaps on P2, the square, dP6, P3, (P1)^3 and
    star surfaces with 5 to 8 rays."""
    rng = random.Random("non-toric charmaps")
    fans = [("P2", p2()), ("square", square_fan()), ("dP6", dp6()),
            ("P3", projective_space(3)), ("(P1)^3", p1_power(3))]
    fans += [(f"star surface {k}", star_surface(k, rng)) for k in range(5, 9)]
    cases = []
    for name, fan in fans:
        pairs = []
        while len(pairs) < per_fan:
            pair = random_charmap_pair(fan, rng)
            if pair is not None:
                pairs.append(pair)
        cases += [(f"{name} charmap {k}", p) for k, p in enumerate(pairs)]
    return cases


def cone_vectors(vectors, cone):
    """The vectors of a cone's rays as matrix rows, in sorted ray order."""
    return tuple(vectors[i] for i in sorted(cone))


def quasitoric_pairs():
    """Pairs on toric complexes whose charmap is not the rays."""
    return [
        ("P2 alt charmap", CharacteristicPair(
            complex=projective_space(2), charmap=((1, 0), (1, 1), (0, -1)))),
        ("P3 alt charmap", CharacteristicPair(
            complex=projective_space(3),
            charmap=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)))),
        ("(P1)^2 alt charmap", CharacteristicPair(
            complex=p1_power(2), charmap=((1, 0), (-1, 2), (0, 1), (0, -1)))),
    ]


def dim5_twists(count, seed):
    """Seeded twisted fans of dimension 5 over P2..P4, P1xP1 and P2xP1."""
    for base, fiber, phi in dim5_twist_data(count, seed):
        yield twisted_fan(base, fiber, phi)


def dim5_twist_data(count, seed):
    """The (base, fiber, phi) of each of ``dim5_twists(count, seed)``."""
    shapes = [
        (projective_space(2), projective_space(3)),
        (projective_space(3), projective_space(2)),
        (projective_space(3), p1_power(2)),
        (projective_space(4), projective_space(1)),
        (p1_power(2), projective_space(3)),
        (product_fan(projective_space(2), projective_space(1)),
         projective_space(2)),
        (product_fan(projective_space(2), projective_space(1)), p1_power(2)),
    ]
    rng = random.Random(f"chern numbers/dim-5 twists/{seed}")
    for k in range(count):
        base, fiber = shapes[k % len(shapes)]
        phi = make_plmap(fiber.dim, [
            [rng.randint(-2, 2) for _ in range(fiber.dim)]
            for _ in range(base.ray_count)
        ])
        yield base, fiber, phi


def thousand_wall_surface():
    """The 1003-ray surface: rays (1, 0), (1, k) for k = 1..999, (0, 1),
    (-1, 0) and (0, -1), in cyclic order, and consecutive cones.  The cone
    of (1, k - 1) and (1, k) has the dual rows (k, -1) and (1 - k, 1), so
    the moment-curve point (1, t) lies on a wall for every t <= 999, and
    the first generic point is t = 1000."""
    rays = [[1, 0]] + [[1, k] for k in range(1, 1000)]
    rays += [[0, 1], [-1, 0], [0, -1]]
    r = len(rays)
    return make_fan(2, rays, [[i, (i + 1) % r] for i in range(r)])


def star_surface(ray_count, rng):
    """A smooth complete surface: star subdivisions of P2 at random 2-cones.

    Rays stay in cyclic order, so the maximal cones are consecutive pairs.
    """
    rays = [(1, 0), (0, 1), (-1, -1)]
    while len(rays) < ray_count:
        i = rng.randrange(len(rays))
        a, b = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (a[0] + b[0], a[1] + b[1]))
    n = len(rays)
    return make_fan(2, rays, [[i, (i + 1) % n] for i in range(n)])


def blow_up(fan, cone):
    """The star subdivision of the maximal cone ``cone``, the blow-up at its
    fixed point: one new ray, the sum of the cone's rays, and the cone
    replaced by the cones cone - {rho} + {new ray}, rho in the cone."""
    new = len(fan.rays)
    ray = [sum(fan.rays[rho][i] for rho in cone) for i in range(fan.dim)]
    cones = []
    for other in fan.max_cones:
        cones += ([sorted(cone - {rho}) + [new] for rho in sorted(cone)]
                  if other == cone else [sorted(other)])
    return make_fan(fan.dim, [list(r) for r in fan.rays] + [ray], cones)


def p1_presentation():
    """Z[h]/(h^2) with c(TB) = 1 + 2h."""
    return BasePresentation(
        name="P1",
        generators=[("h", 2)],
        relations=[{(2,): 1}],
        basis={0: [(0,)], 1: [(1,)]},
        top_degree=2,
        integration=1,
        chern={(0,): 1, (1,): 2},
    )


def p2_presentation():
    """Z[h]/(h^3) with c(TB) = 1 + 3h + 3h^2."""
    return BasePresentation(
        name="P2",
        generators=[("h", 2)],
        relations=[{(3,): 1}],
        basis={0: [(0,)], 1: [(1,)], 2: [(2,)]},
        top_degree=4,
        integration=1,
        chern={(0,): 1, (1,): 3, (2,): 3},
    )


# The P1 presentation Z[h]/(h^2), as a presentation file.
P1_PRESENTATION = """\
name P1
top_degree 2
generators
h 2
relations
h^2
basis
0 : 1
2 : h
integration 1
chern
1 + 2*h
"""

# The P2 presentation by its three ray classes, as a presentation file.
P2_PRESENTATION = """\
name P2
top_degree 4
generators
x0 2
x1 2
x2 2
relations
x0*x1*x2
-x2 + x0
-x2 + x1
basis
0 : 1
2 : x2
4 : x0*x2
integration 1
chern
1 + x2 + x1 + x0 + x1*x2 + x0*x2 + x0*x1
"""


def left_to_right_chern_numbers(ring, total):
    """Integrals of all monomials in the Chern classes, keyed by partition.

    ``ring`` is a GradedQuotientRing or a BundleRing; ``ring.dim`` is the
    complex dimension.
    """
    n = ring.dim
    components = [total.component(k) for k in range(n + 1)]
    out = {}
    for part in partitions(n):
        cls = components[part[0]] if part else ring.unit()
        for k in part[1:]:
            cls = cls * components[k]
        out[part] = ring.integrate(cls.component(n))
    return out


def generic_coordinates(duals, dim):
    """Yield, for each moment-curve point off every cone's walls, in order
    of t, the pairings <dual row, point> of each cone, one list per cone.

    A point lies on a wall of a cone exactly when it pairs to 0 with one
    of the cone's dual rows.  The sweep does not end: on nondegenerate
    cones all but finitely many points are off the walls.
    """
    for point in moment_curve(dim):
        coordinates = []
        for dual in duals:
            coords = [sum(map(mul, row, point)) for row in dual]
            if 0 in coords:
                break
            coordinates.append(coords)
        else:
            yield coordinates


def basis_products(pieces, a_parts, b_parts, cap: int):
    """Yield (m1*m2, c1, c2) over the nonzero basis terms of per-degree
    parts a and b, skipping products of degree above ``cap``."""
    for d1, part1 in enumerate(a_parts):
        if not any(part1):
            continue
        for m1, c1 in zip(pieces[d1].basis, part1):
            if not c1:
                continue
            for d2 in range(min(cap - d1, len(pieces) - 1) + 1):
                for m2, c2 in zip(pieces[d2].basis, b_parts[d2]):
                    if c2:
                        yield tuple(map(add, m1, m2)), c1, c2


@dataclass(frozen=True)
class PerDegreeClass:
    """Per-degree coefficients over a ring's basis monomials; a bundle
    class's coefficients are PerDegreeClass over the base."""

    ring: object
    parts: tuple

    @classmethod
    def of(cls, c):
        """The reference class of a library class, its coefficients too."""
        return cls(c.ring, tuple(
            tuple(x if isinstance(x, int) else cls.of(x) for x in part)
            for part in c.parts))

    def component(self, k):
        return PerDegreeClass(self.ring, tuple(
            tuple(c.component(k - d) for c in part)
            if part and not isinstance(part[0], int)
            else part if d == k else (0,) * len(part)
            for d, part in enumerate(self.parts)))

    def to_poly(self):
        return {
            mono: coeff
            for d, part in enumerate(self.parts)
            for mono, coeff in zip(self.ring.basis_monomials(d), part)
            if coeff
        }

    def __bool__(self):
        return any(map(any, self.parts))

    def __add__(self, other):
        assert self.ring is other.ring
        return PerDegreeClass(self.ring, tuple(
            tuple(x + y for x, y in zip(p, q))
            for p, q in zip(self.parts, other.parts)))

    def __neg__(self):
        return (-1) * self

    def __sub__(self, other):
        return self + -other

    def __rmul__(self, scalar):
        return PerDegreeClass(self.ring, tuple(
            tuple(scalar * x for x in p) for p in self.parts))

    def __eq__(self, other):
        return (isinstance(other, PerDegreeClass)
                and self.ring is other.ring and self.parts == other.parts)

    def __hash__(self):
        return hash((id(self.ring), self.parts))


def summed_product(ring, a, b):
    """a * b as the ring skeleton formed it before its table of normal
    forms: the basis products summed into one polynomial, each degree's
    terms then reduced by a walk over all of its pivots, in column order.
    Every monomial must be a column and no pivot may carry a payload, as
    in a presentation."""
    poly = {}
    for prod, c1, c2 in basis_products(ring._degrees, a.parts, b.parts,
                                       ring.monomial_cap):
        poly[prod] = poly.get(prod, 0) + c1 * c2
    parts = []
    for d, piece in enumerate(ring._degrees):
        work = {piece.index[mono]: coeff for mono, coeff in poly.items()
                if ring._degree(mono) == d}
        for col, row in sorted(piece.pivots.items()):
            c = work.get(col, 0)
            for k, v in row.items():
                work[k] = work.get(k, 0) - c * v
        parts.append(tuple(work.get(i, 0) for i in piece.basis_positions))
    return CohomologyClass(ring, tuple(parts))


SWEEP_POINTS = 999
"""How many generic moment-curve points ``sweeping_basis_plan`` tries."""


def sweeping_basis_plan(f, h_expected):
    """The fixed-point basis plan from the first moment-curve point whose
    negative-coordinate ray sets are distinct and count ``h_expected``:
    those sets, in ``max_cones`` order.  Only the first ``SWEEP_POINTS``
    generic points are tried."""
    cones = [sorted(cone) for cone in f.max_cones]
    sweep = generic_coordinates(tables(f).duals.rows, f.dim)
    for coordinates in itertools.islice(sweep, SWEEP_POINTS):
        sets = [
            frozenset(rho for rho, c in zip(cone_sorted, coords) if c < 0)
            for cone_sorted, coords in zip(cones, coordinates)
        ]
        counts = [0] * (f.dim + 1)
        for tau in sets:
            counts[len(tau)] += 1
        if len(set(sets)) == len(sets) and counts == list(h_expected):
            return sets
    raise RingConsistencyError(
        f"none of the first {SWEEP_POINTS} generic moment-curve points gives "
        "a basis plan")


def fiber_restriction(ring, cls):
    """Set the base's positive-degree classes to zero: the fiber-fan class."""
    parts = []
    for d in range(ring.fiber.dim + 1):
        parts.append(tuple(c.parts[0][0] for c in cls.parts[d]))
    return CohomologyClass(ring.fiber_ring, tuple(parts))


def subset_faces(max_cones):
    """Every face as a frozenset: each subset of each maximal cone."""
    faces = {frozenset()}
    for cone in max_cones:
        cone = tuple(sorted(cone))
        for size in range(1, len(cone) + 1):
            for subset in itertools.combinations(cone, size):
                faces.add(frozenset(subset))
    return faces


def ray_sets(face_masks):
    """Each face mask as the frozenset of its rays."""
    return {frozenset(mask_rays(mask)) for mask in face_masks}


def supported_on_a_face(ring, mono):
    """Whether the support of mono lies in one maximal cone of the ring."""
    support = {i for i, e in enumerate(mono) if e}
    return any(support <= cone for cone in ring.max_cones)


def subset_minimal_nonfaces(fan):
    """Minimal non-faces by trying all 2^rays subsets, smallest first."""
    nonfaces = []
    for size in range(1, fan.ray_count + 1):
        for subset in combinations(range(fan.ray_count), size):
            s = frozenset(subset)
            if any(s <= cone for cone in fan.max_cones):
                continue
            if any(nf < s for nf in nonfaces):
                continue
            nonfaces.append(s)
    return nonfaces


def multipass_eliminate(rows, allowed):
    """Exact integer elimination with unit pivots, in repeated passes.

    ``rows`` and the returned pivots are as in ``graded_eliminate``.  Pivot
    columns are chosen left to right among ``allowed``; a column whose
    residual gcd is not a unit is deferred, and scanning repeats until a
    pass makes no progress.  Each new pivot is pushed into every earlier
    pivot row at once.  Raises RingConsistencyError if nonzero rows remain;
    a column left without a pivot is the caller's to detect.  Rows are
    indexed by the columns they have reached, so a column reads only the
    active rows (in row order) and pivot rows that may be nonzero there.
    """
    by_col = {}  # column: ids of the rows that have been nonzero there

    def axpy(target, source, factor):
        """Row target += factor * row source, payload included."""
        vec, payload, rid = target
        for k, v in source[0].items():
            new = vec.get(k, 0) + factor * v
            if new:
                if k not in vec:
                    by_col.setdefault(k, set()).add(rid)
                vec[k] = new
            else:
                vec.pop(k, None)
        if source[1] is not None:
            for k, v in source[1].items():
                new = payload.get(k, 0) + factor * v
                if new:
                    payload[k] = new
                else:
                    payload.pop(k, None)

    active = {}  # row id: (vec, payload, row id), in row order
    for rid, (vec, payload) in enumerate(rows):
        if vec:
            active[rid] = (dict(vec), None if payload is None else dict(payload),
                           rid)
            for k in vec:
                by_col.setdefault(k, set()).add(rid)
    candidates = sorted(allowed)
    pivots = {}  # row id: pivot row, each 1 at its column, 0 at the others
    pivot_cols = {}  # column: the id of its pivot row
    progress = True
    while progress and active:
        progress = False
        for col in candidates:
            if col in pivot_cols:
                continue
            hits = [active[r] for r in sorted(by_col.get(col, ()))
                    if r in active and col in active[r][0]]
            if not hits:
                continue
            # Combine rows pairwise until one alone is nonzero at this column.
            lead = hits[0]
            for other in hits[1:]:
                while col in other[0]:
                    a, b = lead[0][col], other[0][col]
                    if abs(a) > abs(b):
                        lead, other = other, lead
                        a, b = b, a
                    axpy(other, lead, -(b // a))
                    if col in other[0]:
                        lead, other = other, lead
            for r in hits:
                if not r[0]:
                    del active[r[2]]
            g = lead[0][col]
            if g not in (1, -1):
                continue  # deferred until a later pass; may join the basis
            if g == -1:
                for part in lead[:2]:
                    for k in part or ():
                        part[k] = -part[k]
            for r in hits:
                if r is not lead and col in r[0]:
                    axpy(r, lead, -r[0][col])
                    if not r[0]:
                        del active[r[2]]
            for r in by_col[col]:
                pivot = pivots.get(r)
                if pivot is not None and col in pivot[0]:
                    axpy(pivot, lead, -pivot[0][col])
            del active[lead[2]]
            pivots[lead[2]] = lead
            pivot_cols[col] = lead[2]
            progress = True
    if any(r[0] for r in active.values()):
        raise RingConsistencyError(
            "graded piece has no unit-pivot monomial basis on the chosen "
            "columns (unexpected torsion or a wrong prescribed basis)"
        )
    return [(col, *pivots[rid][:2]) for col, rid in sorted(pivot_cols.items())]


def matrix(rows) -> IntMatrix:
    m = tuple(vector(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("matrix rows must have equal length")
    return m


def transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def determinant(m: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def permutation_determinant(m):
    """Determinant by direct expansion over permutations (n <= ~6)."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def _cyclic_ray_order(fan):
    """Ray indices of a complete surface fan in counterclockwise order."""
    def half(v):
        x, y = v
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cross(v, w):
        return v[0] * w[1] - v[1] * w[0]

    import functools

    def cmp(i, j):
        vi, vj = fan.rays[i], fan.rays[j]
        hi, hj = half(vi), half(vj)
        if hi != hj:
            return -1 if hi < hj else 1
        c = cross(vi, vj)
        return 0 if c == 0 else (-1 if c > 0 else 1)

    return sorted(range(fan.ray_count), key=functools.cmp_to_key(cmp))


def surface_c1_squared(fan):
    """Independent c1^2 of a smooth complete surface fan.

    Adjacent toric divisors meet transversally in one point; the
    self-intersection of D_i is -a_i where the cyclic neighbors satisfy
    v_prev + v_next = a_i * v_i.  Then c1^2 = sum of all pairwise products
    = 2 * (number of cones) + sum_i (-a_i).
    """
    assert fan.dim == 2
    order = _cyclic_ray_order(fan)
    r = len(order)
    cones = {frozenset(c) for c in fan.max_cones}
    total_self = 0
    for k, i in enumerate(order):
        prev_ray = fan.rays[order[(k - 1) % r]]
        next_ray = fan.rays[order[(k + 1) % r]]
        assert frozenset({i, order[(k + 1) % r]}) in cones, (
            "cyclically adjacent rays must span a cone in a complete fan"
        )
        v = fan.rays[i]
        s = tuple(a + b for a, b in zip(prev_ray, next_ray))
        coord = 0 if v[0] != 0 else 1
        assert s[coord] % v[coord] == 0, "smooth surface fans have integral walls"
        a = s[coord] // v[coord]
        assert tuple(a * e for e in v) == s
        total_self += -a
    return total_self + 2 * len(cones)


def grown_face_monomials(ray_count, faces, degree):
    """All degree-d monomials whose support is a face, x_0-heavy first,
    grown by recursion over frozenset supports for one degree at a time."""
    if degree == 0:
        return [(0,) * ray_count]
    out = []

    def grow(start, left, exps, support):
        if left == 0:
            out.append(tuple(exps))
            return
        for i in range(start, ray_count):
            new_support = support | {i}
            if new_support not in faces:
                continue
            for k in range(1, left + 1):
                exps[i] = k
                grow(i + 1, left - k, exps, new_support)
            exps[i] = 0

    grow(0, degree, [0] * ray_count, frozenset())
    return sorted(out, reverse=True)


class AllFaceMonomialRing:
    """Reference elimination over every face monomial of each degree.

    Rebuilds a library ring's graded pieces from its faces, relations and
    basis plan, with one column per face monomial and one row per (face
    monomial of degree d-1, relation); reduction and multiplication work
    on those columns directly, so no monomial is ever rewritten.
    """

    def __init__(self, ring):
        self.ring = ring
        self.degrees = []
        for d in range(ring.degree_cap + 1):
            monomials = grown_face_monomials(ring.ray_count,
                                             ray_sets(ring.face_masks), d)
            index = {m: i for i, m in enumerate(monomials)}
            rows = []
            if d >= 1:
                for mono in self.degrees[d - 1][0]:
                    for rel in ring.relations:
                        vec = {}
                        for rho, coeff in enumerate(rel):
                            bumped = mono[:rho] + (mono[rho] + 1,) + mono[rho + 1:]
                            if coeff and bumped in index:
                                vec[index[bumped]] = coeff
                        if vec:
                            rows.append((vec, None))
            planned = {index[m] for m in plan_monomials(ring, d)}
            allowed = set(range(len(monomials))) - planned
            pivots = multipass_eliminate(rows, allowed)
            assert len(pivots) == len(allowed)
            pivot_cols = {col for col, _, _ in pivots}
            basis = [i for i in range(len(monomials)) if i not in pivot_cols]
            self.degrees.append((monomials, index, pivots, basis))

    def betti(self):
        return [len(deg[3]) for deg in self.degrees]

    def basis_monomials(self, d):
        monomials, _, _, basis = self.degrees[d]
        return tuple(monomials[i] for i in basis)

    def reduce(self, poly):
        """Per-degree coefficient tuples of a polynomial's normal form."""
        parts = []
        for d, (_, index, pivots, basis) in enumerate(self.degrees):
            work = {}
            for mono, coeff in poly.items():
                if sum(mono) == d and mono in index:
                    work[index[mono]] = work.get(index[mono], 0) + coeff
            for col, row, _ in pivots:
                c = work.get(col, 0)
                if c:
                    for k, v in row.items():
                        work[k] = work.get(k, 0) - c * v
            parts.append(tuple(work.get(i, 0) for i in basis))
        return tuple(parts)

    def multiply(self, a_parts, b_parts):
        """Product of two classes given by coefficient tuples."""
        bases = [self.basis_monomials(d) for d in range(len(self.degrees))]
        poly = {}
        for d1, part1 in enumerate(a_parts):
            for m1, c1 in zip(bases[d1], part1):
                for d2, part2 in enumerate(b_parts):
                    for m2, c2 in zip(bases[d2], part2):
                        if c1 and c2:
                            prod = tuple(map(add, m1, m2))
                            poly[prod] = poly.get(prod, 0) + c1 * c2
        return self.reduce(poly)


class AllFaceMonomialBundleRing:
    """Reference bundle ring over every face monomial up to fiber degree 2n.

    Row (mono, i) is mono times the fiber part of relation i, tagged with
    that pair; the sum of a row and lambda_i * mono is zero in the ring.
    Reduction walks the fiber degrees top-down, and using row (mono, i)
    with coefficient c carries -c * lambda_i onto mono one degree lower.
    Classes are the library's CohomologyClass, with base classes as
    coefficients and components by total degree, as in every ring, so
    ``left_to_right_chern_numbers`` and class arithmetic run on it
    unchanged.
    """

    def __init__(self, base, lam, fiber):
        self.base = base
        self.lam = lam.classes
        self.fiber_ring = build_ring(fiber)
        self.n = fiber.dim
        self.dim = base.half_top + fiber.dim
        self.ray_count = fiber.ray_count
        relations = linear_relations(fiber)
        self.degrees = []
        for d in range(2 * self.n + 1):
            monomials = grown_face_monomials(
                fiber.ray_count, ray_sets(self.fiber_ring.face_masks), d
            )
            index = {m: i for i, m in enumerate(monomials)}
            rows = []
            if d >= 1:
                for mono in self.degrees[d - 1][0]:
                    for i, rel in enumerate(relations):
                        vec = {}
                        for rho, coeff in enumerate(rel):
                            bumped = mono[:rho] + (mono[rho] + 1,) + mono[rho + 1:]
                            if coeff and bumped in index:
                                vec[index[bumped]] = coeff
                        if vec:
                            rows.append((vec, {(i, mono): 1}))
            planned = set()
            if d <= self.n:
                planned = {
                    index[m] for m in self.fiber_ring.basis_monomials(d)
                }
            allowed = set(range(len(monomials))) - planned
            pivots = multipass_eliminate(rows, allowed)
            assert len(pivots) == len(allowed)
            self.degrees.append((monomials, index, pivots, sorted(planned)))
        # the numbered basis a class's flat runs over, as a ring lays it out
        bases = [self.basis_monomials(d) for d in range(self.n + 1)]
        self._basis = sum(bases, ())
        self._basis_degrees = tuple(d for d, basis in enumerate(bases)
                                    for _ in basis)
        self._offsets = tuple(itertools.accumulate(map(len, bases), initial=0))

    def rank(self, d):
        return len(self.degrees[d][3])

    def basis_monomials(self, d):
        monomials, _, _, basis = self.degrees[d]
        return tuple(monomials[i] for i in basis)

    def reduce_poly(self, poly):
        """The class of {fiber monomial of degree <= 2n: base class}."""
        zero = self.base.zero()
        work = [{} for _ in self.degrees]
        for mono, cls in poly.items():
            d = sum(mono)
            if not supported_on_a_face(self.fiber_ring, mono):
                continue  # a Stanley-Reisner monomial
            assert d < len(self.degrees), "reference columns stop at 2n"
            pos = self.degrees[d][1][mono]
            work[d][pos] = work[d].get(pos, zero) + cls
        for d in range(len(self.degrees) - 1, 0, -1):
            lower_index = self.degrees[d - 1][1]
            for col, vec, payload in self.degrees[d][2]:
                c = work[d].get(col)
                if not c:
                    continue
                for pos, coeff in vec.items():
                    work[d][pos] = work[d].get(pos, zero) - coeff * c
                for (i, mono), mult in payload.items():
                    pos = lower_index[mono]
                    carry = (-mult) * (self.lam[i] * c)
                    work[d - 1][pos] = work[d - 1].get(pos, zero) + carry
        return CohomologyClass(self, tuple(
            tuple(work[d].get(i, zero) for i in self.degrees[d][3])
            for d in range(self.n + 1)
        ))

    def unit(self):
        return self.reduce_poly({(0,) * self.ray_count: self.base.unit()})

    def multiply(self, a, b):
        poly = {}
        for d1, part1 in enumerate(a.parts):
            for m1, c1 in zip(self.basis_monomials(d1), part1):
                for d2, part2 in enumerate(b.parts):
                    for m2, c2 in zip(self.basis_monomials(d2), part2):
                        if c1 and c2:
                            prod = tuple(x + y for x, y in zip(m1, m2))
                            term = c1 * c2
                            poly[prod] = poly[prod] + term if prod in poly else term
        return self.reduce_poly(poly)

    def integrate(self, cls):
        """Fiber integral of the top basis monomial times the base integral."""
        top = self.basis_monomials(self.n)[0]
        fiber_point = self.fiber_ring.integrate(
            self.fiber_ring.reduce_poly({top: 1})
        )
        return fiber_point * self.base.integrate(cls.parts[self.n][0])

    def total_chern(self):
        """c(TB) times the sum of the fiber face monomials."""
        unit = self.base.unit()
        fiber_sum = face_monomial_sum(self.fiber_ring.face_masks,
                                      self.ray_count)
        pulled = self.reduce_poly({(0,) * self.ray_count: self.base.chern})
        return pulled * self.reduce_poly(dict.fromkeys(fiber_sum, unit))


def reference_of(poly) -> "TupleWeightPolynomial":
    """A weight polynomial's terms as the tuple-keyed reference."""
    return TupleWeightPolynomial(poly.nvars, dict(poly.terms))


def naive_substitute(poly, forms):
    """Replace each t_k of a weight polynomial by a linear form, term by
    term, in the tuple-keyed reference."""
    nvars = len(forms[0]) if forms else 0
    out = TupleWeightPolynomial(nvars)
    for exps, coeff in poly.terms.items():
        term = TupleWeightPolynomial.constant(nvars, coeff)
        for k, e in enumerate(exps):
            linear = TupleWeightPolynomial.linear(forms[k])
            for _ in range(e):
                term = term * linear
        out = out + term
    return out


def naive_restrict(pair, cls, sigma):
    """Restriction of a face-ring class to the fixed point of a cone,
    one fresh product of dual-basis weights per basis monomial, in the
    tuple-keyed reference."""
    sigma = frozenset(sigma)
    ray_to_weight = dict(zip(sorted(sigma), fixed_point_weights(pair, sigma)))
    n = pair.complex.dim
    out = TupleWeightPolynomial(n)
    for d, part in enumerate(cls.parts):
        for mono, coeff in zip(cls.ring.basis_monomials(d), part):
            support = [i for i, e in enumerate(mono) if e]
            if coeff == 0 or any(i not in sigma for i in support):
                continue
            term = TupleWeightPolynomial.constant(n, coeff)
            for i in support:
                linear = TupleWeightPolynomial.linear(ray_to_weight[i])
                for _ in range(mono[i]):
                    term = term * linear
            out = out + term
    return out


def scan_walls(f):
    """``fan.walls`` by a scan: every cone minus one ray is a wall, and each
    wall is tested against every maximal cone for the cones that hold it."""
    if f.dim == 0:
        return []
    wall_set = set()
    for cone in f.max_cones:
        for i in cone:
            wall_set.add(cone - {i})
    out = []
    for wall in sorted(wall_set, key=sorted):
        containing = tuple(
            k for k, cone in enumerate(f.max_cones) if wall <= cone
        )
        out.append((tuple(sorted(wall)), containing))
    return out


def pairwise_validate(f):
    """The flags and diagnostics of ``validate``, all by the pairwise check."""
    diagnostics = []
    well_formed = True

    seen = {}
    for i, ray in enumerate(f.rays):
        if not is_primitive(ray):
            diagnostics.append(f"ray {i} = {ray} is not primitive")
            well_formed = False
        if ray in seen:
            diagnostics.append(f"rays {seen[ray]} and {i} coincide")
            well_formed = False
        seen[ray] = i

    smooth = True
    degenerate = False
    for k, cone in enumerate(f.max_cones):
        d = determinant(cone_vectors(f.rays, cone))
        if d == 0:
            diagnostics.append(f"cone {sorted(cone)} is degenerate (determinant 0)")
            degenerate = True
        elif d not in (1, -1):
            if smooth:
                diagnostics.append(
                    f"cone {sorted(cone)} is not smooth (determinant {d})"
                )
            smooth = False
    if degenerate:
        well_formed = False
        smooth = False

    if well_formed:
        for (a, sigma), (b, tau) in itertools.combinations(
            enumerate(f.max_cones), 2
        ):
            if not _meet_in_face(f, sigma, tau):
                diagnostics.append(
                    f"cones {sorted(sigma)} and {sorted(tau)} do not meet in a face"
                )
                well_formed = False
                break

    complete = len(f.max_cones) > 0
    if not complete:
        diagnostics.append("fan has no maximal cones")
    adjacency = {k: set() for k in range(len(f.max_cones))}
    for wall, containing in scan_walls(f):
        if len(containing) != 2:
            if complete:
                diagnostics.append(
                    f"wall {list(wall)} lies in {len(containing)} maximal cones"
                )
            complete = False
        else:
            a, b = containing
            adjacency[a].add(b)
            adjacency[b].add(a)
    if complete and f.dim > 0:
        reached = {0}
        frontier = [0]
        while frontier:
            here = frontier.pop()
            for there in adjacency[here]:
                if there not in reached:
                    reached.add(there)
                    frontier.append(there)
        if len(reached) != len(f.max_cones):
            diagnostics.append("maximal-cone adjacency graph is disconnected")
            complete = False
    if complete:
        used = frozenset().union(*f.max_cones)
        for i, ray in enumerate(f.rays):
            if i not in used:
                diagnostics.append(f"ray {i} = {ray} lies in no maximal cone")
                well_formed = False

    return ValidationReport(
        simplicial=True,
        smooth=smooth,
        complete=complete,
        well_formed=well_formed,
        diagnostics=tuple(diagnostics),
    )


def hnf_inverse(m):
    """Exact inverse of a matrix with determinant +-1, from its HNF."""
    d = determinant(m)
    if d not in (1, -1):
        raise ValueError(f"matrix has determinant {d}, expected +-1")
    h, u = hermite_normal_form(m)
    if h != identity(len(m)):
        raise AssertionError("HNF of a unimodular matrix must be the identity")
    return u


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns ``(h, u)`` with ``u`` unimodular and ``u @ m == h``.  The form
    is the repo-wide convention: row echelon with positive pivots, entries
    above each pivot reduced into ``[0, pivot)``, zero rows at the bottom.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    h = [list(row) for row in m]
    u = [list(row) for row in identity(nrows)]
    r = 0
    for col in range(ncols):
        # Clear the column below row r down to a single gcd entry at (r, col).
        pivot = None
        for i in range(r, nrows):
            if h[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            h[r], h[pivot] = h[pivot], h[r]
            u[r], u[pivot] = u[pivot], u[r]
        for i in range(r + 1, nrows):
            while h[i][col] != 0:
                a, b = h[r][col], h[i][col]
                if b % a == 0:
                    q = b // a
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                else:
                    g, x, y = _xgcd(a, b)
                    p, q = a // g, b // g
                    h[r], h[i] = (
                        [x * s + y * t for s, t in zip(h[r], h[i])],
                        [-q * s + p * t for s, t in zip(h[r], h[i])],
                    )
                    u[r], u[i] = (
                        [x * s + y * t for s, t in zip(u[r], u[i])],
                        [-q * s + p * t for s, t in zip(u[r], u[i])],
                    )
        if h[r][col] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        p = h[r][col]
        for i in range(r):
            q = h[i][col] // p
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return matrix(h), matrix(u)


class TupleWeightPolynomial:
    """Integer polynomial in the degree-2 generators t_1..t_n of H*(BT)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def constant(nvars: int, value: int) -> "TupleWeightPolynomial":
        return TupleWeightPolynomial(nvars, {(0,) * nvars: value})

    @staticmethod
    def linear(coeffs: IntVector) -> "TupleWeightPolynomial":
        n = len(coeffs)
        return TupleWeightPolynomial(n, {
            tuple(int(i == k) for i in range(n)): c
            for k, c in enumerate(coeffs)
        })

    def _check(self, other):
        if not isinstance(other, TupleWeightPolynomial) or other.nvars != self.nvars:
            raise ValueError("weight polynomials live in different rings")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return TupleWeightPolynomial(self.nvars, terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            return TupleWeightPolynomial(
                self.nvars, {k: other * v for k, v in self.terms.items()}
            )
        self._check(other)
        terms = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(map(add, k1, k2))
                terms[k] = terms.get(k, 0) + v1 * v2
        return TupleWeightPolynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, TupleWeightPolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def substitute(self, forms: list[IntVector]) -> "TupleWeightPolynomial":
        """Replace each t_k by an integer linear form in new variables.

        The one expansion of products of linear forms.  Monomials are
        expanded in sorted order, each from its memoised prefix:
        x^e = x^(e - e_k) t_k for the last variable t_k of x^e costs one
        product with a linear form.
        """
        if len(forms) != self.nvars:
            raise ValueError("need one linear form per variable")
        nvars = len(forms[0]) if forms else 0
        linear = [[(j, c) for j, c in enumerate(f) if c] for f in forms]
        memo = {(0,) * self.nvars: {(0,) * nvars: 1}}

        def expand(exps):
            if exps not in memo:
                k = max(i for i, e in enumerate(exps) if e)
                prefix = expand(exps[:k] + (exps[k] - 1,) + exps[k + 1:])
                product = {}
                for m, v in prefix.items():
                    for j, c in linear[k]:
                        key = m[:j] + (m[j] + 1,) + m[j + 1:]
                        product[key] = product.get(key, 0) + v * c
                memo[exps] = product
            return memo[exps]

        out = {}
        for exps in sorted(self.terms):
            for m, v in expand(exps).items():
                out[m] = out.get(m, 0) + self.terms[exps] * v
        return TupleWeightPolynomial(nvars, out)

    def __repr__(self):
        names = [f"t{k + 1}" for k in range(self.nvars)]
        return join_terms(
            (coeff, reference_monomial_text(exps, names))
            for exps, coeff in sorted(self.terms.items(),
                                      key=lambda kv: (sum(kv[0]), kv[0]))
        )


def reference_monomial_text(exps, names) -> str:
    """A monomial as 'x0^2*x3', or '1' when every exponent is 0."""
    return "*".join(
        names[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e
    ) or "1"


def monomial_to_text(exps, names) -> str:
    """One monomial's text, by ``monomial_texts``."""
    return monomial_texts([exps], names)[0]


def polynomial_to_text(poly, names) -> str:
    """Terms by total degree, then exponents; '0' for the zero polynomial."""
    terms = sorted(poly.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    texts = monomial_texts([exps for exps, _ in terms], names)
    return join_terms(zip([coeff for _, coeff in terms], texts))


def pair_to_text(p, header: str = "") -> str:
    """The pair file of a characteristic pair: its fan file, then its
    charmap values, one line per ray."""
    lines = [fan_to_text(p.complex, header).rstrip("\n"), "charmap"]
    lines += [" ".join(str(e) for e in value) for value in p.charmap]
    return "\n".join(lines) + "\n"


def plmap_to_text(phi, header: str = "") -> str:
    """The phi file of a piecewise-linear map: its fiber rank, then one
    line per base ray, the ray index followed by its value."""
    out = [f"# {header}"] if header else []
    out += [f"fiber_rank {phi.fiber_rank}", "values"]
    out += [" ".join([str(i)] + [str(e) for e in value])
            for i, value in enumerate(phi.values)]
    return "\n".join(out) + "\n"


def congruent_mod_form(a, b, form: IntVector) -> bool:
    """Whether two weight polynomials agree modulo a primitive linear form.

    Used for the GKM-style wall consistency of fixed-point restrictions:
    rewrite in coordinates where the form becomes the first variable and
    check that the difference has no term avoiding it.
    """
    column = tuple((c,) for c in form)
    h, u = hermite_normal_form(column)
    if h[0] != (1,):
        raise ValueError(f"linear form {form} is not primitive")
    # t_k -> sum_j u[j][k] y_j turns the form into y_1.
    image = (reference_of(a) - reference_of(b)).substitute(transpose(u))
    return all(exps[0] > 0 for exps in image.terms)


def squarefree_monomials(ray_count, faces, degree):
    """The degree-d squarefree face monomials, in grown_face_monomials order,
    by a scan of every face."""
    return sorted(
        (
            tuple(1 if i in face else 0 for i in range(ray_count))
            for face in faces
            if len(face) == degree
        ),
        reverse=True,
    )


def plan_monomials(ring, degree):
    """The squarefree monomials of a basis plan's sets of one size."""
    return [tuple(1 if i in bad else 0 for i in range(ring.ray_count))
            for bad in ring.basis_plan if len(bad) == degree]


class _RewrittenProductRows:
    """n relation rows per squarefree face monomial: x_tau * rel_i, rewritten.

    Columns come from a scan of every face and the basis from the plan's
    sets, not from the ring's own interval walk.
    """

    def _build_degree(self, d: int, columns) -> GradedPiece:
        enumerate_columns = (
            squarefree_monomials if self.relations else grown_face_monomials
        )
        monomials = enumerate_columns(self.ray_count,
                                      ray_sets(self.face_masks), d)
        index = {m: i for i, m in enumerate(monomials)}
        rows = []
        if d >= 1 and self.relations:
            # Row (tau, rel) is the normal form of x_tau * rel: x_tau * x_rho
            # is a column for rho outside tau, and for rho in tau one
            # rewrite step of x_rho (on the first maximal cone containing
            # tau) gives columns x_tau * x_rho', plus the rewrite constant
            # times x_tau, which only the row payload sees.
            for tau_pos, tau in enumerate(self._degrees[d - 1].monomials):
                support = frozenset(i for i, e in enumerate(tau) if e)
                rewrite = self._rewrites[
                    next(c for c in self.max_cones if support <= c)]
                wider = {}
                for rho, e in enumerate(tau):
                    if not e:
                        pos = index.get(tau[:rho] + (1,) + tau[rho + 1:])
                        if pos is not None:
                            wider[rho] = pos
                for i, rel in enumerate(self.relations):
                    vec: dict[int, int] = {}
                    for rho, coeff in enumerate(rel):
                        if not coeff:
                            continue
                        if tau[rho]:
                            row = rewrite[rho][0]
                            for other, pos in wider.items():
                                vec[pos] = vec.get(pos, 0) + coeff * row[other]
                        elif rho in wider:
                            vec[wider[rho]] = vec.get(wider[rho], 0) + coeff
                    vec = {pos: c for pos, c in vec.items() if c}
                    if vec:
                        payload = self._row_payload(tau_pos, tau, i, rewrite)
                        rows.append((vec, payload))
        label = f"{self.kind}, degree {d}"
        return GradedPiece.build(monomials, index, rows,
                                 plan_monomials(self, d), label)


class RewrittenProductRing(_RewrittenProductRows, GradedQuotientRing):
    """A fan or pair ring rebuilt with the rewritten-product rows."""

    @classmethod
    def of(cls, ring):
        return cls(ring.relations, ring.max_cones, ring.basis_plan, ring.kind,
                   ring.inverses)

    def _row_payload(self, tau_pos, tau, i, rewrite):
        """What row (tau, relation i) carries besides its columns: nothing."""
        return None


class RewrittenProductBundleRing(_RewrittenProductRows, BundleRing):
    """A bundle ring whose row (tau, i) carries the cofactors
    c_j = delta_ij - sum_{rho in tau} rel_i[rho] inv[k_rho][j]."""

    def _row_payload(self, tau_pos, tau, i, rewrite) -> dict:
        cofactors = [int(j == i) for j in range(len(self._lam))]
        rel = self.relations[i]
        for rho, e in enumerate(tau):
            if e and rel[rho]:
                for j, inv in enumerate(rewrite[rho][1]):
                    cofactors[j] -= rel[rho] * inv
        return {(j, tau_pos): c for j, c in enumerate(cofactors) if c}


class _FrozensetWalk:
    """The interval walk and relation rows over frozenset faces.

    ``_interval_columns`` returns {size: [(monomial, home cone, greatest ray
    outside bad(home) or None)]} in walk order: each interval by size, then
    in combinations order, each face a frozenset union tested against
    ``subset_faces``.  ``_build_degree`` sorts each degree's columns and
    builds each row x_{S-rho} * (x_rho - its rewrite), addressing x_tau and
    its neighbours by monomial.
    """

    def _interval_columns(self):
        faces = subset_faces(self.max_cones)
        seen, columns = set(), {}
        for cone, bad in zip(self.max_cones, self.basis_plan):
            free = sorted(cone - bad)
            for size in range(len(free) + 1):
                for extra in combinations(free, size):
                    face = bad.union(extra)
                    mono = tuple(1 if i in face else 0
                                 for i in range(self.ray_count))
                    if face in seen or face not in faces:
                        raise RingConsistencyError(
                            f"{self.kind}, degree {len(face)}: column {mono} "
                            f"lies in the interval of cone {sorted(cone)} and "
                            + ("in another" if face in seen else "is no face")
                        )
                    seen.add(face)
                    columns.setdefault(len(face), []).append(
                        (mono, cone, extra[-1] if extra else None))
        for face in sorted(faces - seen, key=lambda f: (len(f), sorted(f))):
            mono = tuple(1 if i in face else 0 for i in range(self.ray_count))
            raise RingConsistencyError(
                f"{self.kind}, degree {len(face)}: column {mono} lies in no "
                "interval"
            )
        return columns

    def _build_degree(self, d: int, columns) -> GradedPiece:
        entries = sorted(columns.get(d, ()), reverse=True)
        monomials = [mono for mono, *_ in entries]
        index = {m: i for i, m in enumerate(monomials)}
        rows, planned = [], []
        for mono, cone, rho in entries:
            if rho is None:
                planned.append(mono)
                continue
            tau = mono[:rho] + (0,) + mono[rho + 1:]
            row, inverse_row = self._rewrites[cone][rho]
            vec = {index[mono]: 1}
            for other, a in enumerate(row):
                if a:
                    pos = index.get(tau[:other] + (1,) + tau[other + 1:])
                    if pos is not None:
                        vec[pos] = -a
            tau_pos = self._degrees[d - 1].index[tau]
            rows.append((vec, {(j, tau_pos): c for j, c in enumerate(inverse_row)
                               if c} if self._lam else None))
        return GradedPiece.build(monomials, index, rows, planned,
                                 f"{self.kind}, degree {d}")


class FrozensetWalkRing(_FrozensetWalk, GradedQuotientRing):
    """A fan or pair ring rebuilt by the frozenset walk."""

    @classmethod
    def of(cls, ring):
        return cls(ring.relations, ring.max_cones, ring.basis_plan, ring.kind,
                   ring.inverses)


class FrozensetWalkBundleRing(_FrozensetWalk, BundleRing):
    """A bundle ring rebuilt by the frozenset walk."""


def bundle_cases():
    """(name, base, twisting classes, fiber) of the reference bundle rings.

    The presentations of the corpus bases with their instances' twists,
    and the hand P1 and P2 presentations with lambda = (2h, -h, 3h) over
    the fibers P3 and (P1)^2.
    """
    cases = []
    for inst in corpus_instances():
        pres = presentation_from_fan(inst.base)
        lam = twisting_from_principal(pres, principal_classes(inst.phi))
        cases.append((inst.name, pres, lam, inst.fiber))
    for base in (p1_presentation(), p2_presentation()):
        for fiber_name, fiber in (("P3", projective_space(3)),
                                  ("(P1)^2", p1_power(2))):
            lam = TwistingClasses(classes=tuple(
                base.reduce_poly({(1,): k}) for k in (2, -1, 3)[:fiber.dim]
            ))
            cases.append((f"{base.name} hand/{fiber_name}", base, lam, fiber))
    return cases


def random_base_class(base, rng):
    poly = {}
    for k in range(base.half_top + 1):
        for mono in base.basis_monomials(k):
            poly[mono] = rng.randint(-3, 3)
    return base.reduce_poly(poly)


def random_face_poly(ring, rng, terms=8):
    """Face monomials with repeated exponents, plus terms that must vanish."""
    faces = sorted((f for f in ray_sets(ring.face_masks)
                    if len(f) <= ring.degree_cap),
                   key=lambda f: (len(f), sorted(f)))
    poly = {}
    for _ in range(terms):
        face = sorted(rng.choice(faces))
        exps = [0] * ring.ray_count
        for rho in face:
            exps[rho] = 1
        if face:
            for _ in range(rng.randint(0, ring.degree_cap - len(face))):
                exps[rng.choice(face)] += 1
        mono = tuple(exps)
        poly[mono] = poly.get(mono, 0) + rng.randint(-5, 5)
    for nonface in ring.nonfaces[:2]:
        mono = tuple(2 if i in nonface else 0 for i in range(ring.ray_count))
        poly[mono] = rng.randint(1, 5)
    above = tuple(ring.degree_cap + 1 if i == 0 else 0
                  for i in range(ring.ray_count))
    poly[above] = 7
    return poly


def random_fiber_poly(ring, rng, terms=6):
    """Fiber monomials up to degree 2n, repeated exponents, base coefficients."""
    n = ring.fiber.dim
    faces = sorted(ray_sets(ring.face_masks),
                   key=lambda f: (len(f), sorted(f)))
    poly = {}
    for _ in range(terms):
        face = sorted(rng.choice(faces))
        exps = [0] * ring.ray_count
        for rho in face:
            exps[rho] = 1
        if face:
            for _ in range(rng.randint(0, 2 * n - len(face))):
                exps[rng.choice(face)] += 1
        poly[tuple(exps)] = random_base_class(ring.base, rng)
    for nonface in ring.nonfaces[:2]:
        mono = tuple(1 if i in nonface else 0 for i in range(ring.ray_count))
        poly[mono] = random_base_class(ring.base, rng)
    return poly
