"""Seeded job lists for the three benchmark workloads, with expected answers.

Every job is a dmapreg JSON job document paired with what the benchmark
expects back.  The expectations come from how each input was built, using
the paper's tables and this directory's own exact arithmetic, never from
running dmapreg.  Each workload is stratified: a seed changes the maps,
fields and coefficients, but not how many jobs of each kind a run holds, so
the job mix is the same in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

import exact
from exact import Map2, Poly

F = Fraction
WORKLOADS = ("geometry", "classify", "oracle")

#: p_sup by case, from the paper's table; None means every finite p.
K1_SUP: Dict[str, Optional[Fraction]] = {"a": F(3), "b": F(6), "c": None}
K2_SUP: Dict[str, Optional[Fraction]] = {
    "none": F(1), "a": F(6, 5), "b": F(3, 2), "c": F(2), "d": F(3), "e": F(6), "f": None,
}
K2_ORDER = ("none", "a", "b", "c", "d", "e", "f")
BAND_EDGES = (F(6, 5), F(3, 2), F(2), F(3), F(6))

REFERENCE: Map2 = ({(2, 0): F(1), (1, 2): F(1)}, {(0, 2): F(1), (2, 1): F(1)})
#: The reference map with the sign of u^2 v flipped in the second component.
FLIPPED_REFERENCE: Map2 = ({(2, 0): F(1), (1, 2): F(1)}, {(0, 2): F(1), (2, 1): F(-1)})

#: verify job that exits 3 on every run (a quadrature-budget fault), whatever the seed.
KNOWN_FAULT_JOB = {
    "command": "verify",
    "geometry": exact.map_rows(REFERENCE),
    "field": [[0, 0, "1/9"], [1, 0, "-2/3"], [2, 0, 1]],  # (u - 1/3)^2
    "k": 1,
    "p": 1,
}

#: Untimed first job of each workload process.  Fixed, so set-up time does not
#: depend on the seed.
WARMUP_JOBS = {
    "geometry": {"command": "standardize", "geometry": exact.map_rows(REFERENCE)},
    "classify": {"command": "classify", "geometry": exact.map_rows(REFERENCE), "field": [[2, 0, 1], [1, 2, 3]]},
    "oracle": {"command": "verify", "geometry": exact.map_rows(REFERENCE), "field": [[1, 2, 1]], "k": 1},
}


@dataclass(frozen=True)
class StandardMap:
    """A map in standard form: y20 = (1,0), y02 = (0,1), y21 = (alpha, beta), y12 = (gamma, delta)."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    y: Map2

    def pair(self, j: int, k: int) -> Tuple[Fraction, Fraction]:
        return self.y[0].get((j, k), F(0)), self.y[1].get((j, k), F(0))


@dataclass
class Job:
    """A dmapreg job document and what the benchmark expects back."""

    doc: Dict[str, Any]
    expect: Dict[str, Any]


def _dyadic(rng: random.Random, bits: int, bound: int) -> Fraction:
    return F(rng.randint(-bound, bound), 2**bits)


def _nonzero(rng: random.Random, bits: int = 3, bound: int = 8) -> Fraction:
    value = F(0)
    while value == 0:
        value = _dyadic(rng, bits, bound)
    return value


# -- geometry ----------------------------------------------------------------


def positivity_margin_ok(y: Map2) -> bool:
    """Sufficient condition for det Dy > 0 on the unit square minus the origin.

    Writes mu = c11 uv + c30 u^3 + c03 v^3 + rest.  On [0,1]^2 every other
    mixed term is at most its |coefficient| times uv, a pure u-term of
    degree >= 4 at most |c| u^3, and likewise in v; so c11 > sum of mixed,
    c30 > sum of pure-u and c03 > sum of pure-v make mu positive there.
    """
    mu = exact.jacobian_det(y)
    mixed = pure_u = pure_v = F(0)
    for (j, k), c in mu.items():
        if (j, k) in ((1, 1), (3, 0), (0, 3)):
            continue
        if j >= 1 and k >= 1:
            mixed += abs(c)
        elif k == 0 and j >= 4:
            pure_u += abs(c)
        elif j == 0 and k >= 4:
            pure_v += abs(c)
        else:
            return False
    zero = F(0)
    return mu.get((1, 1), zero) > mixed and mu.get((3, 0), zero) > pure_u and mu.get((0, 3), zero) > pure_v


def perturbation_exponents(shape_rng: random.Random, max_degree: int, n_terms: int) -> List[Tuple[int, int]]:
    """One exponent of total degree max_degree and n_terms - 1 lower ones, all of degree >= 3."""
    candidates = [
        (j, d - j) for d in range(3, max_degree + 1) for j in range(d + 1) if (j, d - j) not in ((2, 1), (1, 2))
    ]
    lower = [e for e in candidates if sum(e) < max_degree]
    top = [e for e in candidates if sum(e) == max_degree]
    return [shape_rng.choice(top)] + shape_rng.sample(lower, min(n_terms - 1, len(lower)))


def standard_map(
    rng: random.Random, shape_rng: random.Random, exponents: Sequence[Tuple[int, int]], sign: str = "valid"
) -> StandardMap:
    """Random standard-form map with perturbation terms at the given exponents.

    beta and gamma, which set how far certification must subdivide, come
    from ``shape_rng``; alpha, delta and the perturbation coefficients from
    ``rng``.  ``sign`` is ``valid`` (beta, gamma > 0 and positivity by
    positivity_margin_ok, perturbations halved until it holds), ``neg_beta``
    or ``neg_gamma`` (a map that must be rejected).
    """
    beta = F(shape_rng.randint(1, 3), 4)
    gamma = F(shape_rng.randint(1, 3), 4)
    alpha = F(rng.randint(-2, 2), 16)
    delta = F(rng.randint(-2, 2), 16)
    if sign == "neg_beta":
        beta = -beta
    elif sign == "neg_gamma":
        gamma = -gamma
    extras = {e: (_nonzero(rng, 5), _nonzero(rng, 5)) for e in exponents}
    shrink = F(1)
    while True:
        y1 = {(2, 0): F(1), (2, 1): alpha, (1, 2): gamma}
        y2 = {(0, 2): F(1), (2, 1): beta, (1, 2): delta}
        for e, (c1, c2) in extras.items():
            y1[e] = c1 * shrink
            y2[e] = c2 * shrink
        y = (exact.clean(y1.items()), exact.clean(y2.items()))
        if sign != "valid" or positivity_margin_ok(y):
            return StandardMap(alpha, beta, gamma, delta, y)
        shrink /= 2


def random_affine(rng: random.Random, positive: bool) -> Tuple[Tuple[Tuple[Fraction, Fraction], ...], Tuple[Fraction, Fraction]]:
    """Invertible rational 2x2 matrix (det > 0 when ``positive``) and a shift."""
    while True:
        a, b, c, d = (F(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(4))
        det = a * d - b * c
        if det > 0 or (det < 0 and not positive):
            break
    shift = (F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2))
    return ((a, b), (c, d)), shift


def sample_points(rng: random.Random, count: int) -> List[Tuple[Fraction, Fraction]]:
    """Rational points of the unit square minus the origin."""
    return [(F(rng.randint(1, 64), 64), F(rng.randint(0, 64), 64)) for _ in range(count)]


#: One stratum per entry: (command, map kind).  75 % accepted maps, 25 % rejected.
_GEOMETRY_CYCLE = (
    ("standardize", "valid"), ("validate", "valid"), ("standardize", "valid"),
    ("validate", "valid"), ("standardize", "valid"), ("validate", "valid"),
    ("validate", "rejected"), ("standardize", "rejected"),
)
_REJECTED_KINDS = ("neg_beta", "neg_gamma", "flipped")
GEOMETRY_DEGREES = tuple(range(4, 13))


def geometry_jobs(rng: random.Random, count: int) -> List[Job]:
    # Which monomials each map carries does not depend on the seed, only their
    # coefficients do: certification cost follows the degrees, so this keeps
    # the cost mix the same from seed to seed while no map repeats.
    shapes = random.Random("geometry-shapes")
    jobs = []
    for i in range(count):
        command, kind = _GEOMETRY_CYCLE[i % len(_GEOMETRY_CYCLE)]
        stratum = i // len(_GEOMETRY_CYCLE)
        if kind == "valid":
            degree = GEOMETRY_DEGREES[stratum % len(GEOMETRY_DEGREES)]
            smap = standard_map(rng, shapes, perturbation_exponents(shapes, degree, 1 + stratum % 4))
            matrix, shift = random_affine(rng, positive=False)
            x = exact.affine_image(matrix, shift, smap.y)
            expect = {
                "kind": "accepted",
                "map": smap,
                "x00": shift,
                "T": exact.inverse2(matrix),
                "points": sample_points(rng, 6),
            }
        else:
            sub = _REJECTED_KINDS[stratum % len(_REJECTED_KINDS)]
            exponents = perturbation_exponents(shapes, 4 + stratum % 5, 1 + stratum % 3)
            y = FLIPPED_REFERENCE if sub == "flipped" else standard_map(rng, shapes, exponents, sub).y
            # det A > 0 so det Dx has the sign of det Dy at every point.
            matrix, shift = random_affine(rng, positive=True)
            x = exact.affine_image(matrix, shift, y)
            expect = {"kind": "rejected", "x": x}
        jobs.append(Job({"command": command, "geometry": exact.map_rows(x)}, expect))
    return jobs


# -- fields that stop the cascade at a chosen case ------------------------------

Form = List[Tuple[Tuple[int, int], Fraction]]


def k2_forms(smap: StandardMap) -> Dict[str, List[Form]]:
    """The order-2 conditions of each case as linear forms in the reduced field w.

    The forms of case c, say, must all vanish, with those of cases a and b,
    for the cascade to reach case c.  The lead exponent of each form comes
    first.  From the paper's table of leading parts; the u-side pairs of case
    f are component-swapped, being the u <-> v mirror of the v-side identity.
    """
    al, be, ga, de = smap.alpha, smap.beta, smap.gamma, smap.delta
    vu = [2 * a - 3 * al * b - 2 * be * g for a, b, g in zip(smap.pair(3, 1)[::-1], smap.pair(3, 0)[::-1], smap.pair(1, 2)[::-1])]
    vv = [2 * a - 3 * de * b - 2 * ga * g for a, b, g in zip(smap.pair(1, 3), smap.pair(0, 3), smap.pair(2, 1))]
    one = F(1)
    forms = {
        "a": [[((1, 0), one)], [((0, 1), one)]],
        "b": [[((1, 1), one)]],
        "c": [[((2, 1), one)], [((1, 2), one)]],
        "d": [[((3, 1), one), ((3, 0), -F(3, 2) * al)], [((1, 3), one), ((0, 3), -F(3, 2) * de)]],
        "e": [
            [((3, 0), one)], [((0, 3), one)], [((3, 1), one)], [((1, 3), one)],
            [((4, 1), one), ((4, 0), -2 * al), ((2, 2), -be)],
            [((1, 4), one), ((0, 4), -2 * de), ((2, 2), -ga)],
        ],
        "f": [
            [((5, 1), one), ((2, 2), -vu[0] / 2), ((4, 0), -vu[1]), ((3, 2), -be), ((5, 0), -F(5, 2) * al)],
            [((1, 5), one), ((2, 2), -vv[0] / 2), ((0, 4), -vv[1]), ((2, 3), -ga), ((0, 5), -F(5, 2) * de)],
        ],
    }
    return {case: [[(e, c) for e, c in form if c != 0] for form in fs] for case, fs in forms.items()}


def form_value(form: Form, w: Poly) -> Fraction:
    return sum((c * w.get(e, F(0)) for e, c in form), F(0))


def reduced_field(
    rng: random.Random, smap: StandardMap, target: str, space: Tuple[int, int], max_total: int, density: float
) -> Poly:
    """Reduced field w (w20 = w02 = 0) supported in the space that stops the
    order-2 cascade exactly at ``target``: every condition up to it holds and
    some condition of the next case fails."""
    forms = k2_forms(smap)
    index = K2_ORDER.index(target)
    hold = [form for case in K2_ORDER[1 : index + 1] for form in forms[case]]
    fail = forms[K2_ORDER[index + 1]] if target != "f" else []

    def in_space(e: Tuple[int, int]) -> bool:
        return e[0] <= space[0] and e[1] <= space[1] and e not in ((2, 0), (0, 2))

    # Each held form is solved for its first in-space exponent that no earlier
    # held form mentions, so solving it keeps the earlier forms at zero.
    solve_for: List[Optional[Tuple[int, int]]] = []
    seen: set = set()
    for form in hold:
        choice = next((e for e, _ in form if in_space(e) and e not in seen), None)
        solve_for.append(choice)
        seen.update(e for e, _ in form)
    solved = {e for e in solve_for if e is not None}
    violator = next((e for form in fail for e, _ in form if in_space(e) and e not in solved), None)
    if fail and violator is None:
        raise ValueError(f"case {target} cannot be the last one reached in space {space}")
    exponents = [
        (j, k) for j in range(space[0] + 1) for k in range(space[1] + 1) if j + k <= max_total and in_space((j, k))
    ]
    for _ in range(100):
        w = {e: _dyadic(rng, 4, 16) for e in exponents if rng.random() < density}
        if violator is not None:
            w[violator] = _nonzero(rng)
        for form, e in zip(hold, solve_for):
            if e is None:
                continue
            lead = dict(form)[e]
            w[e] = F(0)
            w[e] = -form_value(form, w) / lead
        w = exact.clean(w.items())
        if all(form_value(form, w) == 0 for form in hold) and (
            not fail or any(form_value(form, w) != 0 for form in fail)
        ):
            return w
    raise ValueError(f"could not build a field stopping at case {target}")


def lift(smap: StandardMap, w: Poly, z20: Fraction, z02: Fraction) -> Poly:
    """Raw field z = w + z20 y1 + z02 y2, whose reduction is w."""
    return exact.add(w, exact.scale(smap.y[0], z20), exact.scale(smap.y[1], z02))


def k1_case(z: Poly) -> str:
    """Order-1 case from the paper's table: a unless z10 = z01 = 0, b unless z11 = 0."""
    if z.get((1, 0), 0) != 0 or z.get((0, 1), 0) != 0:
        return "a"
    return "b" if z.get((1, 1), 0) != 0 else "c"


def expected_classification(z: Poly, target: str, k: int) -> Tuple[str, Optional[Fraction]]:
    if k == 1:
        case = k1_case(z)
        return case, K1_SUP[case]
    return target, K2_SUP[target]


def _wrapped(rng: random.Random, smap: StandardMap) -> List[list]:
    """Geometry rows of the map under a random invertible affine map."""
    matrix, shift = random_affine(rng, positive=False)
    return exact.map_rows(exact.affine_image(matrix, shift, smap.y))


# -- classify -------------------------------------------------------------------

CLASSIFY_MAPS = 8
#: Every perturbation monomial of degree 3 and 4, so that the geometry terms in
#: the case-f conditions are all present.
CLASSIFY_MAP_EXPONENTS = ((3, 0), (0, 3), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4))
#: Order-2 targets that put the order-1 cascade at a, b and c in turn.
_K1_TARGETS = ("none", "a", "b", "d")
_CONSTRAIN_SPACES = ((3, 3), (4, 4), (5, 5), (6, 6), (3, 5), (5, 3))


def classify_jobs(rng: random.Random, count: int) -> List[Job]:
    shapes = random.Random("classify-shapes")
    maps = [standard_map(rng, shapes, CLASSIFY_MAP_EXPONENTS) for _ in range(CLASSIFY_MAPS)]
    geometries = [_wrapped(rng, smap) for smap in maps]
    jobs = []
    constrains = classifies = 0
    for i in range(count):
        smap, geometry = maps[i % len(maps)], geometries[i % len(maps)]
        # Blocks of constrain and classify jobs alternate, so every map gets
        # both.  Half constrain puts two thirds of the jobs (constrain and k=1
        # classify, both cheap) below the k=2 ones: the median then falls
        # inside the cheap cluster, not in the gap between the two.
        if (i // len(maps)) % 2 == 1:
            # constrain: k = 2, p just below or just above a band edge; every
            # (edge, space) pair comes round once in 30 constrain jobs.
            c, constrains = constrains, constrains + 1
            edge_index = c % len(BAND_EDGES)
            space = _CONSTRAIN_SPACES[c % len(_CONSTRAIN_SPACES)]
            edge = BAND_EDGES[edge_index]
            p = edge * F(9, 10) if (c // len(BAND_EDGES)) % 2 == 0 else edge * F(11, 10)
            target = K2_ORDER[1 + edge_index]  # the case whose p_sup is this edge
            w = reduced_field(rng, smap, target, space, max_total=space[0] + space[1], density=0.5)
            doc = {"command": "constrain", "geometry": geometry, "k": 2, "p": exact.to_json(p), "space": list(space)}
            jobs.append(Job(doc, {"kind": "constrain", "space": space, "p": p, "field": w, "member": p < edge}))
            continue
        q, classifies = classifies, classifies + 1
        order = (1, 2, None)[q % 3]
        targets = _K1_TARGETS if order == 1 else K2_ORDER
        target = targets[(q // 3) % len(targets)]
        w = reduced_field(rng, smap, target, (6, 6), max_total=7, density=0.5)
        z = lift(smap, w, _dyadic(rng, 2, 4), _dyadic(rng, 2, 4))
        doc = {"command": "classify", "geometry": geometry, "field": exact.field_rows(z)}
        if order is not None:
            doc["k"] = order
        expected = [(k,) + expected_classification(z, target, k) for k in ([1, 2] if order is None else [order])]
        jobs.append(Job(doc, {"kind": "classify", "classifications": expected}))
    return jobs


# -- oracle ---------------------------------------------------------------------

#: Seeded (k, order-2 target) strata; the k = 1 ones put the order-1 case at a, b, c.
#: Order-2 cases a, b and c are left out here: their oracle check integrates
#: at p = 1, where fields whose quotient nearly vanishes inside the square make
#: the quadrature run out of panels on some seeds and not on others.
_ORACLE_STRATA = tuple((1, t) for t in ("none", "a", "b")) + tuple((2, t) for t in ("none", "d", "e", "f"))
#: Order-2 cases a, b, c on fixed inputs instead (the reference map and one
#: monomial field each), which pass on every run.
_ORACLE_FIXED = (("a", [[1, 1, 1]]), ("b", [[2, 1, 1]]), ("c", [[3, 1, 1]]))
_ORACLE_CYCLE = len(_ORACLE_STRATA) + len(_ORACLE_FIXED)


def probe_p(p_sup: Optional[Fraction], inside: bool) -> Fraction:
    """A probe exponent well inside or well outside [1, p_sup)."""
    if p_sup is None:
        return F(4) if inside else F(2)
    if p_sup == 1:
        return F(3, 2)
    return (1 + p_sup) / 2 if inside else p_sup + F(1, 2)


def oracle_jobs(rng: random.Random, count: int) -> List[Job]:
    shapes = random.Random("oracle-shapes")
    jobs = [Job(dict(KNOWN_FAULT_JOB), {"kind": "verify", "classifications": [(1, "a", F(3))], "p": F(1)})]
    for i in range(count - 1):
        slot, stratum = i % _ORACLE_CYCLE, i // _ORACLE_CYCLE
        if slot < len(_ORACLE_STRATA):
            k, target = _ORACLE_STRATA[slot]
            smap = standard_map(rng, shapes, perturbation_exponents(shapes, 4, 1 + stratum % 3))
            geometry = _wrapped(rng, smap)
            w = reduced_field(rng, smap, target, (6, 6), max_total=6, density=0.3)
            z = lift(smap, w, _dyadic(rng, 2, 4), _dyadic(rng, 2, 4))
            case, p_sup = expected_classification(z, target, k)
        else:
            k, (case, rows) = 2, _ORACLE_FIXED[slot - len(_ORACLE_STRATA)]
            geometry, z, p_sup = exact.map_rows(REFERENCE), exact.rows_to_field(rows), K2_SUP[case]
        doc = {"command": "verify", "geometry": geometry, "field": exact.field_rows(z), "k": k}
        expect: Dict[str, Any] = {"kind": "verify", "classifications": [(k, case, p_sup)], "p": None}
        if stratum % 2 == 0:
            p = probe_p(p_sup, inside=stratum % 4 == 0)
            doc["p"] = exact.to_json(p)
            expect["p"] = p
        jobs.append(Job(doc, expect))
    return jobs


def build(workload: str, seed: int, count: int) -> List[Job]:
    """The job list of a workload; the same (workload, seed, count) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    builder = {"geometry": geometry_jobs, "classify": classify_jobs, "oracle": oracle_jobs}[workload]
    return builder(rng, count)
