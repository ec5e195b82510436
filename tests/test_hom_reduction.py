"""Isotropy-reduced hom spaces against the dense system over every arrow.

``hom_space_basis`` and ``hom_space_dim`` solve on the base stalks of each
connected component and extend along the tree arrows;
``kernel_basis(ref.hom_constraint(m1, m2))`` solves one block of equations
per arrow.  Both must give the same canonical basis, entry for entry, over
every ring.  A module that breaks one identity of the reduction must take
the dense system and still give its result.
"""
from __future__ import annotations

import random
from itertools import permutations

import pytest

import reference_kernels as ref
from ample.builders import (
    action_groupoid,
    group_groupoid,
    pair_groupoid,
    random_invertible,
    random_module,
)
from ample.equivalence import gamma_c
from ample.gmodule import (
    GModule,
    direct_sum,
    hom_space_basis,
    hom_space_dim,
    regular_module,
    validate_module,
)
from ample.gsheaf import GSheaf
from ample.rings import INTEGERS, RATIONALS, Matrix, kernel_basis, matrix_inverse, modular

# The dense Q reference is the slow side: a rank-6 pair over an 18-arrow
# groupoid is a 36x648 system, which takes minutes over Q.  Every nonzero
# module on pair(5) has rank at least 5, so it gets two rank-5 modules.
RANK_CAP = {"Q": 3, "Z": 3, "Fp:2": 6, "Fp:5": 6}
PAIR5_RANK_CAP, PAIR5_MODULES = 5, 2
RINGS = (RATIONALS, INTEGERS, modular(2), modular(5))


def s3_table() -> tuple[tuple[str, ...], dict[tuple[str, str], str]]:
    """S3 as permutations of "012"; (g, h) -> g∘h, h applied first."""
    perms = list(permutations(range(3)))
    name = lambda p: "".join(map(str, p))
    table = {
        (name(p), name(q)): name(tuple(p[q[i]] for i in range(3))) for p in perms for q in perms
    }
    return tuple(name(p) for p in perms), table


def s3_group():
    return group_groupoid(*s3_table())


def s3_on_points():
    elements, table = s3_table()
    action = {(g, str(x)): g[x] for g in elements for x in range(3)}
    return action_groupoid(elements, table, ["0", "1", "2"], action)


def sign(perm: str) -> int:
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def rebased(m: GModule, seed: int) -> GModule:
    """``m`` in a random basis, so no unit action is a coordinate projection."""
    q = random_invertible(m.ring, m.rank, random.Random(seed))
    q_inv = matrix_inverse(q)
    return GModule(m.groupoid, m.ring, m.rank, {a: q @ a_m @ q_inv for a, a_m in m.action.items()})


def sign_module(g, ring, seed: int) -> GModule:
    """Sections of the rank-one sheaf on which (perm, x) acts by sign(perm);
    a sign action of the isotropy groups that random_module never draws."""
    transport = {a: Matrix.from_rows(ring, [[sign(a.strip("()").split(",")[0])]]) for a in g.arrows}
    return rebased(gamma_c(GSheaf(g, ring, {x: 1 for x in g.objects}, transport)), seed)


def permutation_module(g, ring) -> GModule:
    """S3 permuting the basis of a rank-3 carrier: e_p A[g] = e_{g⁻¹(p)}."""
    rows = {}
    for a in g.arrows:
        inverse = {int(a[i]): i for i in range(3)}
        rows[a] = [[1 if inverse[p] == q else 0 for q in range(3)] for p in range(3)]
    return GModule(g, ring, 3, {a: Matrix.from_rows(ring, r) for a, r in rows.items()})


def modules_for(g, ring, extra=(), cap=None, limit=4):
    cap = cap or RANK_CAP[ring.name]
    found = [m for m in extra if m.rank <= cap]
    regular = regular_module(g, ring)
    if regular.rank <= cap:
        found.append(regular)
    for seed in range(40):
        if len(found) >= limit:
            break
        m = random_module(g, ring, 2, seed)
        if 0 < m.rank <= cap and all(m != other for other in found):
            found.append(m)
    return found


def dense(m1: GModule, m2: GModule) -> list[Matrix]:
    flat = kernel_basis(ref.hom_constraint(m1, m2)).entries if m1.rank * m2.rank else ()
    return [
        Matrix(m1.ring, m1.rank, m2.rank, tuple(row[i * m2.rank:(i + 1) * m2.rank] for i in range(m1.rank)))
        for row in flat
    ]


def assert_agrees(m1: GModule, m2: GModule) -> None:
    want = dense(m1, m2)
    assert hom_space_basis(m1, m2) == want
    assert hom_space_dim(m1, m2) == len(want)


GROUPOIDS = (
    "point", "p2", "p3", "pair5", "z2", "z3", "z2_action", "edge_groupoid", "s3", "s3_points",
    "two_component_groupoid",
)


@pytest.fixture(scope="module")
def groupoids(request):
    named = {
        name: request.getfixturevalue(name)
        for name in (
            "point", "p2", "p3", "z2", "z3", "z2_action", "edge_groupoid", "two_component_groupoid"
        )
    }
    named.update(pair5=pair_groupoid(5), s3=s3_group(), s3_points=s3_on_points())
    return named


def extra_modules(name, g, ring):
    if name == "s3":
        sgn = GModule(g, ring, 1, {a: Matrix.from_rows(ring, [[sign(a)]]) for a in g.arrows})
        perm = permutation_module(g, ring)
        return [sgn, rebased(perm, 7), direct_sum(sgn, regular_module(g, ring))]
    if name == "s3_points":
        return [sign_module(g, ring, 3)]
    if name == "z2":
        return [GModule(g, ring, 1, {a: Matrix.from_rows(ring, [[-1 if a == "g" else 1]]) for a in g.arrows})]
    return []


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("name", GROUPOIDS)
def test_reduced_hom_spaces_match_dense(groupoids, name, ring):
    g = groupoids[name]
    if name == "pair5" and ring.name in ("Q", "Z"):
        mods = modules_for(g, ring, cap=PAIR5_RANK_CAP, limit=PAIR5_MODULES)
    else:
        mods = modules_for(g, ring, extra_modules(name, g, ring))
    assert mods, "every case needs a nonzero module"
    for m in mods:
        assert m.isotropy_frame is not None, "a valid module must take the reduced path"
    for m1 in mods:
        for m2 in mods:
            assert_agrees(m1, m2)


def test_s3_cases_exercise_nonabelian_isotropy(groupoids):
    # the permutation module's commutant is 2-dimensional: a nonzero system
    g = groupoids["s3"]
    perm = rebased(permutation_module(g, modular(5)), 7)
    assert len(perm.isotropy_frame.loops["*"]) == 5
    assert hom_space_dim(perm, perm) == 2
    sgn = sign_module(groupoids["s3_points"], RATIONALS, 3)
    assert hom_space_dim(sgn, sgn) == 1


def perturbed(m: GModule, arrow) -> GModule:
    action = dict(m.action)
    a = action[arrow]
    rows = [list(r) for r in a.entries]
    rows[0][m.rank - 1] += 1
    action[arrow] = Matrix.from_rows(m.ring, rows)
    return GModule(m.groupoid, m.ring, m.rank, action)


def arrow_roles(g):
    plan = g.isotropy_plan
    base = plan.components[0][0]
    other = plan.components[0][1]
    tree = plan.tree[other]
    loop = next(k for k in g.hom_set(base, base) if k != g.unit[base])
    fixed = {tree, g.inverse[tree]} | set(g.unit.values()) | set(g.hom_set(base, base))
    ordinary = next(a for a in g.arrows if a not in fixed)
    return {"unit": g.unit[other], "tree": tree, "isotropy": loop, "ordinary": ordinary}


@pytest.mark.parametrize("ring", (RATIONALS, modular(5)), ids=lambda r: r.name)
@pytest.mark.parametrize("role", ("unit", "tree", "isotropy", "ordinary"))
def test_broken_modules_take_the_dense_path(groupoids, ring, role):
    g = groupoids["s3_points"]
    good = sign_module(g, ring, 3)
    other = modules_for(g, ring)[0]
    bad = perturbed(good, arrow_roles(g)[role])
    assert not validate_module(bad).ok
    assert bad.isotropy_frame is None
    for m1, m2 in ((bad, good), (good, bad), (bad, other), (bad, bad)):
        assert_agrees(m1, m2)


def constant_module(g, ring, entry_of):
    return GModule(g, ring, len(entry_of(g.arrows[0])), {a: Matrix.from_rows(ring, entry_of(a)) for a in g.arrows})


def test_each_identity_of_the_reduction_is_needed(groupoids):
    """Each module breaks exactly one identity of ``isotropy_frame`` and no
    other, and is not a module; each must take the dense system.  The
    factorisation identity is the one the perturbed arrows above break."""
    p2, p3, z2 = groupoids["p2"], groupoids["p3"], groupoids["z2"]
    line = [[1, 0], [0, 0]]
    cases = {
        # both objects act on one line: units sum to 2·E, not to I
        "unit sum": constant_module(p2, RATIONALS, lambda a: line),
        # over F2 three unit actions equal to 1 sum to 1, on rank 1 < 3 · 1
        "rank count": constant_module(p3, modular(2), lambda a: [[1]]),
        # g acts by 2, so A[g]·A[g] = 4 != A[e]
        "group law": constant_module(z2, RATIONALS, lambda a: [[2 if a == "g" else 1]]),
    }
    for law, m in cases.items():
        assert not validate_module(m).ok, law
        assert m.isotropy_frame is None, law
        assert_agrees(m, m)
