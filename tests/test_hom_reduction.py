"""Generator checks and isotropy-reduced hom spaces against all-arrow oracles.

``hom_space_basis`` and ``hom_space_dim`` solve on the base stalks of each
connected component and extend along the tree arrows; the oracle
``kernel_basis(ref.hom_constraint(m1, m2))`` solves one block of equations
per arrow.  Both must give the same canonical basis, entry for entry, over
every ring.  ``sheaf_hom_basis`` solves on the same frame, against the dense
per-object grid of ``ref.sheaf_hom_basis``.  ``validate_module`` and
``validate_sheaf`` check the laws on the generators only;
``ref.validate_module`` and ``ref.validate_sheaf`` check every composable
pair, and both must give the same verdict.  A module or sheaf that breaks
one generator identity is not one, and the hom functions reject it with a
ValueError naming that identity.  The one intertwining scan lists the same
failures as the per-arrow scans it replaced.
"""
from __future__ import annotations

import random
from itertools import islice, permutations, product

import pytest

import reference_kernels as ref
from ample import equivalence, rings
from ample.builders import (
    action_groupoid,
    group_groupoid,
    pair_groupoid,
    random_invertible,
    random_module,
    random_sheaf,
)
from ample.equivalence import eta, gamma_c
from ample.gmodule import (
    GModule,
    GModuleHom,
    direct_sum,
    hom_space_basis,
    hom_space_dim,
    random_hom,
    regular_module,
    validate_hom,
    validate_module,
)
from ample.gsheaf import (
    GSheaf,
    GSheafMor,
    constant_sheaf,
    random_sheaf_hom,
    sheaf_hom_basis,
    validate_sheaf,
    validate_sheaf_morphism,
)
from ample.rings import INTEGERS, RATIONALS, Matrix, kernel_basis, modular

from conftest import bumped_matrix

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
    q, q_inv = random_invertible(m.ring, m.rank, random.Random(seed))
    return GModule(m.groupoid, m.ring, m.rank, {a: q @ a_m @ q_inv for a, a_m in m.action.items()})


def sign_sheaf(g, ring) -> GSheaf:
    """The rank-one sheaf on which (perm, x) acts by sign(perm)."""
    transport = {a: Matrix.from_rows(ring, [[sign(a.strip("()").split(",")[0])]]) for a in g.arrows}
    return GSheaf(g, ring, {x: 1 for x in g.objects}, transport)


def sign_module(g, ring, seed: int) -> GModule:
    """Sections of ``sign_sheaf``; a sign action of the isotropy groups that
    random_module never draws."""
    return rebased(gamma_c(sign_sheaf(g, ring)), seed)


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
        assert validate_module(m).ok
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


def bumped(family, arrow):
    """One matrix per arrow, with 1 added to the top right entry at ``arrow``."""
    out = dict(family)
    rows = [list(r) for r in out[arrow].entries]
    rows[0][-1] += 1
    out[arrow] = Matrix.from_rows(out[arrow].ring, rows)
    return out


def perturbed(m: GModule, arrow) -> GModule:
    return GModule(m.groupoid, m.ring, m.rank, bumped(m.action, arrow))


def arrow_roles(g):
    """One arrow for each role the groupoid has: a unit (off the base when
    there is another object), the first tree arrow and its inverse, a
    non-unit isotropy arrow at a base, and an arrow of none of these kinds."""
    plan = g.isotropy_plan
    bases = [comp[0] for comp in plan.components]
    trees = [plan.tree[y] for y in g.objects if y not in bases]
    loops = [k for x in bases for k in g.hom_set(x, x)]
    roles = {"unit": g.unit[next((y for y in g.objects if y not in bases), bases[0])]}
    if trees:
        roles["tree"], roles["tree inverse"] = trees[0], g.inverse[trees[0]]
    isotropy = [k for k in loops if not ref.is_unit_arrow(g, k)]
    if isotropy:
        roles["isotropy"] = isotropy[0]
    fixed = {*trees, *(g.inverse[t] for t in trees), *g.unit.values(), *loops}
    ordinary = [a for a in g.arrows if a not in fixed]
    if ordinary:
        roles["ordinary"] = ordinary[0]
    return roles


def assert_rejected(m: GModule, other: GModule) -> None:
    law = validate_module(m).first().law
    zero = GModule(m.groupoid, m.ring, 0, {a: Matrix.zeros(m.ring, 0, 0) for a in m.groupoid.arrows})
    for m1, m2 in ((m, other), (other, m), (m, m), (m, zero), (zero, m)):
        for hom_space in (hom_space_basis, hom_space_dim):
            with pytest.raises(ValueError, match=f"module fails {law}: "):
                hom_space(m1, m2)


@pytest.mark.parametrize("ring", (RATIONALS, modular(5)), ids=lambda r: r.name)
@pytest.mark.parametrize("role", ("unit", "tree", "tree inverse", "isotropy", "ordinary"))
def test_broken_modules_are_rejected(groupoids, ring, role):
    g = groupoids["s3_points"]
    good = sign_module(g, ring, 3)
    bad = perturbed(good, arrow_roles(g)[role])
    assert not validate_module(bad).ok
    assert not ref.validate_module(bad).ok
    assert_rejected(bad, good)


def constant_module(g, ring, entry_of):
    return GModule(g, ring, len(entry_of(g.arrows[0])), {a: Matrix.from_rows(ring, entry_of(a)) for a in g.arrows})


def test_each_identity_of_the_reduction_is_needed(groupoids):
    """Each module breaks exactly one generator identity and no other, and is
    not a module by the all-pairs oracle; the hom functions reject each."""
    p2, p3, z2 = groupoids["p2"], groupoids["p3"], groupoids["z2"]
    e1, e2 = [[1, 0], [0, 0]], [[0, 0], [0, 1]]
    cases = {
        # every arrow acts by 0: the units sum to 0, not to I
        "unit completeness": constant_module(p2, RATIONALS, lambda a: [[0]]),
        # over F2 three unit actions equal to 1 sum to 1, but overlap
        "unit orthogonality": constant_module(p3, modular(2), lambda a: [[1]]),
        # g acts by 2, so A[g]·A[g] = 4 != A[e]
        "isotropy group law": constant_module(z2, RATIONALS, lambda a: [[2 if a == "g" else 1]]),
        # both tree arrows act by E1, so A[t]·E1·A[t⁻¹] = E1 != A[u(2)] = E2
        "factorisation": constant_module(p2, RATIONALS, lambda a: e2 if a == "(2,2)" else e1),
        # the tree arrows act by 0, so A[t⁻¹]·A[t] = 0 != A[u(1)] = 1
        "tree inverse": constant_module(p2, RATIONALS, lambda a: [[1 if a == "(1,1)" else 0]]),
    }
    for law, m in cases.items():
        assert {f.law for f in validate_module(m).failures} == {law}, law
        assert not ref.validate_module(m).ok, law
        assert_rejected(m, m)


# -- the generator checks against the all-pairs oracle ---------------------------


def oracle_inputs(name, g, ring):
    """The valid modules and sheaves of one case, each also with one entry
    perturbed on every arrow role."""
    modules = modules_for(g, ring, extra_modules(name, g, ring), limit=3)
    sheaves = [constant_sheaf(g, ring, 1)]
    drawn = (random_sheaf(g, ring, 2, seed) for seed in range(3))
    sheaves += [e for e in drawn if min(e.stalk_rank.values()) > 0]
    roles = arrow_roles(g).values()
    modules += [perturbed(m, a) for m in list(modules) for a in roles]
    sheaves += [GSheaf(g, ring, e.stalk_rank, bumped(e.transport, a)) for e in list(sheaves) for a in roles]
    return modules, sheaves


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("name", GROUPOIDS)
def test_generator_checks_agree_with_all_pairs_oracle(groupoids, name, ring):
    g = groupoids[name]
    modules, sheaves = oracle_inputs(name, g, ring)
    got = [validate_module(m).ok for m in modules] + [validate_sheaf(e).ok for e in sheaves]
    want = [ref.validate_module(m).ok for m in modules] + [ref.validate_sheaf(e).ok for e in sheaves]
    assert got == want
    assert set(got) == {True, False}


def families(g, ring, rank):
    """Every assignment of a rank x rank matrix over a finite ring to each arrow."""
    values = [ring.coerce(v) for v in range(ring.modulus)]
    for flat in product(values, repeat=len(g.arrows) * rank * rank):
        cells = iter(flat)
        yield {
            a: Matrix(ring, rank, rank, tuple(tuple(islice(cells, rank)) for _ in range(rank)))
            for a in g.arrows
        }


# (groupoid, rank, ring); modules run on all but z3, sheaves on all
EXHAUSTIVE = (
    ("p2", 1, modular(2)), ("p2", 1, modular(3)), ("p2", 1, modular(4)), ("p2", 1, modular(6)),
    ("p3", 1, modular(2)), ("z2", 2, modular(2)), ("z2", 2, modular(3)),
    ("z3", 1, modular(3)), ("z3", 2, modular(2)),
)


@pytest.mark.parametrize("name, rank, ring", EXHAUSTIVE, ids=lambda v: getattr(v, "name", str(v)))
def test_generator_checks_agree_with_all_pairs_oracle_exhaustively(groupoids, name, rank, ring):
    g = groupoids[name]
    accepted = 0
    for family in families(g, ring, rank):
        if name != "z3":
            m = GModule(g, ring, rank, family)
            assert validate_module(m).ok == ref.validate_module(m).ok, family
        e = GSheaf(g, ring, {x: rank for x in g.objects}, family)
        ok = validate_sheaf(e).ok
        assert ok == ref.validate_sheaf(e).ok, family
        accepted += ok
    assert accepted > 0


# -- sheaf morphism spaces on the isotropy frame ------------------------------


def sheaves_for(name, g, ring):
    found = [constant_sheaf(g, ring, 1), constant_sheaf(g, ring, 0)]
    if name == "s3_points":
        found.append(sign_sheaf(g, ring))
    found += [random_sheaf(g, ring, 2, seed) for seed in range(3)]
    return found


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("name", GROUPOIDS)
def test_sheaf_hom_bases_match_dense(groupoids, name, ring):
    g = groupoids[name]
    sheaves = sheaves_for(name, g, ring)
    for e in sheaves:
        assert validate_sheaf(e).ok
    for e in sheaves:
        for f in sheaves:
            assert sheaf_hom_basis(e, f) == ref.sheaf_hom_basis(e, f)


def assert_sheaf_rejected(e: GSheaf, other: GSheaf) -> None:
    law = validate_sheaf(e).first().law
    zero = constant_sheaf(e.groupoid, e.ring, 0)
    for e1, e2 in ((e, other), (other, e), (e, e), (e, zero), (zero, e)):
        with pytest.raises(ValueError, match=f"sheaf fails {law}: "):
            sheaf_hom_basis(e1, e2)
        with pytest.raises(ValueError, match=f"sheaf fails {law}: "):
            random_sheaf_hom(e1, e2, random.Random(0))


@pytest.mark.parametrize("ring", (RATIONALS, modular(5)), ids=lambda r: r.name)
@pytest.mark.parametrize("role", ("unit", "tree", "tree inverse", "isotropy", "ordinary"))
def test_broken_sheaves_are_rejected(groupoids, ring, role):
    g = groupoids["s3_points"]
    good = sign_sheaf(g, ring)
    bad = GSheaf(g, ring, good.stalk_rank, bumped(good.transport, arrow_roles(g)[role]))
    assert not validate_sheaf(bad).ok
    assert not ref.validate_sheaf(bad).ok
    assert_sheaf_rejected(bad, good)


def test_each_sheaf_law_is_rejected(groupoids):
    """One sheaf per generator law, failing that law first; the morphism
    functions reject each."""
    p2, z2 = groupoids["p2"], groupoids["z2"]

    def sheaf(g, ranks, rows):
        transport = {a: Matrix.from_rows(RATIONALS, rows(a), ranks[g.src[a]]) for a in g.arrows}
        return GSheaf(g, RATIONALS, ranks, transport)

    ones = {"1": 1, "2": 1}
    cases = {
        # u(2) transports by 2
        "unit transport": sheaf(p2, ones, lambda a: [[2 if a == "(2,2)" else 1]]),
        # g transports by 2, so B[g]·B[g] = 4 != B[e]
        "isotropy group law": sheaf(z2, {"*": 1}, lambda a: [[2 if a == "g" else 1]]),
        # B[(1,2)] = 2, so B[(2,1)]·B[(1,1)]·B[(1,2)] = 2 != B[(2,2)] = 1
        "factorisation": sheaf(p2, ones, lambda a: [[2 if a == "(1,2)" else 1]]),
        # a 2 -> 1 -> 2 round trip is the identity, 1 -> 2 -> 1 only a projection
        "tree inverse": sheaf(p2, {"1": 2, "2": 1}, lambda a: {
            "(1,1)": [[1, 0], [0, 1]], "(2,2)": [[1]], "(2,1)": [[1, 0]], "(1,2)": [[1], [0]],
        }[a]),
    }
    for law, e in cases.items():
        assert validate_sheaf(e).first().law == law, law
        assert not ref.validate_sheaf(e).ok, law
        assert_sheaf_rejected(e, e)


@pytest.mark.parametrize("ring", (RATIONALS, modular(5)), ids=lambda r: r.name)
def test_no_elimination_exceeds_the_spanning_matrix(ring, monkeypatch):
    """On pair(n) every elimination that ``sheaf_hom_basis`` and
    ``hom_space_basis`` run, through ``row_echelon`` or ``image_basis``
    alike, has at most the cells of the matrix of spanning morphisms; the
    dense sheaf system had at least n² times as many."""
    shapes = []
    real = rings._eliminate

    def recorded(a, rows):
        shapes.append((a.rows, a.cols))
        return real(a, rows)

    monkeypatch.setattr(rings, "_eliminate", recorded)
    eliminated = 0
    for n in (2, 3, 5):
        g = pair_groupoid(n)
        sheaves = [constant_sheaf(g, ring, 3), random_sheaf(g, ring, 2, 1), random_sheaf(g, ring, 2, 2)]
        for e in sheaves:
            for f in sheaves:
                shapes.clear()
                basis = sheaf_hom_basis(e, f)
                spanning = len(basis) * sum(e.stalk_rank[x] * f.stalk_rank[x] for x in g.objects)
                assert max((r * c for r, c in shapes), default=0) <= spanning
                dense = ref.sheaf_hom_constraint(e, f)
                assert dense.rows * dense.cols >= n * n * spanning
                eliminated += len(shapes)
        m = random_module(g, ring, 2, 1)
        shapes.clear()
        basis = hom_space_basis(m, m)
        assert shapes and max(r * c for r, c in shapes) <= len(basis) * m.rank * m.rank
    assert eliminated


# -- the one intertwining scan against the per-arrow scans ----------------------


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@pytest.mark.parametrize("name", ("p3", "z2_action", "s3_points", "two_component_groupoid"))
def test_intertwining_faults_match_per_arrow_scans(groupoids, name, ring, monkeypatch):
    """One entry of a module hom, of a sheaf morphism component and of eta's
    matrix, perturbed in turn: the same failures, in the same order, as the
    scans each check ran before."""
    g = groupoids[name]
    rng = random.Random(3)
    m = max(modules_for(g, ring, extra_modules(name, g, ring)), key=lambda m: m.rank)
    h = random_hom(m, m, rng)
    verdicts = set()
    for i, j in product(range(m.rank), repeat=2):
        bad = GModuleHom(m, m, bumped_matrix(h.matrix, i, j))
        assert validate_hom(bad) == ref.validate_hom(bad)
        verdicts.add(validate_hom(bad).ok)
    for e in sheaves_for(name, g, ring):
        if min(e.stalk_rank.values()) == 0:
            continue
        phi = random_sheaf_hom(e, e, rng)
        for x in g.objects:
            maps = dict(phi.maps)
            maps[x] = bumped_matrix(maps[x], 0, 0)
            bad = GSheafMor(e, e, maps)
            assert validate_sheaf_morphism(bad) == ref.validate_sheaf_morphism(bad)
            verdicts.add(validate_sheaf_morphism(bad).ok)
    assert False in verdicts

    real = equivalence.eta_matrix
    sh = equivalence.sheafify(m)
    gamma = gamma_c(sh.sheaf)
    found = []
    for i, j in product(range(m.rank), range(gamma.rank)):
        monkeypatch.setattr(equivalence, "eta_matrix", lambda s: bumped_matrix(real(s), i, j))
        want = ref.eta_module_hom(m, bumped_matrix(real(sh), i, j), gamma)
        got = eta(m)
        if want is None:
            assert got.ok or got.first().law != "module-hom"
        else:
            assert got.first() == want
            found.append(want)
    assert found
