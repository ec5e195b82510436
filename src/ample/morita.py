"""Essential equivalences, spans, and transport of modules across them.

A functor between finite groupoids is an essential equivalence when every
target object is reachable by an arrow from the image and all hom-sets map
bijectively.  Two groupoids joined by a span of essential equivalences out
of a common apex have equivalent sheaf categories, realized here by an
explicit inverse-image functor (stalkwise relabeling along the functor) and
a quasi-inverse built from a deterministic choice of anchor objects and
arrows.  Composing with the section/germ equivalence on both ends
transports unitary modules between the two convolution algebras, and every
transported sample comes with a round-trip report: an explicit invertible
intertwiner, or the step of the round trip that failed, with a witness.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping

from .builders import random_module
from .equivalence import _germ_sheaf, epsilon, eta_matrix, gamma_c, sheafify
from .gmodule import GModule, GModuleHom, hom_space_dim, is_isomorphism
from .groupoid import ArrowId, FiniteGroupoid, ObjectId, validate_groupoid
from .gsheaf import (
    GSheaf,
    GSheafMor,
    compose_sheaf_mors,
    is_sheaf_isomorphism,
    validate_sheaf,
)
from .rings import Ring, block_diagonal
from .validation import Failure, ValidationReport


@dataclass(frozen=True)
class GroupoidFunctor:
    source: FiniteGroupoid
    target: FiniteGroupoid
    obj_map: Mapping[ObjectId, ObjectId]
    arr_map: Mapping[ArrowId, ArrowId]

    def __post_init__(self) -> None:
        if set(self.obj_map) != set(self.source.objects):
            raise ValueError("object map must cover exactly the source objects")
        if set(self.arr_map) != set(self.source.arrows):
            raise ValueError("arrow map must cover exactly the source arrows")
        for x, y in self.obj_map.items():
            if y not in self.target.object_index:
                raise ValueError(f"object map sends {x!r} to unknown {y!r}")
        for a, b in self.arr_map.items():
            if b not in self.target.arrow_index:
                raise ValueError(f"arrow map sends {a!r} to unknown {b!r}")

    @cached_property
    def equivalence_report(self) -> ValidationReport:
        """``is_essential_equivalence`` of this functor, run once."""
        return is_essential_equivalence(self)

    @cached_property
    def inverse_data(
        self,
    ) -> tuple[dict[ObjectId, ObjectId], dict[ObjectId, ArrowId], dict[ArrowId, ArrowId], dict[ObjectId, ArrowId]]:
        """What a quasi-inverse along this functor reads: the ``anchors``
        sigma and alpha, the lift of each target arrow h: y -> z, the unique
        source arrow sigma(y) -> sigma(z) mapping to alpha_z⁻¹·h·alpha_y, and
        the unit lift of each source object x, the unique source arrow
        sigma(F x) -> x mapping to alpha_{F x}.  Raises ``ValueError``
        unless the functor is an essential equivalence, which makes these
        arrows unique."""
        report = self.equivalence_report
        if not report.ok:
            raise ValueError(f"not an essential equivalence: {report.first()}")
        sigma, alpha = anchors(self)
        s, t, image = self.source, self.target, self.obj_map
        preimage = {(s.src[a], s.dst[a], self.arr_map[a]): a for a in s.arrows}
        lift = {}
        for h in t.arrows:
            y, z = t.src[h], t.dst[h]
            lift[h] = preimage[sigma[y], sigma[z], t.compose[(t.inverse[alpha[z]], t.compose[(h, alpha[y])])]]
        return sigma, alpha, lift, {x: preimage[sigma[image[x]], x, alpha[image[x]]] for x in s.objects}


def identity_functor(g: FiniteGroupoid) -> GroupoidFunctor:
    return GroupoidFunctor(g, g, {x: x for x in g.objects}, {a: a for a in g.arrows})


def validate_functor(f: GroupoidFunctor) -> ValidationReport:
    failures: list[Failure] = []
    s, t = f.source, f.target
    for a in s.arrows:
        b = f.arr_map[a]
        if t.src[b] != f.obj_map[s.src[a]] or t.dst[b] != f.obj_map[s.dst[a]]:
            failures.append(Failure("endpoint preservation", f"arrow {a!r}"))
    for x in s.objects:
        if f.arr_map[s.unit[x]] != t.unit[f.obj_map[x]]:
            failures.append(Failure("unit preservation", f"object {x!r}"))
    for (a, b), ab in s.compose.items():
        image = t.compose.get((f.arr_map[a], f.arr_map[b]))
        if image != f.arr_map[ab]:
            failures.append(Failure("composition preservation", f"pair ({a!r},{b!r})"))
    for a in s.arrows:
        if f.arr_map[s.inverse[a]] != t.inverse[f.arr_map[a]]:
            failures.append(Failure("inverse preservation", f"arrow {a!r}"))
    return ValidationReport("functor", tuple(failures))


def is_essential_equivalence(f: GroupoidFunctor) -> ValidationReport:
    """Essential surjectivity plus bijectivity on all hom-sets."""
    failures = list(validate_functor(f).failures)
    s, t = f.source, f.target
    image_objects = {f.obj_map[x] for x in s.objects}

    for y in t.objects:
        reachable = any(t.dst[a] in image_objects for a in t.arrows_with_src(y))
        if not reachable:
            failures.append(Failure("essential surjectivity", f"object {y!r} is unreachable"))

    for x in s.objects:
        for y in s.objects:
            dom = s.hom_set(x, y)
            cod = t.hom_set(f.obj_map[x], f.obj_map[y])
            images = [f.arr_map[a] for a in dom]
            if len(set(images)) != len(images):
                failures.append(Failure("full faithfulness", f"hom ({x!r},{y!r}) not injective"))
            elif set(images) != set(cod):
                failures.append(
                    Failure(
                        "full faithfulness",
                        f"hom ({x!r},{y!r}) maps {len(dom)} arrows onto {len(cod)}",
                    )
                )

    return ValidationReport("essential equivalence", tuple(failures))


@dataclass(frozen=True)
class MoritaSpan:
    """A common apex with one essential equivalence into each leg."""

    apex: FiniteGroupoid
    left: GroupoidFunctor
    right: GroupoidFunctor

    def __post_init__(self) -> None:
        if self.left.source != self.apex or self.right.source != self.apex:
            raise ValueError("both span legs must start at the apex groupoid")

    def reversed(self) -> "MoritaSpan":
        return MoritaSpan(self.apex, self.right, self.left)


def validate_span(span: MoritaSpan) -> ValidationReport:
    failures: list[Failure] = []
    for name, leg in (("left", span.left), ("right", span.right)):
        report = leg.equivalence_report
        failures.extend(Failure(f"{name} leg {f.law}", f.witness) for f in report.failures)
    return ValidationReport("span", tuple(failures))


# -- inverse image and its quasi-inverse -------------------------------------


def pullback_sheaf(f: GroupoidFunctor, e: GSheaf) -> GSheaf:
    """Inverse image along a functor: stalks and transports are relabeled."""
    if e.groupoid is not f.target and e.groupoid != f.target:
        raise ValueError("sheaf must live over the functor's target")
    return GSheaf(
        f.source,
        e.ring,
        {x: e.stalk_rank[f.obj_map[x]] for x in f.source.objects},
        {a: e.transport[f.arr_map[a]] for a in f.source.arrows},
    )


def pullback_mor(f: GroupoidFunctor, phi: GSheafMor) -> GSheafMor:
    return GSheafMor(
        pullback_sheaf(f, phi.source),
        pullback_sheaf(f, phi.target),
        {x: phi.maps[f.obj_map[x]] for x in f.source.objects},
    )


def anchors(f: GroupoidFunctor) -> tuple[dict[ObjectId, ObjectId], dict[ObjectId, ArrowId]]:
    """Deterministic anchor data for a quasi-inverse along ``f``.

    For each target object y: the first source object sigma(y) (declaration
    order) whose image reaches y, and the first arrow alpha_y from
    F(sigma(y)) to y.  Exists whenever f is essentially surjective.
    """
    s, t = f.source, f.target
    sigma: dict[ObjectId, ObjectId] = {}
    alpha: dict[ObjectId, ArrowId] = {}
    for y in t.objects:
        for x in s.objects:
            hits = t.hom_set(f.obj_map[x], y)
            if hits:
                sigma[y] = x
                alpha[y] = hits[0]
                break
        else:
            raise ValueError(f"functor is not essentially surjective at {y!r}")
    return sigma, alpha


@dataclass(frozen=True)
class QuasiInverse:
    """A sheaf pushed forward along an essential equivalence, the value of
    ``pullback_quasi_inverse``'s report.

    ``unit`` is the morphism from the input sheaf onto the pullback of the
    output sheaf that the report certifies an isomorphism.
    """

    functor: GroupoidFunctor
    sheaf: GSheaf
    unit: GSheafMor


def push_sheaf(f: GroupoidFunctor, e: GSheaf) -> GSheaf:
    """Push a sheaf over the source forward along an essential equivalence.

    The stalk at a target object y is the stalk at the anchor sigma(y); the
    transport along h conjugates h by the anchor arrows and lifts the result
    through full faithfulness (the lift in ``GroupoidFunctor.inverse_data``).
    """
    if e.groupoid is not f.source and e.groupoid != f.source:
        raise ValueError("sheaf must live over the functor's source")
    sigma, _, lift, _ = f.inverse_data
    ranks, transport = e.stalk_rank, e.transport
    stalk_rank = {y: ranks[x] for y, x in sigma.items()}
    return GSheaf(f.target, e.ring, stalk_rank, {h: transport[a] for h, a in lift.items()})


def pullback_quasi_inverse(f: GroupoidFunctor, e: GSheaf) -> ValidationReport:
    """``push_sheaf(f, e)`` with its certificate: the unit from e onto the
    pullback of the pushed sheaf is an isomorphism (law "quasi-inverse
    unit"), and the pushed sheaf passes ``validate_sheaf`` (law
    "quasi-inverse sheaf"), unit failures first.  The unit reads only the
    transports of arrows in the image of f; the sheaf check reads the rest.
    The report's value is the ``QuasiInverse``."""
    pushed = push_sheaf(f, e)
    unit_maps = {x: e.transport[a] for x, a in f.inverse_data[3].items()}
    unit = GSheafMor(e, pullback_sheaf(f, pushed), unit_maps)
    failures = _as_step("quasi-inverse unit", is_sheaf_isomorphism(unit))
    failures += _as_step("quasi-inverse sheaf", validate_sheaf(pushed))
    return ValidationReport("quasi-inverse", failures, QuasiInverse(f, pushed, unit))


def _as_step(law: str, report: ValidationReport) -> tuple[Failure, ...]:
    """The failures of ``report`` under the law ``law``, the name of a
    certified step; each keeps its own law and witness as the witness."""
    return tuple(Failure(law, str(failure)) for failure in report.failures)


def qi_mor(f: GroupoidFunctor, phi: GSheafMor, source: GSheaf, target: GSheaf) -> GSheafMor:
    """The quasi-inverse construction on morphisms: components at anchors."""
    sigma = f.inverse_data[0]
    return GSheafMor(source, target, {y: phi.maps[sigma[y]] for y in f.target.objects})


def counit_iso(f: GroupoidFunctor, e: GSheaf, pushed_pullback: GSheaf) -> ValidationReport:
    """Certify the counit, law "counit": the morphism from the quasi-inverse
    of the pullback of e onto e is an isomorphism.

    Componentwise it transports along the inverse anchor arrow; the input
    ``pushed_pullback`` must be push_sheaf(f, pullback_sheaf(f, e)).  The
    report's value is the morphism, whose ``inverse`` is the one the
    isomorphism check found.
    """
    alpha = f.inverse_data[1]
    maps = {y: e.transport[e.groupoid.inverse[alpha[y]]] for y in f.target.objects}
    iso = GSheafMor(pushed_pullback, e, maps)
    return ValidationReport("counit", _as_step("counit", is_sheaf_isomorphism(iso)), iso)


# -- module transport ----------------------------------------------------------


def module_transport(span: MoritaSpan, m: GModule) -> GModule:
    """Carry a module across the span: germ sheaf, pull back along the left
    leg, push forward along the right leg, take sections."""
    report = validate_span(span)
    if not report.ok:
        raise ValueError(f"invalid span: {report.first()}")
    if m.groupoid != span.left.target:
        raise ValueError("module must live over the left leg's target groupoid")
    sheaf = sheafify(m).sheaf
    over_apex = pullback_sheaf(span.left, sheaf)
    return gamma_c(push_sheaf(span.right, over_apex))


@dataclass(frozen=True)
class RoundTripCertificate:
    """The value of a round-trip report: the module carried across the span,
    and ``iso``, the intertwiner from the original module onto the one
    carried back (None when a singular epsilon or counit left no chain to
    build it from)."""

    transported: GModule
    iso: GModuleHom | None


def round_trip(span: MoritaSpan, m: GModule) -> ValidationReport:
    """Transport a module across the span and back, and certify an explicit
    invertible intertwiner from the original onto the result.

    The steps are certified in turn; a failure's law names its step
    ("quasi-inverse unit", "quasi-inverse sheaf", "epsilon", "counit" or
    "round-trip intertwiner") and its witness is that step's own failure.
    The transported module is the section module ε already built (built
    again when ε finds it has no germ sheaf), so the value holds it
    whichever step failed.  A module with no germ sheaf fails under the
    law "germ sheaf" before any step, and the report has no value.

    No isomorphism in the chain is inverted twice: the inverse of ε is the
    one its stalkwise-bijective check computed, and the inverse of the
    counit the one ``counit_iso``'s check computed (``GSheafMor.inverse``).
    Both pushes along the left leg, of the apex sheaf and of the pulled-back
    germ sheaf, are needed only as sheaves, so they come from
    ``push_sheaf`` without a unit to build and check; the final intertwiner
    check covers them.
    """
    left, right = span.left, span.right
    sh_m = _germ_sheaf(m)
    if isinstance(sh_m, Failure):
        return ValidationReport("round trip", (sh_m,))
    e = sh_m.sheaf                                    # over the left target
    e_apex = pullback_sheaf(left, e)                  # over the apex
    push_right = pullback_quasi_inverse(right, e_apex)

    eps = epsilon(push_right.value.sheaf)
    qi_e_apex = push_sheaf(left, e_apex)
    counit = counit_iso(left, e, qi_e_apex)
    failures = push_right.failures + _as_step("epsilon", eps) + counit.failures
    if eps.value is None:  # ε found no germ sheaf of the transported module
        return ValidationReport(
            "round trip", failures, RoundTripCertificate(gamma_c(push_right.value.sheaf), None)
        )
    n = eps.value.sheafification.module               # transported module
    sh_n_sheaf = eps.value.sheafification.sheaf       # germ sheaf of n
    eps_inv, counit_inv = eps.value.iso.inverse, counit.value.inverse
    if eps_inv is None or counit_inv is None:
        return ValidationReport("round trip", failures, RoundTripCertificate(n, None))

    back_apex = pullback_sheaf(right, sh_n_sheaf)     # over the apex again
    pushed_back = push_sheaf(left, back_apex)
    returned = gamma_c(pushed_back)

    # Sheaf-level chain over the apex: pb_L(e) -> pb_R(sh_n_sheaf).
    chain_apex = compose_sheaf_mors(push_right.value.unit, pullback_mor(right, eps_inv))
    # Push the chain forward along the left leg and close up with the counit.
    lifted = qi_mor(left, chain_apex, qi_e_apex, pushed_back)
    sheaf_iso = compose_sheaf_mors(counit_inv, lifted)  # e -> pushed_back

    # Γ(sheaf_iso) is block-diagonal in its components (``gamma_c_mor``).
    blocks = block_diagonal(m.ring, [sheaf_iso.maps[x] for x in e.groupoid.objects])
    iso = GModuleHom(m, returned, eta_matrix(sh_m) @ blocks)
    failures += _as_step("round-trip intertwiner", is_isomorphism(iso))
    return ValidationReport("round trip", failures, RoundTripCertificate(n, iso))


# -- batch verification ----------------------------------------------------------


@dataclass(frozen=True)
class MoritaSample:
    index: int
    direction: str
    source_rank: int
    transported_rank: int
    round_trip_ok: bool


def _leg_report(f: GroupoidFunctor) -> ValidationReport:
    """``f.equivalence_report`` after a "groupoid" failure for each end of
    ``f`` with no isotropy plan, which drawing and transport read; the
    witness names the end and ``validate_groupoid``'s first failure."""
    broken = tuple(
        Failure("groupoid", f"{end}: {validate_groupoid(g).first()}")
        for end, g in (("source", f.source), ("target", f.target)) if g.isotropy_plan is None
    )
    report = f.equivalence_report
    return replace(report, failures=broken + report.failures)


@dataclass(frozen=True)
class MoritaReport:
    left_leg: ValidationReport  # is_essential_equivalence of each leg, after its groupoid failures
    right_leg: ValidationReport
    samples: tuple[MoritaSample, ...]
    hom_dims: tuple[tuple[int, int, int, int], ...]  # (i, j, dim source, dim transported)

    @property
    def rejected(self) -> bool:
        return not (self.left_leg.ok and self.right_leg.ok)

    @property
    def ok(self) -> bool:
        return (
            not self.rejected
            and all(s.round_trip_ok for s in self.samples)
            and all(a == b for (_, _, a, b) in self.hom_dims)
        )


def verify_morita(span: MoritaSpan, ring: Ring, samples: int, seed: int) -> MoritaReport:
    """Sample modules on both legs, transport them, and certify round trips
    and hom-space dimensions.  A span with a defective leg is rejected
    before any transport is attempted."""
    left_leg = _leg_report(span.left)
    right_leg = _leg_report(span.right)
    if not (left_leg.ok and right_leg.ok):
        return MoritaReport(left_leg, right_leg, (), ())

    rng = random.Random(seed)
    left_g = span.left.target
    right_g = span.right.target
    results: list[MoritaSample] = []
    transported_pairs: list[tuple[GModule, GModule]] = []

    for i in range(samples):
        m = random_module(left_g, ring, max_rank=2, seed=rng.randrange(2**32))
        cert = round_trip(span, m)
        results.append(
            MoritaSample(i, "left->right", m.rank, cert.value.transported.rank, cert.ok)
        )
        transported_pairs.append((m, cert.value.transported))

        n = random_module(right_g, ring, max_rank=2, seed=rng.randrange(2**32))
        cert_back = round_trip(span.reversed(), n)
        results.append(
            MoritaSample(i, "right->left", n.rank, cert_back.value.transported.rank, cert_back.ok)
        )

    hom_dims: list[tuple[int, int, int, int]] = []
    for i in range(min(len(transported_pairs), 3)):
        for j in range(min(len(transported_pairs), 3)):
            (m1, n1), (m2, n2) = transported_pairs[i], transported_pairs[j]
            hom_dims.append((i, j, hom_space_dim(m1, m2), hom_space_dim(n1, n2)))

    return MoritaReport(left_leg, right_leg, tuple(results), tuple(hom_dims))
