"""Essential equivalences, spans, and transport of modules across them.

A functor between finite groupoids is an essential equivalence when every
target object is reachable by an arrow from the image and all hom-sets map
bijectively.  Two groupoids joined by a span of essential equivalences out
of a common apex have equivalent sheaf categories, realized here by an
explicit inverse-image functor (stalkwise relabeling along the functor) and
a quasi-inverse built from a deterministic choice of anchor objects and
arrows.  Composing with the section/germ equivalence on both ends
transports unitary modules between the two convolution algebras, and every
transported sample comes with an explicit invertible round-trip intertwiner
rather than a bare assertion.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .equivalence import epsilon, eta_matrix, gamma_c, gamma_c_mor, sheafify
from .gmodule import GModule, GModuleHom, hom_space_dim, is_isomorphism
from .groupoid import ArrowId, FiniteGroupoid, ObjectId
from .gsheaf import (
    GSheaf,
    GSheafMor,
    compose_sheaf_mors,
    is_sheaf_isomorphism,
)
from .rings import Matrix, Ring
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
    def inverse_data(self) -> tuple[dict[ObjectId, ObjectId], dict[ObjectId, ArrowId], dict[tuple, ArrowId]]:
        """What a quasi-inverse along this functor reads: the ``anchors``
        sigma and alpha, and the preimage index (x, y, b) -> the unique source
        arrow x -> y mapping to b.  Raises ``ValueError`` unless the functor
        is an essential equivalence, which makes that arrow unique."""
        report = self.equivalence_report
        if not report.ok:
            raise ValueError(f"not an essential equivalence: {report.first()}")
        sigma, alpha = anchors(self)
        s = self.source
        preimage = {(s.src[a], s.dst[a], self.arr_map[a]): a for a in s.arrows}
        return sigma, alpha, preimage


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
    if e.groupoid != f.target:
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
    """A sheaf pushed forward along an essential equivalence.

    ``unit`` certifies the construction: it is the isomorphism from the
    input sheaf onto the pullback of the output sheaf.
    """

    functor: GroupoidFunctor
    sheaf: GSheaf
    unit: GSheafMor


def push_sheaf(f: GroupoidFunctor, e: GSheaf) -> GSheaf:
    """Push a sheaf over the source forward along an essential equivalence.

    The stalk at a target object y is the stalk at the anchor sigma(y); the
    transport along h conjugates h by the anchor arrows and lifts the result
    through full faithfulness.
    """
    if e.groupoid != f.source:
        raise ValueError("sheaf must live over the functor's source")
    t = f.target
    sigma, alpha, preimage = f.inverse_data

    stalk_rank = {y: e.stalk_rank[sigma[y]] for y in t.objects}
    transport: dict[ArrowId, Matrix] = {}
    for h in t.arrows:
        y_from, y_to = t.src[h], t.dst[h]  # h runs y_from -> y_to
        conj = t.compose[(t.inverse[alpha[y_to]], t.compose[(h, alpha[y_from])])]
        transport[h] = e.transport[preimage[sigma[y_from], sigma[y_to], conj]]
    return GSheaf(t, e.ring, stalk_rank, transport)


def pullback_quasi_inverse(f: GroupoidFunctor, e: GSheaf) -> QuasiInverse:
    """``push_sheaf(f, e)`` with its certificate: the unit, an isomorphism
    from e onto the pullback of the pushed sheaf, checked here."""
    pushed = push_sheaf(f, e)
    sigma, alpha, preimage = f.inverse_data
    unit_maps: dict[ObjectId, Matrix] = {}
    for x in f.source.objects:
        y = f.obj_map[x]
        unit_maps[x] = e.transport[preimage[sigma[y], x, alpha[y]]]
    unit = GSheafMor(e, pullback_sheaf(f, pushed), unit_maps)
    if not is_sheaf_isomorphism(unit):
        raise AssertionError("quasi-inverse unit failed to be an isomorphism")
    return QuasiInverse(f, pushed, unit)


def qi_mor(f: GroupoidFunctor, phi: GSheafMor, source: GSheaf, target: GSheaf) -> GSheafMor:
    """The quasi-inverse construction on morphisms: components at anchors."""
    sigma, _, _ = f.inverse_data
    return GSheafMor(source, target, {y: phi.maps[sigma[y]] for y in f.target.objects})


def counit_iso(f: GroupoidFunctor, e: GSheaf, pushed_pullback: GSheaf) -> GSheafMor:
    """The isomorphism from the quasi-inverse of the pullback of e onto e.

    Componentwise it transports along the inverse anchor arrow; the input
    ``pushed_pullback`` must be push_sheaf(f, pullback_sheaf(f, e)).
    The returned morphism's ``inverse`` is the one the isomorphism check found.
    """
    _, alpha, _ = f.inverse_data
    maps = {y: e.transport[e.groupoid.inverse[alpha[y]]] for y in f.target.objects}
    iso = GSheafMor(pushed_pullback, e, maps)
    if not is_sheaf_isomorphism(iso):
        raise AssertionError("counit failed to be an isomorphism")
    return iso


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
    pushed = pullback_quasi_inverse(span.right, over_apex)
    return gamma_c(pushed.sheaf)


@dataclass(frozen=True)
class RoundTripCertificate:
    module: GModule
    transported: GModule
    returned: GModule
    iso: GModuleHom  # module -> returned, invertible intertwiner

    @property
    def ok(self) -> bool:
        return True


def round_trip(span: MoritaSpan, m: GModule) -> RoundTripCertificate:
    """Transport a module across the span and back, with an explicit
    invertible intertwiner from the original onto the result.

    No isomorphism in the chain is inverted twice: the inverse of ε is the
    one its stalkwise-bijective check computed, and the inverse of the
    counit the one ``counit_iso``'s check computed (``GSheafMor.inverse``).
    The transported module is the section module ε already built.  The
    left push of the apex sheaf is needed only as a sheaf, so it comes from
    ``push_sheaf`` without a unit to build and check; the final intertwiner
    check covers it.
    """
    left, right = span.left, span.right
    sh_m = sheafify(m)
    e = sh_m.sheaf                                    # over the left target
    e_apex = pullback_sheaf(left, e)                  # over the apex
    push_right = pullback_quasi_inverse(right, e_apex)

    eps = epsilon(push_right.sheaf)
    if not eps.ok:
        raise AssertionError("epsilon certificate unavailable during round trip")
    n = eps.sheafification.module                     # transported module
    sh_n_sheaf = eps.sheafification.sheaf             # germ sheaf of n

    back_apex = pullback_sheaf(right, sh_n_sheaf)     # over the apex again
    push_left = pullback_quasi_inverse(left, back_apex)
    returned = gamma_c(push_left.sheaf)

    # Sheaf-level chain over the apex: pb_L(e) -> pb_R(sh_n_sheaf).
    eps_inv = eps.morphism.inverse
    assert eps_inv is not None
    chain_apex = compose_sheaf_mors(push_right.unit, pullback_mor(right, eps_inv))
    # Push the chain forward along the left leg and close up with the counit.
    qi_e_apex = push_sheaf(left, e_apex)
    lifted = qi_mor(left, chain_apex, qi_e_apex, push_left.sheaf)
    counit = counit_iso(left, e, qi_e_apex)
    counit_inv = counit.inverse
    assert counit_inv is not None
    sheaf_iso = compose_sheaf_mors(counit_inv, lifted)  # e -> push_left.sheaf

    iso_matrix = eta_matrix(sh_m) @ gamma_c_mor(sheaf_iso, gamma_c(e), returned).matrix
    iso = GModuleHom(m, returned, iso_matrix)
    if not is_isomorphism(iso):
        raise AssertionError("round-trip intertwiner failed to be an isomorphism")
    return RoundTripCertificate(m, n, returned, iso)


# -- batch verification ----------------------------------------------------------


@dataclass(frozen=True)
class MoritaSample:
    index: int
    direction: str
    source_rank: int
    transported_rank: int
    round_trip_ok: bool


@dataclass(frozen=True)
class MoritaReport:
    left_leg: ValidationReport  # is_essential_equivalence of each leg
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
    from .builders import random_module  # deferred: builders depends on this module's siblings

    left_leg = span.left.equivalence_report
    right_leg = span.right.equivalence_report
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
            MoritaSample(i, "left->right", m.rank, cert.transported.rank, cert.ok)
        )
        transported_pairs.append((m, cert.transported))

        n = random_module(right_g, ring, max_rank=2, seed=rng.randrange(2**32))
        cert_back = round_trip(span.reversed(), n)
        results.append(
            MoritaSample(i, "right->left", n.rank, cert_back.transported.rank, cert_back.ok)
        )

    hom_dims: list[tuple[int, int, int, int]] = []
    if ring.supports_elimination:
        for i in range(min(len(transported_pairs), 3)):
            for j in range(min(len(transported_pairs), 3)):
                (m1, n1), (m2, n2) = transported_pairs[i], transported_pairs[j]
                hom_dims.append((i, j, hom_space_dim(m1, m2), hom_space_dim(n1, n2)))

    return MoritaReport(left_leg, right_leg, tuple(results), tuple(hom_dims))
