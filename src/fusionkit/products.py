"""Products of normal subsystems: the centralize-each-other predicate, the
central product F1*F2 and its definition, and the verification bundle for
the product theorems.

The central-product checks walk the pairs (P1, P2) of subgroups of S1 and
S2, which commute elementwise, so each P1 P2 is a subgroup: the product
set.  One datum per pair (``_pair``) holds that interned subgroup with the
positions of P1 and P2 in it.  F1*F2 is the subsystem of F over S1 S2
generated by ``star_generators``: the morphisms psi on P1 P2 whose
restrictions to P1 and P2, read off psi's image key at those positions,
lie in the factors.  ``is_central_product`` checks every clause of the
definition in one walk, on image keys and counts; its docstring gives the
equivalence with the literal clauses.  The Hom forms,
``star_generators_literal`` and ``is_central_product_literal``, are in
``tests/oracles.py``."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .centralizers import contained_in_centralizer, z_of
from .errors import NotCentralizing, VerificationFailed
from .fusion import (FusionSystem, derived, generated_subsystem,
                     subsystem_contains)
from .groups import Hom, Subgroup, picker
from .saturation import classify, is_saturated
from .subsystems import extension_witness, is_normal


# -- central products -----------------------------------------------------------


def centralize_each_other(F: FusionSystem, F1: FusionSystem,
                          F2: FusionSystem) -> bool:
    """F1 <= C_F(S2) and F2 <= C_F(S1)."""
    return (contained_in_centralizer(F, F1, F2.support)
            and contained_in_centralizer(F, F2, F1.support))


def _pair(P1: Subgroup, P2: Subgroup) -> tuple:
    """The datum of two subgroups that commute elementwise: their product
    subgroup P = P1 P2 and the pickers restricting a key on P to P1 and to
    P2.  Kept on P1 under P2's members (``Subgroup.derived``), so it dies
    with P1."""
    key = ("product", P2.members)
    got = P1.derived.get(key)
    if got is None:
        P = P1.product(P2)  # P1 and P2 commute elementwise
        at = P.positions
        got = P1.derived[key] = (P, picker([at[x] for x in P1.members]),
                                 picker([at[x] for x in P2.members]))
    return got


def star_generators(F: FusionSystem, F1: FusionSystem,
                    F2: FusionSystem) -> list[Hom]:
    """Morphisms on P1 P2 landing in S1 S2 whose restrictions lie in the
    factors; psi|_{P1} and psi|_{P2} are read off psi's image key through
    the pair datum of (P1, P2).  The callers have checked that S1 and S2
    commute elementwise, so P1 P2 = <P1, P2>."""
    tset = _pair(F1.support, F2.support)[0].member_set
    gens: list[Hom] = []
    seen: set[tuple] = set()
    for P1 in F1.subgroups():
        keys1 = F1._keys_from(P1)
        for P2 in F2.subgroups():
            P, to_p1, to_p2 = _pair(P1, P2)
            keys2 = F2._keys_from(P2)
            for psi in F.isos_from(P):
                k = psi.images
                if (tset.issuperset(k) and to_p1(k) in keys1
                        and to_p2(k) in keys2 and (P.members, k) not in seen):
                    seen.add((P.members, k))
                    gens.append(psi)
    return gens


def _star_product(F: FusionSystem, F1: FusionSystem,
                  F2: FusionSystem) -> FusionSystem:
    """The subsystem of F over S1 S2 generated by ``star_generators``."""
    D = generated_subsystem(F, _pair(F1.support, F2.support)[0],
                            star_generators(F, F1, F2))
    D.name = f"{F1.name}*{F2.name}"
    return D


def central_product_subsystem(F: FusionSystem, F1: FusionSystem,
                              F2: FusionSystem) -> FusionSystem:
    """F1 * F2 over S1 S2; post-verified saturated and a central product."""
    if not centralize_each_other(F, F1, F2):
        raise NotCentralizing("factors do not centralize each other")
    D = _star_product(F, F1, F2)
    if not is_saturated(D).ok:
        raise VerificationFailed("central product is not saturated")
    if not is_central_product(D, F1, F2):
        raise VerificationFailed("generated subsystem is not a central product")
    return D


def is_central_product(D: FusionSystem, F1: FusionSystem,
                       F2: FusionSystem) -> bool:
    """The clauses of the definition for the multiplication map: central
    intersection, the map induces a functor from F1 x F2 into D (on pairs,
    via the product structure theorem), the functor is surjective on every
    hom-set of D, and it carries the canonical factor images onto F1 and F2
    (automatic for multiplication, still asserted through the factor
    containments).  Checked on image keys in one walk over the pairs
    (P1, P2), with no pushed map built or kept; the Hom form is
    ``tests/oracles.py::is_central_product_literal``.  It needs only that
    every morphism of a system is an injective homomorphism.

    Meet rule: the push x1 x2 -> phi1(x1) phi2(x2) of (phi1, phi2) on
    P = P1 P2 is well defined iff phi1 = phi2 on P1 n P2.  Two
    factorizations x1 x2 = y1 y2 of a point differ by z = y1^-1 x1 =
    y2 x2^-1 in P1 n P2, as y1 = x1 z^-1 and y2 = z x2, and every z there
    arises so; the values phi1(x1) phi1(z)^-1 phi2(z) phi2(x2) and
    phi1(x1) phi2(x2) agree iff phi1(z) = phi2(z).

    Functor: every pair of F1(P1) x F2(P2) must push to a well-defined,
    injective map in D.  A morphism k of D on P is an injective
    homomorphism and P1, P2 generate P, so k is the push of (k|P1, k|P2),
    a pair that agrees on P1 n P2.  So k -> (k|P1, k|P2) maps the keys of
    D on P that restrict into the factors, the pushes, one to one onto
    the pairs that agree on P1 n P2 and push into D.  The clause holds at
    (P1, P2) iff the pushes number |F1(P1)| |F2(P2)|: each pair that
    disagrees on P1 n P2, or pushes outside D, is one push fewer.

    Surjectivity: psi on Pp is induced by (phi1, phi2) with P1 <= S1 n Pp S2
    and P2 <= S2 n S1 Pp (the bounds of the literal form) when every t in
    Pp has a factorization t = x1 x2 with psi(t) = phi1(x1) phi2(x2).  Once
    every push is well defined, this holds iff Pp <= P1 P2 and psi is the
    push restricted to Pp.  Given Pp <= P1 P2 <= P1 S2, P1 <= Pp S2 iff
    Pp S2 = P1 S2, that is iff |Pp : Pp n S2| = |P1 : P1 n S2|, and
    likewise for P2 with S1; so each pair covers the subgroups Pp <= P1 P2
    with its two indices.  D is hit on every hom-set iff the restrictions
    of the pushes cover ``D._keys_from(Pp)`` for every Pp.  The bounds
    keep this exact for tables not closed under restriction."""
    S1, S2 = F1.support, F2.support
    meet = S1.meet(S2)
    for Fi in (F1, F2):
        if not meet.member_set <= z_of(Fi).member_set:
            return False
    if not S1.is_elementwise_commuting(S2):
        return False
    if D.support != _pair(S1, S2)[0]:
        return False
    if not (subsystem_contains(D, F1) and subsystem_contains(D, F2)):
        return False
    set1, set2 = S1.member_set, S2.member_set
    need: dict[tuple[int, int], list] = {}
    for Pp in D.subgroups():
        indices = (Pp.order // len(Pp.member_set & set2),
                   Pp.order // len(Pp.member_set & set1))
        need.setdefault(indices, []).append((Pp, set(D._keys_from(Pp))))
    row2 = [(P2, F2._keys_from(P2), P2.order // len(P2.member_set & set1))
            for P2 in F2.subgroups()]
    for P1 in F1.subgroups():
        keys1 = F1._keys_from(P1)
        index1 = P1.order // len(P1.member_set & set2)
        for P2, keys2, index2 in row2:
            P, to_p1, to_p2 = _pair(P1, P2)
            pushes = [k for k in D._keys_from(P)
                      if to_p1(k) in keys1 and to_p2(k) in keys2]
            if len(pushes) != len(keys1) * len(keys2):
                return False
            for Pp, want in need.get((index1, index2), ()):
                if want and P.member_set.issuperset(Pp.generators):
                    at = P.positions
                    want.difference_update(
                        map(picker([at[x] for x in Pp.members]), pushes))
    return not any(want for bucket in need.values() for _, want in bucket)


# -- the product-theorem verification bundle ----------------------------------------


class ProductReport(NamedTuple):
    """Verification results for one pair of normal subsystems with [S1,S2]=1.

    When the factors centralize each other, ``star_order`` and
    ``star_morphisms`` are the support order and the morphism count of
    F1*F2 (None otherwise); they are kept out of ``to_json``."""

    centralize: bool
    central_in_z1: bool
    central_in_z2: bool
    iff_holds: bool
    star_saturated: Optional[bool]
    star_central_product: Optional[bool]
    star_normal: Optional[bool]
    radical_intersect: bool
    z_centralize_witnesses: bool
    alarms: tuple[str, ...]
    star_order: Optional[int]
    star_morphisms: Optional[int]

    @property
    def ok(self) -> bool:
        return (self.iff_holds and self.radical_intersect
                and self.z_centralize_witnesses
                and self.star_saturated is not False
                and self.star_central_product is not False
                and self.star_normal is not False)

    def to_json(self) -> dict:
        return {
            "centralize_each_other": self.centralize,
            "meet_in_Z(F1)": self.central_in_z1,
            "meet_in_Z(F2)": self.central_in_z2,
            "iff": self.iff_holds,
            "star_saturated": self.star_saturated,
            "star_central_product": self.star_central_product,
            "star_normal": self.star_normal,
            "radical_intersect": self.radical_intersect,
            "z_centralize": self.z_centralize_witnesses,
            "alarms": list(self.alarms),
        }


def radical_intersect_failure(F: FusionSystem, S1: Subgroup, S2: Subgroup
                              ) -> Optional[list[int]]:
    """First centric radical R with R n S1S2 != (R n S1)(R n S2), if any;
    S1 and S2 commute elementwise."""
    T = _pair(S1, S2)[0]
    for R in classify(F).cr_set():
        lhs = R.member_set & T.member_set
        if lhs != set(R.meet(S1).product_set(R.meet(S2))):
            return list(R.members)
    return None


def zcentralize_witnesses(F: FusionSystem, Fi: FusionSystem,
                          Fj: FusionSystem) -> bool:
    """Extension witnesses: each beta in Aut_{Fi}(Si) extends to an
    automorphism of Si C_S(Si) moving C_S(Si) into Si and fixing Sj, read
    off the extension table of Si (``extension_witness``).  An Sj outside
    Si C_S(Si), as on supports that do not commute, can raise KeyError
    there."""
    return all(extension_witness(F, beta, Fi.support, fixed=Fj.support)
               is not None for beta in Fi.automorphisms(Fi.support))


@derived
def verify_product_theorems(F: FusionSystem, F1: FusionSystem,
                            F2: FusionSystem) -> ProductReport:
    """Clauses: the centralize/center iff, saturation + normality + central
    product of F1*F2 when centralizing, the radical intersection identity,
    and the extension witnesses."""
    alarms: list[str] = []
    S1, S2 = F1.support, F2.support
    meet = S1.meet(S2)
    z1 = meet.member_set <= z_of(F1).member_set
    z2 = meet.member_set <= z_of(F2).member_set
    ce = centralize_each_other(F, F1, F2)
    commuting = S1.is_elementwise_commuting(S2)
    iff_holds = ce == (z1 and z2)
    if not iff_holds:
        alarms.append(f"centralize={ce} but center conditions=({z1},{z2})")

    star_sat = star_cp = star_normal = star_order = star_morphisms = None
    if ce:
        D = _star_product(F, F1, F2)
        star_order, star_morphisms = D.support.order, D.morphism_count()
        star_sat = is_saturated(D).ok
        star_cp = is_central_product(D, F1, F2)
        star_normal = is_normal(F, D).normal
        for flag, label in ((star_sat, "saturated"), (star_cp, "central product"),
                            (star_normal, "normal")):
            if not flag:
                alarms.append(f"F1*F2 is not {label}")
    elif z1 and z2 and commuting:
        # Central intersection fine yet not centralizing: any candidate over
        # S1 S2 would satisfy (ii) without (i); test the canonical one.
        if is_central_product(_star_product(F, F1, F2), F1, F2):
            alarms.append("central product exists although factors do not centralize")
            star_cp = True
    # When the central-intersection clause already fails, or the supports
    # do not commute, no subsystem can be a central product of the
    # factors, so (ii) is false with (i).

    radical_bad = None
    if commuting:
        radical_bad = radical_intersect_failure(F, S1, S2)
        if radical_bad is not None:
            alarms.append(f"radical intersection fails at R={radical_bad}")
    radical_ok = radical_bad is None

    zc = True
    for Fi, Fj, zi in ((F1, F2, z1), (F2, F1, z2)):
        if zi and not zcentralize_witnesses(F, Fi, Fj):
            zc = False
            alarms.append(f"extension witnesses missing for factor over "
                          f"{Fi.support.order}")
    return ProductReport(ce, z1, z2, iff_holds, star_sat, star_cp, star_normal,
                         radical_ok, zc, tuple(alarms), star_order,
                         star_morphisms)
