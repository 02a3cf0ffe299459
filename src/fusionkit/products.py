"""Products of normal subsystems: the centralize-each-other predicate, the
central product F1*F2 and its definition checked literally, and the
verification bundle for the product theorems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .centralizers import z_of
from .errors import NotCentralizing, VerificationFailed
from .fusion import FusionSystem, generated_subsystem, subsystem_contains
from .groups import Hom, Subgroup, subgroup_lattice
from .saturation import classify, is_saturated
from .subsystems import centralizer_subsystem, extension_witness, is_normal


# -- central products -----------------------------------------------------------


def centralize_each_other(F: FusionSystem, F1: FusionSystem,
                          F2: FusionSystem) -> bool:
    """F1 <= C_F(S2) and F2 <= C_F(S1)."""
    return (subsystem_contains(centralizer_subsystem(F, F2.support), F1)
            and subsystem_contains(centralizer_subsystem(F, F1.support), F2))


def star_generators(F: FusionSystem, F1: FusionSystem,
                    F2: FusionSystem) -> list[Hom]:
    """Morphisms on P1 P2 landing in S1 S2 whose restrictions lie in the factors."""
    T = F.universe.generated_subgroup(F1.support.members + F2.support.members)
    tset = T.member_set
    gens: list[Hom] = []
    seen: set[tuple] = set()
    for P1 in F1.subgroups():
        for P2 in F2.subgroups():
            P = F.universe.generated_subgroup(P1.members + P2.members)
            for psi in F.isos_from(P):
                if not set(psi.images) <= tset:
                    continue
                if psi.restrict_cores(P1).images not in F1._keys_from(P1):
                    continue
                if psi.restrict_cores(P2).images not in F2._keys_from(P2):
                    continue
                key = (P.members, psi.images)
                if key not in seen:
                    seen.add(key)
                    gens.append(psi)
    return gens


def _star_product(F: FusionSystem, F1: FusionSystem,
                  F2: FusionSystem) -> FusionSystem:
    """The subsystem of F over S1 S2 generated by ``star_generators``."""
    T = F.universe.generated_subgroup(F1.support.members + F2.support.members)
    D = generated_subsystem(F, T, star_generators(F, F1, F2))
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


def _push_product_pair(D: FusionSystem, phi1: Hom, phi2: Hom) -> Optional[Hom]:
    """Image of phi1 x phi2 under the multiplication map, or None when the
    pushed map is ill-defined or non-injective."""
    mul = D.universe._mul
    return Hom.from_pairs(D.universe,
                          ((mul[x1][x2], mul[y1][y2])
                           for x1, y1 in zip(phi1.domain.members, phi1.images)
                           for x2, y2 in zip(phi2.domain.members, phi2.images)))


def _induced_by_some_pair(D: FusionSystem, F1: FusionSystem, F2: FusionSystem,
                          psi: Hom) -> bool:
    """Is psi the multiplication-map image of some (phi1 x phi2) restriction?

    Every product-system morphism is such a restriction, so the image
    hom-sets come down to pairs (phi1, phi2) together with the largest
    compatible preimage: {(x1,x2) : x1 x2 in dom(psi), psi(x1 x2) =
    phi1(x1) phi2(x2)} is a subgroup, and psi is induced exactly when its
    multiplication image covers dom(psi)."""
    G = D.universe
    mul, inv = G._mul, G._inv
    Pp = psi.domain
    s2set = F2.support.member_set
    cand1 = tuple(sorted(x1 for x1 in F1.support.members
                         if any(mul[inv[x1]][p] in s2set for p in Pp.members)))
    P1max = Subgroup(G, cand1, check=False)
    s1set = F1.support.member_set
    cand2 = tuple(sorted(x2 for x2 in F2.support.members
                         if any(mul[p][inv[x2]] in s1set for p in Pp.members)))
    P2max = Subgroup(G, cand2, check=False)
    pset = Pp.member_set
    for P1 in subgroup_lattice(P1max):
        for phi1 in F1.isos_from(P1):
            for P2 in subgroup_lattice(P2max):
                for phi2 in F2.isos_from(P2):
                    covered = set()
                    for x1 in P1.members:
                        fx1 = phi1(x1)
                        for x2 in P2.members:
                            t = mul[x1][x2]
                            if t in pset and psi(t) == mul[fx1][phi2(x2)]:
                                covered.add(t)
                    if pset <= covered:
                        return True
    return False


def is_central_product(D: FusionSystem, F1: FusionSystem,
                       F2: FusionSystem) -> bool:
    """The clauses of the definition, checked literally for the
    multiplication map: central intersection, the map induces a functor
    from F1 x F2 into D (on pairs, via the product structure theorem),
    the functor is surjective on every hom-set of D, and it carries the
    canonical factor images onto F1 and F2 (automatic for multiplication,
    still asserted through the factor containments)."""
    S1, S2 = F1.support, F2.support
    meet = S1.meet(S2)
    for Fi in (F1, F2):
        if not meet.member_set <= z_of(Fi).member_set:
            return False
    if not S1.is_elementwise_commuting(S2):
        return False
    T = D.universe.generated_subgroup(S1.members + S2.members)
    if D.support != T:
        return False
    if not (subsystem_contains(D, F1) and subsystem_contains(D, F2)):
        return False
    for P1 in F1.subgroups():
        for phi1 in F1.isos_from(P1):
            for P2 in F2.subgroups():
                for phi2 in F2.isos_from(P2):
                    pushed = _push_product_pair(D, phi1, phi2)
                    if pushed is None or not D.contains_morphism(pushed):
                        return False
    for Pp in D.subgroups():
        for psi in D.isos_from(Pp):
            if not _induced_by_some_pair(D, F1, F2, psi):
                return False
    return True


# -- the product-theorem verification bundle ----------------------------------------


@dataclass(frozen=True)
class ProductReport:
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


def radical_intersect_failure(F: FusionSystem, S1: Subgroup, S2: Subgroup,
                              cr_list: Optional[Sequence[Subgroup]] = None
                              ) -> Optional[list[int]]:
    """First centric radical R with R n S1S2 != (R n S1)(R n S2), if any."""
    T = F.universe.generated_subgroup(S1.members + S2.members)
    for R in (cr_list if cr_list is not None else classify(F).cr_set()):
        lhs = R.member_set & T.member_set
        if lhs != set(R.meet(S1).product_set(R.meet(S2))):
            return list(R.members)
    return None


def zcentralize_witnesses(F: FusionSystem, Fi: FusionSystem,
                          Fj: FusionSystem) -> bool:
    """Extension witnesses: each beta in Aut_{Fi}(Si) extends to an
    automorphism of Si C_S(Si) moving C_S(Si) into Si and fixing Sj."""
    return all(extension_witness(F, beta, Fi.support, fixed=Fj.support)
               is not None for beta in Fi.automorphisms(Fi.support))


def verify_product_theorems(F: FusionSystem, F1: FusionSystem,
                            F2: FusionSystem) -> ProductReport:
    """Clauses: the centralize/center iff, saturation + normality + central
    product of F1*F2 when centralizing, the radical intersection identity,
    and the extension witnesses.  Memoized in F's slot under the factors'
    content keys."""
    return F.memo(F.pair_key("product-report", F1, F2),
                  lambda: _product_report(F, F1, F2))


def _product_report(F: FusionSystem, F1: FusionSystem,
                    F2: FusionSystem) -> ProductReport:
    alarms: list[str] = []
    S1, S2 = F1.support, F2.support
    meet = S1.meet(S2)
    z1 = meet.member_set <= z_of(F1).member_set
    z2 = meet.member_set <= z_of(F2).member_set
    ce = centralize_each_other(F, F1, F2)
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
    elif z1 and z2:
        # Central intersection fine yet not centralizing: any candidate over
        # S1 S2 would witness (ii) without (i); test the canonical one.
        if is_central_product(_star_product(F, F1, F2), F1, F2):
            alarms.append("central product exists although factors do not centralize")
            star_cp = True
    # When the central-intersection clause already fails, no subsystem can
    # be a central product of the factors, so (ii) is false with (i).

    radical_bad = None
    if S1.is_elementwise_commuting(S2):
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
