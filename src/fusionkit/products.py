"""Products of normal subsystems: the centralize-each-other predicate, the
central product F1*F2 and its definition, and the verification bundle for
the product theorems.

F1*F2 is the subsystem of F over S1 S2 generated by ``star_generators``:
the morphisms psi on P1 P2 whose restrictions to P1 and P2 lie in the
factors, read off psi's image key through positions.
``is_central_product`` checks every clause of the definition on image
keys: each pair (phi1, phi2) is pushed once through the multiplication
map, and surjectivity compares, per subgroup of S1 S2, the keys of D with
the restrictions of the pushes (the docstring gives the equivalence with
the literal clause).  The Hom forms, ``star_generators_literal`` and
``is_central_product_literal``, are in ``tests/oracles.py``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .centralizers import contained_in_centralizer, z_of
from .errors import NotCentralizing, VerificationFailed
from .fusion import FusionSystem, generated_subsystem, subsystem_contains
from .groups import Hom, Subgroup, picker
from .saturation import classify, is_saturated
from .subsystems import extension_witness, is_normal


# -- central products -----------------------------------------------------------


def centralize_each_other(F: FusionSystem, F1: FusionSystem,
                          F2: FusionSystem) -> bool:
    """F1 <= C_F(S2) and F2 <= C_F(S1)."""
    return (contained_in_centralizer(F, F1, F2.support)
            and contained_in_centralizer(F, F2, F1.support))


def star_generators(F: FusionSystem, F1: FusionSystem,
                    F2: FusionSystem) -> list[Hom]:
    """Morphisms on P1 P2 landing in S1 S2 whose restrictions lie in the
    factors; psi|_{P1} and psi|_{P2} are read off psi's image key through
    the positions of P1 and P2 in P = <P1, P2>."""
    T = F.universe.generated_subgroup(F1.support.members + F2.support.members)
    tset = T.member_set
    gens: list[Hom] = []
    seen: set[tuple] = set()
    for P1 in F1.subgroups():
        for P2 in F2.subgroups():
            P = F.universe.generated_subgroup(P1.members + P2.members)
            at = P.positions
            to_p1 = picker([at[x] for x in P1.members])
            to_p2 = picker([at[x] for x in P2.members])
            for psi in F.isos_from(P):
                if not tset.issuperset(psi.images):
                    continue
                if to_p1(psi.images) not in F1._keys_from(P1):
                    continue
                if to_p2(psi.images) not in F2._keys_from(P2):
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


def is_central_product(D: FusionSystem, F1: FusionSystem,
                       F2: FusionSystem) -> bool:
    """The clauses of the definition for the multiplication map: central
    intersection, the map induces a functor from F1 x F2 into D (on pairs,
    via the product structure theorem), the functor is surjective on every
    hom-set of D, and it carries the canonical factor images onto F1 and F2
    (automatic for multiplication, still asserted through the factor
    containments).  Checked on image keys; the Hom form is
    ``tests/oracles.py::is_central_product_literal``.

    Functor: each pair (phi1, phi2) is pushed once to the key of
    x1 x2 -> phi1(x1) phi2(x2) on P1 P2, which must be well defined (every
    factorization of a point gives one value), injective and in D.

    Surjectivity: psi on Pp is induced by (phi1, phi2) with P1 <= S1 n Pp S2
    and P2 <= S2 n S1 Pp (the bounds of the literal form) when every t in
    Pp has a factorization t = x1 x2 with psi(t) = phi1(x1) phi2(x2).  Once
    every push is well defined, any factorization of t gives the same
    value, so this holds iff Pp <= P1 P2 and psi is the push restricted to
    Pp.  So the keys induced on Pp are the restrictions to Pp of the
    pushes of the bounded pairs whose products cover Pp, and D is hit on
    every hom-set iff ``D._keys_from(Pp)`` lies in them for every Pp.  The
    bounds keep this exact for tables not closed under restriction."""
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
    mul = D.universe._mul
    shapes: dict[tuple, tuple] = {}
    for P1 in F1.subgroups():
        for phi1 in F1.isos_from(P1):
            rows1 = [mul[y] for y in phi1.images]
            for P2 in F2.subgroups():
                shape = shapes.get((P1.members, P2.members))
                if shape is None:
                    shape = shapes[P1.members, P2.members] = _pair_shape(P1, P2)
                product, _, first, rest, pushed_keys = shape
                for phi2 in F2.isos_from(P2):
                    b = phi2.images
                    pushed = [rows1[i][b[j]] for i, j in first]
                    if any(rows1[i][b[j]] != pushed[k] for k, i, j in rest):
                        return False
                    pushed = tuple(pushed)
                    if (len(set(pushed)) != len(pushed)
                            or not D.contains_key(product, pushed)):
                        return False
                    pushed_keys.append(pushed)
    # S1 and S2 commute elementwise, so both are normal in T = S1 S2, and
    # Pp S2, Pp S1 and P1 P2 are subgroups: containment in them is tested
    # on generators.
    by_s1, by_s2 = picker(S1.members), picker(S2.members)
    for Pp in D.subgroups():
        need = set(D._keys_from(Pp))
        right = set().union(*(by_s2(mul[p]) for p in Pp.members))   # Pp S2
        left = set().union(*(by_s1(mul[p]) for p in Pp.members))    # Pp S1 = S1 Pp
        for P1 in F1.subgroups():
            if not need:
                break
            if not right.issuperset(P1.generators):
                continue
            for P2 in F2.subgroups():
                shape = shapes.get((P1.members, P2.members))
                if shape is None or not left.issuperset(P2.generators):
                    continue
                _, at, _, _, pushed_keys = shape
                if not all(t in at for t in Pp.generators):
                    continue
                need.difference_update(map(picker([at[t] for t in Pp.members]),
                                           pushed_keys))
                if not need:
                    break
        if need:
            return False
    return True


def _pair_shape(P1: Subgroup, P2: Subgroup) -> tuple:
    """For pushing maps on P1 and P2: the sorted product set P1 P2, the
    position of each of its points, the first factorization (i1, i2) of
    each point by positions in P1 and P2, every other factorization as
    (point position, i1, i2), and an empty list for the pushed keys."""
    mul = P1.parent._mul
    first: dict[int, tuple[int, int]] = {}
    others = []
    for i, x1 in enumerate(P1.members):
        row = mul[x1]
        for j, x2 in enumerate(P2.members):
            t = row[x2]
            if t in first:
                others.append((t, i, j))
            else:
                first[t] = (i, j)
    product = tuple(sorted(first))
    at = {t: k for k, t in enumerate(product)}
    return (product, at, [first[t] for t in product],
            [(at[t], i, j) for t, i, j in others], [])


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
        # S1 S2 would satisfy (ii) without (i); test the canonical one.
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
