"""One corruption per lemma check, shared by the mutation tests and the
acceptance suite.  Each scenario returns True when the corrupted input makes
the corresponding verifier fail (counterexample or structural error).  A
verifier takes only systems, so a corrupted datum is injected at the
function of ``verify`` that the verifier reads it from."""

from __future__ import annotations

from unittest.mock import patch

from fusionkit import verify as verify_mod
from fusionkit.corpus import builtin_group
from fusionkit.errors import FusionkitError
from fusionkit.fusion import fusion_of_group, inner_system
from fusionkit.groups import (Hom, center, centralizer, normal_subgroups, o_p,
                              o_upper_p, subgroup_lattice, sylow_subgroup)
from fusionkit.products import zcentralize_witnesses
from fusionkit.subsystems import normal_subsystem_in
from fusionkit.verify import (verify_cfcg0, verify_easy_centralizer,
                              verify_ffef, verify_frattini_cons, verify_gn,
                              verify_l_f1f2, verify_local_normal,
                              verify_prophelp,
                              verify_weakly_closed_centralized,
                              verify_wellknown, verify_x_invariant,
                              with_added_iso, with_replaced_isos)


class Env:
    """Lazily built shared systems for the scenarios."""

    def __init__(self):
        self._cache = {}

    def s4(self):
        if "s4" not in self._cache:
            g = builtin_group("s4")
            S = sylow_subgroup(g.full_subgroup, 2)
            F = fusion_of_group(g, S, 2)
            V = o_p(g.full_subgroup, 2)
            E = normal_subsystem_in(F, o_upper_p(g.full_subgroup, 2))
            self._cache["s4"] = (g, F, V, E)
        return self._cache["s4"]

    def s4xc2(self):
        if "s4xc2" not in self._cache:
            g = builtin_group("s4xc2")
            S = sylow_subgroup(g.full_subgroup, 2)
            F = fusion_of_group(g, S, 2)
            N = next(N for N in normal_subgroups(g.full_subgroup)
                     if N.order == 24 and centralizer(N, N, N).order == 1)
            E = normal_subsystem_in(F, N)
            self._cache["s4xc2"] = (g, F, E)
        return self._cache["s4xc2"]

    def s3_closure(self):
        if "s3c" not in self._cache:
            _, F, V, E = self.s4()
            t = next(h for h in F.automorphisms(V)
                     if not h.is_identity() and h.then(h).is_identity())
            self._cache["s3c"] = with_added_iso(E, t, close=True)
        return self._cache["s3c"]

    def outer_d8(self):
        g, F, E = self.s4xc2()
        T = E.support
        r = next(x for x in T.members if g.element_order(x) == 4)
        refl = next(x for x in T.members if g.element_order(x) == 2
                    and x not in center(T).member_set
                    and g.conj(x, r) != x)
        return Hom.from_generator_images(T, T, [r, refl], [r, g.mul(r, refl)])

    def outer_only(self, E):
        """E with Aut_E(T) replaced by the outer automorphism of D8 alone,
        which does not extend to S."""
        return with_replaced_isos(E, E.support, [self.outer_d8()])


def _caught(probe) -> bool:
    try:
        return probe() is not None
    except FusionkitError:
        return True


def at_subgroup(real, injected: dict):
    """``real(F, E, P)`` except at the P whose members ``injected`` maps."""
    def fake(F, E, P):
        got = injected.get(P.members)
        return real(F, E, P) if got is None else got
    return fake


def z_replaced(support, Z):
    """``z_of`` with Z(F_i) = Z for the factor over ``support``."""
    real = verify_mod.z_of

    def fake(D):
        return Z if D.support == support else real(D)
    return fake


def make_scenarios(env: Env) -> dict:
    def ffef():
        g, F, E = env.s4xc2()
        T = E.support
        z = center(T)
        refl = next(P for P in subgroup_lattice(T)
                    if P.order == 2 and P != z and not P.is_normal_in(T))
        bogus = Hom(refl, z, tuple(z.members[i] for i, _ in
                                   enumerate(refl.members))).validate()
        return _caught(lambda: verify_ffef(F, with_added_iso(E, bogus, close=True)))

    def wellknown():
        g, F, V, E = env.s4()
        Vp = next(P for P in F.subgroups()
                  if P.order == 4 and P != V and
                  all(g.element_order(x) <= 2 for x in P.members))
        a, b = [x for x in V.members if x][:2]
        x, y = [x for x in Vp.members if x][:2]
        bogus = Hom.from_generator_images(V, Vp, [a, b], [x, y])
        return _caught(lambda: verify_wellknown(
            with_added_iso(F, bogus, close=True), E))

    def local_normal():
        _, F, _, _ = env.s4()
        return _caught(lambda: verify_local_normal(F, env.s3_closure()))

    def prophelp():
        _, F, _, _ = env.s4()
        return _caught(lambda: verify_prophelp(F, env.s3_closure()))

    def easy_centralizer():
        _, F, _, E = env.s4()
        Z = center(F.support)
        with patch.object(verify_mod, "centralized_set",
                          lambda F, E: (F.universe.trivial_subgroup, Z)):
            return _caught(lambda: verify_easy_centralizer(F, E))

    def frattini_cons():
        _, F, V, E = env.s4()
        ident = {V.members: (Hom.identity(V),)}
        with patch.object(verify_mod, "h_group",
                          at_subgroup(verify_mod.h_group, ident)), \
                patch.object(verify_mod, "a_circle",
                             at_subgroup(verify_mod.a_circle, ident)):
            return _caught(lambda: verify_frattini_cons(F, E))

    def x_invariant():
        _, F, _, E = env.s4()
        with patch.object(verify_mod, "centralized_set",
                          lambda F, E: (center(F.support),)):
            return _caught(lambda: verify_x_invariant(F, E))

    def weakly_closed():
        _, F, _, E = env.s4()
        with patch.object(verify_mod, "centralized_set", lambda F, E: ()):
            return _caught(lambda: verify_weakly_closed_centralized(F, E))

    def gn():
        _, F, _, _ = env.s4()
        return _caught(lambda: verify_gn(F, env.s3_closure()))

    def cfcg0():
        g, F, E = env.s4xc2()
        honest = verify_mod.normalizer_family(F, E)
        with patch.object(verify_mod, "normalizer_family",
                          lambda F, E: honest):
            return _caught(lambda: verify_cfcg0(F, env.outer_only(E)))

    def zcentralize():
        g, F, E = env.s4xc2()
        bad_E1 = with_added_iso(E, env.outer_d8(), close=True)
        other = next(P for P in subgroup_lattice(F.support)
                     if P.order == 2 and
                     not P.member_set <= E.support.member_set and
                     P.is_elementwise_commuting(F.support))
        E2 = inner_system(F, other)
        try:
            return not zcentralize_witnesses(F, bad_E1, E2)
        except FusionkitError:
            return True

    def l_f1f2():
        g = builtin_group("q8c4")
        F = fusion_of_group(g, g.full_subgroup, 2)
        q8 = next(P for P in subgroup_lattice(g.full_subgroup)
                  if P.order == 8 and
                  sum(1 for x in P.members if g.element_order(x) == 2) == 1)
        F1 = normal_subsystem_in(F, q8)
        F2 = normal_subsystem_in(F, center(g.full_subgroup))
        with patch.object(verify_mod, "z_of",
                          z_replaced(F1.support, F.universe.trivial_subgroup)):
            return _caught(lambda: verify_l_f1f2(F, F1, F2))

    return {
        "FfEf": ffef,
        "Wellknown": wellknown,
        "LocalNormalSubsystems": local_normal,
        "PropHelp": prophelp,
        "EasyCentralizer": easy_centralizer,
        "FrattiniCons": frattini_cons,
        "XInvariant": x_invariant,
        "WeaklyClosedCentralized": weakly_closed,
        "GN": gn,
        "CFCG0": cfcg0,
        "ZCentralize": zcentralize,
        "L:F1F2Centralize": l_f1f2,
    }
