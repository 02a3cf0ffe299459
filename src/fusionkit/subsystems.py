"""Closure and normality theory: strongly/weakly closed subgroups, the
invariance conditions, local subsystems N_F(Q) and C_F(X), normality
reports, and the normal subsystem F_{S n N}(N) of a normal subgroup N.

Normality tests invariance by Aschbacher's definition: E^alpha = E for
every alpha in Aut_F(T) (``_stability``, on image keys) plus the Frattini
condition.  On a strongly closed T this is equivalent to the strong
invariance condition (Aschbacher, "Normal subsystems of fusion systems",
Proc. LMS 2008; Aschbacher-Kessar-Oliver, "Fusion Systems in Algebra and
Topology", Prop. I.6.4).  The literal condition (f), ``_condition_f``,
stays as the oracle; ``invariance_conditions`` evaluates all six
conditions in one call.

Stability is one loop, with the literal body, over the generators of
Aut_F(T) (``saturation.key_generators``, a closure on image keys with no
table) when their keys are closed under composition, and over every
automorphism otherwise.  The automorphisms that pass are closed under
composition, so the first one that fails is a generator, and the loop
stops there with the payload or exception of the loop over every
automorphism (the proof is in ``key_generators``).  That loop is
``stability_literal`` in ``tests/oracles.py``.

The extension condition of normality, the CFCG0 lemma and the extension
witnesses of the product theorem ask one question of V = TC_S(T): which
alpha on T extend to an ext in Aut_F(V) with [C_S(T), ext] inside a
bound.  ``bounded_extensions`` answers it for every alpha at once, as a
table from each restriction to T to the image keys of its extensions;
the extension property is one lookup per alpha in Aut_E(T), and
``extension_witness`` picks the first key that fixes a subgroup.  The
Hom search per alpha is ``extension_property_literal`` in
``tests/oracles.py``.

Whether Aut_E(P) is a normal subgroup of Aut_F(P), which conditions
(b)-(e) ask, is decided on the table of Aut_F(P) (``aut_group``) for
every P, a one-element Aut_F(P) included.

C_F(X) and N_F(Q) have one constructor, ``_local``, with one rule: a
system's morphisms are its table, and a witness is a faster way to read it
where the two agree.  They read the morphisms on P R, and the extension
table those on T C_S(T), each a ``Subgroup.product``, as one factor
normalizes the other."""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .errors import NotAGroup, NotNormal, NotStronglyClosed, NotSylow, VerificationFailed
from .fusion import (FusionSystem, derived, full_subcategory,
                     generated_subsystem, realized_subsystem, subsystem_equal)
from .groups import (Hom, Subgroup, Twist, center, centralizer, normalizer,
                     p_part, picker, subgroup_lattice)
from .saturation import (aut_group, classify, is_conjugation_family,
                         is_saturated, key_generators)


@derived
def is_strongly_closed(F: FusionSystem, T: Subgroup) -> bool:
    """No element of T has an F-conjugate outside T: h(P n T) <= T for
    every morphism h from every P, with the images of P n T read off the
    image key of h by one ``picker`` per P.  The per-element form is
    ``is_strongly_closed_literal`` in ``tests/oracles.py``."""
    tset = T.member_set
    for P in F.subgroups():
        cut = [i for i, x in enumerate(P.members) if x in tset]
        if not cut:
            continue
        of_cut = picker(cut)
        for h in F.isos_from(P):
            if not tset.issuperset(of_cut(h.images)):
                return False
    return True


def is_weakly_closed(F: FusionSystem, T: Subgroup) -> bool:
    """T has no F-conjugate other than itself."""
    return all(h.codomain == T for h in F.isos_from(T))


# -- local subsystems -------------------------------------------------------------


@derived
def centralizer_subsystem(F: FusionSystem, X: Subgroup) -> FusionSystem:
    """C_F(X) over C_S(X): the restrictions to P of the morphisms from PX
    that act as the identity on X (``_local``)."""
    return _local(F, X, centralizer, lambda images: images == X.members,
                  f"C_{F.name}({X.order})")


@derived
def normalizer_subsystem(F: FusionSystem, Q: Subgroup) -> FusionSystem:
    """N_F(Q) over N_S(Q): the restrictions to P of the morphisms from PQ
    that map Q onto Q (``_local``)."""
    return _local(F, Q, normalizer, lambda images: set(images) == Q.member_set,
                  f"N_{F.name}({Q.order})")


def _local(F: FusionSystem, R: Subgroup,
           local: Callable[[Subgroup, Subgroup, Subgroup], Subgroup],
           keeps: Callable[[tuple[int, ...]], bool], name: str) -> FusionSystem:
    """The local system at R over ``local(S, R)``: its maps from P are the
    restrictions to P of the maps psi from PR = <P, R> whose images of R
    pass ``keeps``, read off the image keys of F's table.  A system given
    by its witness W alone gets the system of ``local(W, R)``, which has
    exactly those maps; a mutant that also has a witness gets it only
    when its table equals the read.  Both subgroups are read off the table
    of ``F.table_for(R)``."""
    base = F.table_for(R)
    support = local(F.support, R, base)
    by_witness = None if F.witness is None else FusionSystem(
        support, F.p, witness=local(F.witness, R, base), ambient=F.top(),
        name=name)
    if F.from_witness:
        return by_witness
    explicit: dict[tuple[int, ...], frozenset] = {}
    for P in subgroup_lattice(support):
        PR = P.product(R)  # P lies in the support, which normalizes R
        at = PR.positions
        to_p = picker([at[x] for x in P.members])
        to_r = picker([at[x] for x in R.members])
        explicit[P.members] = frozenset(to_p(key) for key in F._keys_from(PR)
                                        if keeps(to_r(key)))
    read = FusionSystem(support, F.p, explicit=explicit, ambient=F.top(),
                        name=name)
    agree = by_witness is not None and subsystem_equal(by_witness, read)
    return by_witness if agree else read


# -- invariance conditions ---------------------------------------------------------


@derived
def _stability(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """E^alpha = E for every alpha in Aut_F(T), compared on image keys;
    returns a counterexample or None.

    phi^alpha sends x^alpha to (x^phi)^alpha.  Containment of E^alpha in E
    on every P suffices: alpha permutes the subgroups of T and keeps the
    number of morphisms from each, so the counts force equality.

    The alpha with E^alpha = E contain the identity and are closed under
    composition, since E^(alpha beta) = (E^alpha)^beta, so the loop runs
    over a generating set of Aut_F(T) when its keys are closed
    (``saturation.key_generators``), and over every alpha otherwise.  An
    alpha in F's table that is no homomorphism can carry P to a set that is
    no subgroup; that is ``NotAGroup``.
    """
    T = E.support
    alphas = F.automorphisms(T)
    gens = key_generators(T, alphas)
    subs = E.subgroups()
    by_members = {P.members: P for P in subs}
    for alpha in (alphas if gens is None else gens):
        for P in subs:
            twist = Twist(alpha, P)
            if twist.target not in by_members:
                raise NotAGroup(f"alpha {list(alpha.images)} carries P "
                                f"{list(P.members)} to no subgroup")
            keys = E._keys_from(by_members[twist.target])
            for phi in E.isos_from(P):
                if twist.images(phi.images) not in keys:
                    return {"kind": "unstable", "alpha": list(alpha.images),
                            "P": list(P.members), "phi": list(phi.images)}
    return None


@derived
def _aut_sets_normal(F: FusionSystem, E: FusionSystem, P: Subgroup) -> bool:
    """Aut_E(P) is a subgroup of Aut_F(P) normalized by it, decided on the
    table of Aut_F(P) (``aut_group``).  The per-pair Hom form is
    ``aut_sets_normal_literal`` in ``tests/oracles.py``."""
    A = aut_group(F, P)
    sub = A.subgroup_of(E.automorphisms(P))
    return sub is not None and sub.is_normal_in(A.group.full_subgroup)


@derived
def _condition_f(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """Strong invariant condition; returns a counterexample or None.  A
    psi that carries Q out of T fails at P = Q with phi the identity."""
    for Q in E.subgroups():
        qset = Q.member_set
        for psi in F.isos_from(Q):
            for P in subgroup_lattice(Q):
                twist = Twist(psi, P)
                for phi in E.isos_from(P):
                    if not qset.issuperset(phi.images):
                        continue
                    if not E.contains_key(twist.target, twist.images(phi.images)):
                        return {"kind": "twist_escapes", "P": list(P.members),
                                "phi": list(phi.images), "psi": list(psi.images)}
    return None


def _generation_identity(F: FusionSystem, E: FusionSystem) -> bool:
    """F restricted to subgroups of T equals <Aut_F(T), E>_T."""
    T = E.support
    gens = list(F.automorphisms(T)) + [h for P in E.subgroups()
                                       for h in E.isos_from(P)]
    gen_sys = generated_subsystem(F, T, gens, check_inside=False)
    return subsystem_equal(gen_sys, full_subcategory(F, T))


def invariance_conditions(F: FusionSystem, E: FusionSystem) -> dict[str, bool]:
    """The six equivalent invariance conditions (a)-(f), evaluated
    literally, keyed "a" to "f".  (a) is (f), ``_condition_f``, with the
    generation identity; (b)-(e) are false unless E is stable
    (``_stability``), and then ask whether Aut_E(P) is normal in Aut_F(P)
    (``_aut_sets_normal``) for the P of T, the fully normalized P, the
    fully normalized R n T over the centric radical R, and R n T over a
    conjugation family.  Each piece is memoized in F's slot under E's
    content key."""
    T = E.support
    if not is_strongly_closed(F, T):
        raise NotStronglyClosed(f"support of order {T.order} is not strongly closed")
    f = _condition_f(F, E) is None
    a = f and _generation_identity(F, E)
    if _stability(F, E) is not None:
        return {"a": a, "b": False, "c": False, "d": False, "e": False, "f": f}
    b = all(_aut_sets_normal(F, E, P) for P in E.subgroups())
    cls = classify(F)
    c = all(_aut_sets_normal(F, E, P) for P in E.subgroups()
            if cls.is_fully_normalized(P))
    radicals = tuple(R for R in cls.cr_set()
                     if cls.is_fully_normalized(R.meet(T)))
    d = all(_aut_sets_normal(F, E, R.meet(T)) for R in radicals)
    e = any(fam and is_conjugation_family(F, fam)
            and all(_aut_sets_normal(F, E, R.meet(T)) for R in fam)
            for fam in (cls.crf_set(), radicals))
    return {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f}


# -- normality ---------------------------------------------------------------------


class NormalityReport(NamedTuple):
    """Outcome of the normality test for a subsystem, with counterexamples.

    ``invariant`` is Aschbacher's F-invariance: E^alpha = E for every alpha
    in Aut_F(T), plus the Frattini condition (``frattini``).  On a strongly
    closed T it is equivalent to the strong invariance condition (f)
    (Aschbacher-Kessar-Oliver, Prop. I.6.4), which ``_condition_f`` keeps
    as the oracle.

    ``extension_z`` demands [C_S(T), ext] <= Z(T) (the definition);
    ``extension_t`` relaxes that to <= T.  The two agree on all honest
    corpus instances; a mismatch is surfaced, never silently resolved.
    """

    strongly_closed: bool
    invariant: bool
    saturated: bool
    frattini: bool
    extension_z: bool
    extension_t: bool
    counterexamples: tuple[tuple[str, str], ...]

    @property
    def weakly_normal(self) -> bool:
        return self.strongly_closed and self.invariant and self.saturated

    @property
    def normal(self) -> bool:
        return self.weakly_normal and self.extension_z

    def __bool__(self) -> bool:
        return self.normal

    def to_json(self) -> dict:
        return {
            "strongly_closed": self.strongly_closed,
            "invariant": self.invariant,
            "saturated": self.saturated,
            "frattini_property": self.frattini,
            "extension_property_z": self.extension_z,
            "extension_property_t": self.extension_t,
            "weakly_normal": self.weakly_normal,
            "normal": self.normal,
            "counterexamples": [list(c) for c in self.counterexamples],
        }


def _frattini_property(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """Every F-morphism on P <= T splits as an E-morphism then an Aut_F(T)
    part: phi = psi then alpha, that is, phi then alpha^-1 is a map of E,
    for some alpha in Aut_F(T).  Each alpha^-1 is kept as its row on T
    (entry i is alpha^-1 of the i-th member of T), so the key of phi then
    alpha^-1 is one pick of the positions of phi.images off that row.
    The per-member form is ``frattini_property_literal`` in
    ``tests/oracles.py``."""
    T = E.support
    at = T.positions
    rows = []
    for alpha in F.automorphisms(T):
        row = [0] * T.order
        for x, y in zip(T.members, alpha.images):
            row[at[y]] = x
        rows.append(row)
    for P in E.subgroups():
        keys = E._keys_from(P)
        for phi in F.isos_from(P):
            then_inverse = picker([at[y] for y in phi.images])
            if keys.isdisjoint(map(then_inverse, rows)):
                return {"P": list(P.members), "phi": list(phi.images)}
    return None


@derived
def bounded_extensions(F: FusionSystem, T: Subgroup, bound: Subgroup
                       ) -> tuple[Subgroup, dict]:
    """V = TC_S(T) and its extension table: each restriction to T of an ext
    in Aut_F(V) with [C_S(T), ext] <= bound, with the image keys of those
    ext in ``isos_from`` order.  A key of ``F._keys_from(V)`` is an
    automorphism of V iff its images are the members of V, and its
    restriction and the commutators [c, ext] = c^-1 (c)ext are picked off
    it, so no Hom is built.  The Hom search over Aut_F(V) is
    ``extension_property_literal`` in ``tests/oracles.py``."""
    C = centralizer(F.support, T, F.table_for(T))
    V = T.product(C)  # C centralizes T
    at, vset, bset = V.positions, V.member_set, bound.member_set
    to_t = picker([at[x] for x in T.members])
    mul, inv = F.universe._mul, F.universe._inv
    on_c = [(at[c], mul[inv[c]]) for c in C.members]
    table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for key in sorted(F._keys_from(V)):
        if frozenset(key) == vset and all(by[key[i]] in bset
                                          for i, by in on_c):
            table.setdefault(to_t(key), []).append(key)
    return V, table


def extension_witness(F: FusionSystem, alpha: Hom, bound: Subgroup,
                      fixed: Subgroup) -> Optional[Hom]:
    """The first ext in Aut_F(TC_S(T)), T = dom alpha, with ext|_T = alpha,
    [C_S(T), ext] <= bound and ext|_fixed = id, or None, read off the table
    of ``bounded_extensions``.  The last test reads the members of
    ``fixed`` in order: one outside TC_S(T) raises KeyError there."""
    V, table = bounded_extensions(F, alpha.domain, bound)
    at = V.positions
    for key in table.get(alpha.images, ()):
        if all(key[at[x]] == x for x in fixed.members):
            return Hom(V, V, key)
    return None


def _extension_property(F: FusionSystem, E: FusionSystem,
                        bound: Subgroup) -> Optional[dict]:
    """Each alpha in Aut_E(T) extends to TC_S(T) with [C_S(T), ext] <= bound:
    one lookup of alpha in the table of ``bounded_extensions``; the first
    alpha that fails, in ``isos_from`` order, is the payload."""
    T = E.support
    _, table = bounded_extensions(F, T, bound)
    for alpha in E.automorphisms(T):
        if alpha.images not in table:
            return {"alpha": list(alpha.images), "bound": list(bound.members)}
    return None


@derived
def is_normal(F: FusionSystem, E: FusionSystem) -> NormalityReport:
    """Full normality report: strong closure, invariance, saturation,
    Frattini property and both extension variants.

    Invariance is tested as Aut_F(T)-stability plus the Frattini condition,
    equivalent on a strongly closed T to the strong invariance condition (f)
    (Aschbacher, Proc. LMS 2008; Aschbacher-Kessar-Oliver, Prop. I.6.4);
    ``_condition_f`` evaluates (f) literally and serves as the oracle.
    """
    T = E.support
    counterexamples: list[tuple[str, str]] = []
    sc = is_strongly_closed(F, T)
    if not sc:
        counterexamples.append(("strongly_closed", f"T={list(T.members)}"))
        return NormalityReport(False, False, False, False, False, False,
                               tuple(counterexamples))
    bad_fr = _frattini_property(F, E)
    bad_inv = _stability(F, E)
    if bad_inv is None and bad_fr is not None:
        bad_inv = {"kind": "frattini", **bad_fr}
    if bad_inv is not None:
        counterexamples.append(("invariant", str(bad_inv)))
    sat = is_saturated(E)
    if not sat.ok:
        counterexamples.append(("saturated", str(sat.failures[0])))
    if bad_fr is not None:
        counterexamples.append(("frattini", str(bad_fr)))
    bad_z = _extension_property(F, E, center(T))
    if bad_z is not None:
        counterexamples.append(("extension_z", str(bad_z)))
    bad_t = _extension_property(F, E, T)
    if bad_t is not None:
        counterexamples.append(("extension_t", str(bad_t)))
    if (bad_z is None) != (bad_t is None):
        counterexamples.append(("extension_variants_disagree",
                                f"z={bad_z is None} t={bad_t is None}"))
    return NormalityReport(sc, bad_inv is None, sat.ok, bad_fr is None,
                           bad_z is None, bad_t is None, tuple(counterexamples))


def normal_subsystem_in(F: FusionSystem, N: Subgroup) -> FusionSystem:
    """F_{S n N}(N) inside an already-built realized system, verified normal."""
    if not F.realized:
        raise VerificationFailed("normal subsystems from groups need a realized F")
    if not N.is_normal_in(F.witness):
        raise NotNormal(f"subgroup of order {N.order} is not normal in the witness")
    T = F.support.meet(N)
    if p_part(N.order, F.p) != T.order:
        raise NotSylow("S n N is not a Sylow p-subgroup of N")
    E = realized_subsystem(F, N, T)
    report = is_normal(F, E)
    if not report.normal:
        raise VerificationFailed(
            f"F_T(N) failed the normality report: {report.counterexamples}")
    return E
