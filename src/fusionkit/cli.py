"""Command-line front end.

Subcommands: build, centralizer, product, alperin, verify.  Exit codes:
0 on success (verify: all checks pass), 1 on check failures or alarms
(``VerificationFailed`` and its subclasses), 2 on usage/parse errors (every
other ``FusionkitError``, an output file that cannot be written included,
a non-positive ``--group-cap`` or ``--lattice-cap``, and a verify that
selects no check or no entry).  The two cap flags set the process-wide
``groups.active_caps``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import corpus as corpus_mod
from .centralizers import compute_centralizer_data, c_F_of
from .corpus import ingest
from .errors import FusionkitError, VerificationFailed
from .fusion import FusionSystem, Hom, fusion_of_group
from .groups import (DEFAULT_GROUP_CAP, DEFAULT_LATTICE_CAP, FiniteGroup,
                     Subgroup, active_caps, is_prime, normal_subgroups,
                     sylow_subgroup)
from .persist import load_system, save_system, write_file
from .saturation import alperin_decompose
from .subsystems import is_normal, normal_subsystem_in
from .verify import CHECK_ORDER, run_checks, run_suite, suite_report


def _fail(msg: str, code: int = 2) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _indices(text: str, n: int) -> list[int]:
    """Comma-separated integers in 0..n-1; ValueError otherwise."""
    out = [int(tok) for tok in text.split(",") if tok.strip()]
    bad = [i for i in out if not 0 <= i < n]
    if bad:
        raise ValueError(f"indices {bad} out of range 0..{n - 1}")
    return out


def resolve_subgroup(F: FusionSystem, spec: str) -> Subgroup:
    """Subgroup specs: 'order:K' (canonical normal subgroup of order K),
    'elts:i,j,...' (element indices), 'gens:w1,w2' (words over g0,g1,...);
    FusionkitError on a malformed spec."""
    try:
        return _resolve_subgroup(F.universe, spec)
    except (ValueError, IndexError) as exc:
        raise FusionkitError(f"bad subgroup spec {spec!r}: {exc}") from exc


def _resolve_subgroup(G: FiniteGroup, spec: str) -> Subgroup:
    if spec.startswith("order:"):
        want = int(spec.split(":", 1)[1])
        for N in normal_subgroups(G.full_subgroup):
            if N.order == want:
                return N
        raise FusionkitError(f"no normal subgroup of order {want}")
    if spec.startswith("elts:"):
        return G.generated_subgroup(_indices(spec.split(":", 1)[1], G.order))
    if spec.startswith("gens:"):
        gens = G.generator_indices
        if gens is None:
            raise FusionkitError("group carries no named generators; use elts:")
        elems = []
        for word in spec.split(":", 1)[1].split(","):
            x = 0
            for token in word.strip().split("*"):
                token = token.strip()
                if not token:
                    continue
                if "^" in token:
                    base, exp = token.split("^", 1)
                    power = int(exp)
                else:
                    base, power = token, 1
                if not base.startswith("g"):
                    raise FusionkitError(f"bad generator token {token!r}")
                (k,) = _indices(base[1:], len(gens))
                x = G.mul(x, G.power(gens[k], power))
            elems.append(x)
        return G.generated_subgroup(elems)
    raise FusionkitError(f"unrecognized subgroup spec {spec!r}")


def resolve_morphism(F: FusionSystem, spec: str) -> Hom:
    """Morphism spec 'a,b,...->x,y,...': element indices generating the
    domain, mapped in order; validated as a morphism of the system."""
    G = F.universe
    try:
        left, right = spec.split("->")
        gens = _indices(left, G.order)
        images = _indices(right, G.order)
    except ValueError as exc:
        raise FusionkitError(f"bad morphism spec {spec!r}") from exc
    dom = G.generated_subgroup(gens)
    cod = G.generated_subgroup(images)
    hom = Hom.from_generator_images(dom, cod, gens, images)
    if not F.contains_morphism(hom):
        raise FusionkitError("the given map is not a morphism of the system")
    return hom


def cmd_build(args: argparse.Namespace) -> int:
    if not is_prime(args.prime):
        return _fail(f"--prime must be a prime, not {args.prime}")
    G = ingest(args.groupfile)
    S = sylow_subgroup(G.full_subgroup, args.prime)
    F = fusion_of_group(G, S, args.prime,
                        name=f"F({G.name}@{args.prime})")
    out = args.out or str(Path(args.groupfile).with_suffix("")) + f"@{args.prime}.fsk"
    save_system(F, out)
    print(f"built {F.name}: |G|={G.order}, |S|={S.order}, "
          f"{len(F.subgroups())} subgroups, {F.morphism_count()} morphisms")
    print(f"wrote {out}")
    return 0


def cmd_centralizer(args: argparse.Namespace) -> int:
    F = load_system(args.system)
    N = resolve_subgroup(F, args.normal)
    E = normal_subsystem_in(F, N)
    data = compute_centralizer_data(F, E)
    cfe = c_F_of(F, E, C_S_E=data.C_S_E)
    summary = data.to_json()
    summary["normality_of_E"] = is_normal(F, E).to_json()
    summary["C_F_E"] = {
        "support": list(cfe.support.members),
        "morphisms": cfe.morphism_count(),
        "normality": is_normal(F, cfe).to_json(),
    }
    if args.json:
        write_file(args.json, json.dumps(summary, indent=1) + "\n")
    print(f"T = S n N: order {E.support.order}")
    print(f"X family: {[list(X.members) for X in data.X_set]}")
    print(f"C_S(E) = {list(data.C_S_E.members)} (order {data.C_S_E.order})")
    print(f"R*     = {list(data.R_star.members)} (order {data.R_star.order})")
    print(f"C_F(E): support order {cfe.support.order}, "
          f"{cfe.morphism_count()} morphisms, normal in F")
    return 0


def cmd_product(args: argparse.Namespace) -> int:
    from .products import verify_product_theorems
    F = load_system(args.system)
    E1 = normal_subsystem_in(F, resolve_subgroup(F, args.f1))
    E2 = normal_subsystem_in(F, resolve_subgroup(F, args.f2))
    report = verify_product_theorems(F, E1, E2)
    print(json.dumps(report.to_json(), indent=1))
    if report.centralize:
        print(f"F1*F2: support order {report.star_order}, "
              f"{report.star_morphisms} morphisms")
    return 0 if report.ok else 1


def cmd_alperin(args: argparse.Namespace) -> int:
    F = load_system(args.system)
    phi = resolve_morphism(F, args.morphism)
    fact = alperin_decompose(F, phi)
    print(f"morphism on {list(phi.domain.members)} factors through "
          f"{len(fact.steps)} family member(s):")
    for i, step in enumerate(fact.steps, 1):
        print(f"  {i}. member {list(step.member.members)} "
              f"automorphism {list(step.automorphism.images)} "
              f"on stage {list(step.stage.members)}")
    rec = fact.recompose()
    ok = rec.images == phi.cores().images
    print(f"recomposition matches: {ok}")
    return 0 if ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    checks: Optional[list[str]] = None
    if args.checks != "all":
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in checks if c not in CHECK_ORDER]
        if unknown:
            return _fail(f"unknown checks: {unknown} (known: {list(CHECK_ORDER)})")
        if not checks:
            return _fail("--checks selects no check")
    if args.target == "corpus":
        if args.corpus_dir:
            entries = []
            for path in sorted(Path(args.corpus_dir).glob("*.json")):
                G = ingest(path)
                for p in corpus_mod.designated_primes(path):
                    entries.append((f"{path.stem}@{p}", G, p))
        else:
            entries = corpus_mod.corpus_entries()
        runs = [(label, p, functools.partial(run_suite, label, G, p, checks))
                for label, G, p in entries]
    else:
        F = load_system(args.target)
        runs = [(Path(args.target).stem, F.p,
                 functools.partial(run_checks, F, checks))]
    if not runs:
        return _fail("no entry to verify: no group file, or none within --group-cap")
    reports = []
    all_pass = True
    for label, p, run in runs:
        results = run()
        reports.append(suite_report(label, p, results, timings=args.timings))
        bad = [r for r in results if not r.passed]
        status = "pass" if not bad else "FAIL"
        print(f"{label:14} {status}  ({len(results) - len(bad)}/{len(results)} checks)")
        for r in bad:
            all_pass = False
            print(f"    {r.check_id}: {r.counterexample}")
    if args.json:
        write_file(args.json, json.dumps(reports, indent=1) + "\n")
    return 0 if all_pass else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it holds no state of a
    call, so every ``main`` call reuses it."""
    ap = argparse.ArgumentParser(prog="fusionkit",
                                 description="saturated fusion systems of "
                                             "finite groups at desk scale")
    ap.add_argument("--group-cap", type=int, default=DEFAULT_GROUP_CAP,
                    help="largest allowed group order")
    ap.add_argument("--lattice-cap", type=int, default=DEFAULT_LATTICE_CAP,
                    help="largest allowed subgroup-lattice size")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct and persist F_S(G)")
    b.add_argument("groupfile")
    b.add_argument("-p", "--prime", type=int, required=True)
    b.add_argument("--out")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("centralizer",
                       help="centralizer data for a normal subsystem")
    c.add_argument("system", help=".fsk file from build")
    c.add_argument("--normal", required=True,
                   help="normal subgroup spec (order:K | elts:... | gens:...)")
    c.add_argument("--json")
    c.set_defaults(func=cmd_centralizer)

    pr = sub.add_parser("product", help="central product of two normal subsystems")
    pr.add_argument("system")
    pr.add_argument("--f1", required=True)
    pr.add_argument("--f2", required=True)
    pr.set_defaults(func=cmd_product)

    al = sub.add_parser("alperin", help="decompose a morphism through the "
                                        "centric radical family")
    al.add_argument("system")
    al.add_argument("--morphism", required=True, help="'a,b->x,y' element indices")
    al.set_defaults(func=cmd_alperin)

    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("target", help="'corpus' or an .fsk file")
    v.add_argument("--checks", default="all",
                   help="comma-separated check ids, or 'all'")
    v.add_argument("--json", help="write the JSON report here")
    v.add_argument("--timings", action="store_true",
                   help="include per-check timings in the JSON report "
                        "(off by default so reports are byte-reproducible)")
    v.add_argument("--corpus-dir",
                   help="run over the group files in this directory instead "
                        "of the bundled corpus")
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.group_cap <= 0 or args.lattice_cap <= 0:
        return _fail("--group-cap and --lattice-cap must be positive")
    active_caps.group = args.group_cap
    active_caps.lattice = args.lattice_cap
    try:
        return args.func(args)
    except VerificationFailed as exc:
        return _fail(str(exc), code=1)
    except FusionkitError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
