"""Command-line interface.

Exit codes: 0 success; 1 a verifier reported a counterexample (or the
machinery flagged a mathematical anomaly, with a machine-readable
payload); 2 input or contract error; 3 budget/resource signal.  Stdout is
byte-identical for identical (inputs, seed, prime, version).  Each handler
cmd_<name>(algebra, args) returns (results, exit code); main loads the
quiver, builds A^(m), emits the report and, on every exit path, prints
one wall-clock `time: N ms` line to stderr.
"""

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from . import artrans as ar
from . import exactfield as ef
from . import gencog as gc
from . import quiverrep as qr
from . import replicated as rp
from . import verify as vf
from . import windows as w
from .errors import AnomalyError, BudgetExceeded, ContractError, InputError, WindowOverflow


def build_parser():
    """Every command takes the common options, and only the commands that
    build a catalog take --budget and --cache: no command accepts an
    option it ignores."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiver", required=True, help="quiver file (text or JSON)")
    common.add_argument("--m", type=int, default=1, help="replication level (>= 1)")
    common.add_argument("--prime", type=int, default=ef.DEFAULT_PRIME,
                        help="prime modulus of the coefficient field")
    common.add_argument("--seed", type=int, default=ef.DEFAULT_SEED,
                        help="seed (>= 0) of the sampling suites and the window census")
    common.add_argument("--json", action="store_true", help="JSON output")
    catalog = argparse.ArgumentParser(add_help=False)
    catalog.add_argument("--budget", type=int, default=ar.CATALOG_BUDGET,
                         help="catalog entry budget")
    catalog.add_argument("--cache", default=None, help="catalog cache directory")

    parser = argparse.ArgumentParser(
        prog="replalg",
        description="exact computations with m-replicated algebras of "
                    "hereditary path algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", parents=[common], help="algebra summary")
    sub.add_parser("indecs", parents=[common, catalog], help="catalog of indecomposables")
    arq = sub.add_parser("ar-quiver", parents=[common, catalog],
                         help="irreducible maps and meshes")
    arq.add_argument("--dot", default=None, help="write a DOT file here")
    sub.add_parser("tau-orbits", parents=[common, catalog], help="tau-orbit table")
    st = sub.add_parser("strata", parents=[common], help="Sigma_k / U_k strata")
    st.add_argument("--k", type=int, required=True)
    sub.add_parser("gldim", parents=[common], help="global dimension of the algebra")
    ge = sub.add_parser("gldim-end", parents=[common, catalog],
                        help="gl.dim of the endomorphism algebra of a generator-cogenerator")
    ge.add_argument("--window", type=int, default=3,
                    help="per-vertex dimension bound (>= 1) of the windowed mode")
    ge.add_argument("--gencog", default=None, help="GenCog JSON file")
    ge.add_argument("--summands", default=None,
                    help="comma-separated catalog ids (with all proj/inj added)")
    co = sub.add_parser("construct", parents=[common, catalog],
                        help="build one of the named generator-cogenerators")
    co.add_argument("kind", choices=["thm32", "E", "lem47", "lem48"])
    co.add_argument("--d", type=int, default=None)
    co.add_argument("--i", type=int, default=None)
    co.add_argument("--out", default=None, help="write the GenCog JSON here")
    ve = sub.add_parser("verify", parents=[common], help="run a verification suite")
    ve.add_argument("suite", choices=list(vf.SUITES))
    ve.add_argument("--samples", type=int, default=None)
    ve.add_argument("--d", type=int, default=None)
    ve.add_argument("--window", type=int, default=None,
                    help="per-vertex dimension bound (>= 1) of a suite that takes one")
    return parser


def _load_quiver(path):
    if not os.path.exists(path):
        raise InputError(f"quiver file not found: {path}")
    return qr.Quiver.load(path)


def _catalog_cached(algebra, args):
    """Catalog with optional on-disk caching keyed by the algebra
    fingerprint; corrupt or stale caches, caches over a base that is not
    Dynkin, and caches that cannot be read, created or written, are
    ignored with a warning."""
    if not args.cache:
        return ar.indec_catalog(algebra, budget=args.budget)
    path = os.path.join(args.cache, f"catalog_{algebra.fingerprint()}.json")
    if os.path.exists(path):
        try:
            with open(path) as fh:
                return ar.IndecCatalog.from_json(algebra, json.load(fh))
        except (OSError, ValueError, BudgetExceeded) as exc:
            print(f"warning: ignoring cache {path}: {exc}", file=sys.stderr)
    catalog = ar.indec_catalog(algebra, budget=args.budget)
    try:
        os.makedirs(args.cache, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(catalog.to_json(), fh, sort_keys=True)
    except OSError as exc:
        print(f"warning: not writing cache {path}: {exc}", file=sys.stderr)
    return catalog


def _engine(algebra, args):
    """M-dimension engine over the catalog when the base quiver is Dynkin,
    else a windowed one (then A^(m) is representation-infinite, Gabriel);
    a catalog that exceeds --budget is a budget signal."""
    if not qr.is_dynkin(algebra.quiver):
        return gc.MDimEngine.windowed(algebra)
    return gc.MDimEngine.for_catalog(_catalog_cached(algebra, args))


def _write_output(path, what, text):
    """Write an option's output file; an unwritable path is an input error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {what} {path}: {exc.strerror}") from None


def _extra_summands(algebra, engine, args):
    """Registry ids named by --summands and by a --gencog file.  Catalog
    ids need the catalog, so they are an input error in windowed mode; a
    listed module may be a direct sum, and its pieces are registered."""
    tokens = [t for t in (args.summands or "").split(",") if t.strip()]
    modules = []
    if args.gencog:
        try:
            with open(args.gencog) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read GenCog file {args.gencog}: {exc.strerror}") from None
        except ValueError as exc:
            raise InputError(f"GenCog file {args.gencog} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise InputError(f"GenCog file {args.gencog} holds a JSON "
                             f"{type(data).__name__}, not an object")
        if data.get("fingerprint") != algebra.fingerprint():
            raise InputError("GenCog file fingerprint does not match the algebra")
        listed, summands = data.get("summand_ids", []), data.get("summands", [])
        if not isinstance(listed, list) or not isinstance(summands, list):
            raise InputError(f"GenCog file {args.gencog}: summand_ids and summands "
                             "must be JSON lists")
        tokens += listed
        modules = [rp.LayeredModule.from_json(algebra, d) for d in summands]
    if tokens and engine.catalog is None:
        raise InputError("catalog ids need a representation-finite instance")
    try:
        ids = {int(t) for t in tokens}
    except ValueError as exc:
        raise InputError(f"catalog ids must be integers: {exc}") from None
    if any(not 0 <= i < len(engine.catalog) for i in ids):
        raise InputError(f"catalog ids must lie in 0..{len(engine.catalog) - 1}")
    for module in modules:
        ids.update(engine.state(module))
    return ids


def _emit(report, args):
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2, default=_json_default))
    else:
        _emit_text(report)


def _json_default(obj):
    if obj is math.inf:
        return "inf"
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return str(obj)


def _emit_text(report, indent=0):
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        elif isinstance(value, list):
            print(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    _emit_text(item, indent + 1)
                    print(f"{pad}  -")
                else:
                    print(f"{pad}  {item}")
        else:
            print(f"{pad}{key}: {value}")


def cmd_info(algebra, args):
    quiver = algebra.quiver
    return {
        "vertices": quiver.vertices,
        "arrows": [f"{n}: {s} -> {t}" for n, s, t in quiver.arrows],
        "paths": quiver.paths.n,
        "maximal_paths": [quiver.paths.name(q) for q in quiver.paths.maximal],
        "algebra_dim": algebra.dim,
        "components": algebra.n_components,
    }, 0


def cmd_gldim(algebra, args):
    return {"global_dimension": rp.global_dimension(algebra)}, 0


def cmd_indecs(algebra, args):
    catalog = _catalog_cached(algebra, args)
    return {
        "count": len(catalog),
        "modules": [{"id": i, "dims": catalog.modules[i].dim_label(),
                     "projective": i in catalog.projective,
                     "injective": i in catalog.injective}
                    for i in range(len(catalog))],
    }, 0


def cmd_tau_orbits(algebra, args):
    return ar.tau_orbits(_catalog_cached(algebra, args)).to_json(), 0


def cmd_ar_quiver(algebra, args):
    catalog = _catalog_cached(algebra, args)
    arq = ar.ar_quiver(catalog)
    violations = arq.mesh_violations()
    results = {
        "nodes": len(catalog),
        "arrows": [{"from": catalog.label(i), "to": catalog.label(j),
                    "mult": int(arq.mult[i, j])}
                   for i in range(len(catalog)) for j in range(len(catalog))
                   if arq.mult[i, j]],
        "mesh_violations": [catalog.label(z) for z in violations],
    }
    if args.dot:
        _write_output(args.dot, "DOT file", arq.to_dot())
        results["dot"] = args.dot
    return results, 1 if violations else 0


def cmd_strata(algebra, args):
    gd = rp.global_dimension(algebra)
    return {
        "k": args.k,
        "sigma": [x.dim_label() for x in rp.sigma_stratum(algebra, args.k)],
        "u": ([x.dim_label() for x in rp.u_stratum(algebra, args.k)]
              if args.k <= gd - 1 else []),
    }, 0


def cmd_gldim_end(algebra, args):
    engine = _engine(algebra, args)
    extra = _extra_summands(algebra, engine, args)
    gencog = gc.GenCog(engine, engine.required_ids() | extra)
    if engine.catalog is not None:
        res = gc.gldim_end(gencog)
        return {"mode": "exact",
                "value": "inf" if res.value == math.inf else res.value,
                "summands": len(gencog.summands)}, 0
    census = w.census_modules(algebra, args.window, args.seed)
    res = gc.gldim_end_windowed(gencog, census)
    return {
        "mode": "windowed",
        "lower": "inf" if res.value == math.inf else res.lower,
        "window_checked": res.lower,
        "window_bound": args.window,
        "window_size": res.window_size,
        "indeterminate": res.indeterminates,
    }, 0


def cmd_construct(algebra, args):
    if args.kind == "thm32":
        if args.d is None:
            raise InputError("construct thm32 needs --d")
        catalog = _catalog_cached(algebra, args)
        engine = gc.MDimEngine.for_catalog(catalog)
        gencog, z = gc.construct_thm32(catalog, args.d, engine=engine)
        res = gc.gldim_end(gencog)
        results = {"d": args.d, "witness": catalog.label(z),
                   "summands": sorted(gencog.summands),
                   "gldim_end": "inf" if res.value == math.inf else res.value}
    elif args.kind == "E":
        if args.i is None:
            raise InputError("construct E needs --i")
        engine = _engine(algebra, args)
        gencog = gc.construct_E(algebra, args.i, engine=engine)
        results = {"i": args.i, "summand_count": len(gencog.summands),
                   "summands": sorted(engine.registry.modules[s].dim_label()
                                      for s in gencog.summands)}
        if engine.catalog is not None:
            res = gc.gldim_end(gencog)
            results["gldim_end"] = "inf" if res.value == math.inf else res.value
    elif args.kind == "lem47":
        if args.d is None:
            raise InputError("construct lem47 needs --d")
        engine = gc.MDimEngine.windowed(algebra)
        gencog, n, z = gc.construct_lem47(algebra, args.d, engine=engine)
        results = {"d": args.d, "witness_Z": z.component_dims(),
                   "witness_N": n.dim_label(),
                   "summands": sorted(engine.registry.modules[s].dim_label()
                                      for s in gencog.summands)}
    else:
        engine = gc.MDimEngine.windowed(algebra)
        gencog, n0, nprime = gc.construct_lem48(algebra, engine=engine)
        results = {"N": n0.dim_label(), "Nprime": nprime.component_dims(),
                   "summands": sorted(engine.registry.modules[s].dim_label()
                                      for s in gencog.summands)}
    if args.out:
        _write_output(args.out, "GenCog file", json.dumps(gencog.to_json(), sort_keys=True))
        results["out"] = args.out
    return results, 0


def cmd_verify(algebra, args):
    """Map the flags to suite parameters; a flag whose parameter the suite
    does not take is an input error that names the flag."""
    accepted = vf.parameters(args.suite)
    params = {"m": args.m, "p": args.prime}
    if "seed" in accepted:
        params["seed"] = args.seed
    for flag, name, value in (("--window", "bound", args.window),
                              ("--samples", "samples", args.samples),
                              ("--d", "d", args.d)):
        if value is None:
            continue
        if name not in accepted:
            raise InputError(f"verify {args.suite} does not take {flag}")
        params[name] = value
    report = vf.verify(args.suite, algebra.quiver, **params)
    return report, 0 if report["verdict"] == "pass" else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "info": cmd_info,
        "indecs": cmd_indecs,
        "ar-quiver": cmd_ar_quiver,
        "tau-orbits": cmd_tau_orbits,
        "strata": cmd_strata,
        "gldim": cmd_gldim,
        "gldim-end": cmd_gldim_end,
        "construct": cmd_construct,
        "verify": cmd_verify,
    }
    # construct and verify are reported with their kind or suite
    subject = vars(args).get("kind", vars(args).get("suite"))
    command = args.command if subject is None else f"{args.command} {subject}"
    t0 = time.monotonic()
    try:
        # the library accepts m = 0 (the base algebra); the CLI studies A^(m), m >= 1
        if args.m < 1:
            raise InputError(f"replication level m must be >= 1, got {args.m}")
        algebra = rp.build_replicated(_load_quiver(args.quiver), args.m, args.prime)
        results, code = handlers[args.command](algebra, args)
        _emit({"command": command,
               "version": __version__,
               "fingerprint": algebra.fingerprint(),
               "inputs": {"m": args.m, "prime": args.prime, "seed": args.seed},
               "results": results}, args)
    except (InputError, ContractError, WindowOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3
    except AnomalyError as exc:
        print(json.dumps({"anomaly": str(exc)}, sort_keys=True))
        return 1
    finally:
        print(f"time: {int((time.monotonic() - t0) * 1000)} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
