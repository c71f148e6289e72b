"""Batch command-line front end.

Every library operation is reachable as a subcommand for scripting and
reproduction.  Reports go to stdout (JSON by default, text or CSV where it
makes sense); diagnostics go to stderr.  Exit codes: 0 success, 1 error,
2 mathematical anomaly found (a violated applicable bound, a failed
identity, a catalog mismatch, or a search find beyond the conjectured
bound), so shell scripts can distinguish discoveries from crashes.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

# other modules load on use, through the package's lazy attributes (pc.analysis, ...)
import planecurves as pc

from . import plane
from .field import FiniteField


def _parse_catalog_params(entry: str, pieces) -> dict:
    """Integer parameters of a catalog entry from "name=value" pieces, each
    name at most once."""
    params = {}
    for piece in pieces:
        key, eq, val = piece.partition("=")
        if not eq:
            raise ValueError(f"bad catalog parameter {piece!r}")
        key = key.strip()
        if key in params:
            raise ValueError(f"{entry} parameter {key!r} given twice")
        try:
            params[key] = int(val)
        except ValueError:
            raise ValueError(
                f"{entry} parameter {key!r} needs an integer, got {val!r}"
            ) from None
    return params


def _parse_catalog_flag(text: str):
    name, _, params_text = text.partition(":")
    return name, _parse_catalog_params(
        name, params_text.split(",") if params_text else [])


def _load_curve(args, prefix="") -> "pc.PlaneCurve":
    """The curve named by exactly one of --curve, --inline and --catalog (of
    --other-curve, ... for prefix "other_"), over --field."""
    flag = "--" + prefix.replace("_", "-")
    sources = [s for s in ("curve", "inline", "catalog") if getattr(args, prefix + s)]
    if len(sources) != 1:
        raise ValueError(
            f"exactly one of {flag}curve, {flag}inline, {flag}catalog is required")
    source = sources[0]
    value = getattr(args, prefix + source)
    if source == "curve":
        cur = pc.PlaneCurve.from_file(value)
        if args.field and FiniteField.from_spec(args.field) != cur.ctx:
            raise ValueError("--field disagrees with the curve file header")
        return cur
    if not args.field:
        raise ValueError(f"{flag}{source} needs --field")
    ctx = FiniteField.from_spec(args.field)
    if source == "inline":
        return pc.PlaneCurve.parse_inline(ctx, value)
    name, params = _parse_catalog_flag(value)
    return pc.catalog.catalog_curve(name, ctx, **params)


def _emit(args, payload: dict, csv_rows=None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        if csv_rows is None:
            raise ValueError("this subcommand has no CSV form")
        sys.stdout.write("\n".join(",".join(str(c) for c in row) for row in csv_rows))
        sys.stdout.write("\n")
        return
    if fmt == "text":
        for key, value in payload.items():
            sys.stdout.write(f"{key}: {value}\n")
        return
    if not getattr(args, "no_timestamp", False):
        payload = dict(payload)
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _add_curve_source(sub, with_field=True):
    if with_field:
        sub.add_argument("--field", help="field spec p=<p>,k=<k>[,mod=<c0,c1,...>]")
    sub.add_argument("--curve", help="path to a curve file")
    sub.add_argument("--inline", help='inline terms "<i> <j> <k> <coeff>;..."')
    sub.add_argument("--catalog", help="catalog entry name[:param=value,...]")


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp for byte-stable output")


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors surface as exit code 1, not 2; exit 2 is
    reserved for mathematical anomalies."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="planecurves",
        description="exact point counts, line spectra, and extremal bounds "
        "for plane curves over finite fields",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    s = subs.add_parser("field-info", help="describe a finite field GF(p^k)")
    s.add_argument("--field", required=True)
    _add_common(s)

    s = subs.add_parser("count", help="rational point count N_q(C)")
    _add_curve_source(s)
    _add_common(s)

    s = subs.add_parser("spectrum", help="line spectrum a_i over the dual plane")
    _add_curve_source(s)
    _add_common(s)

    s = subs.add_parser("singular", help="rational singular points and the "
                        "geometric nonsingularity verdict")
    _add_curve_source(s)
    _add_common(s)

    s = subs.add_parser("bounds", help="Sziklai / Segre / Stohr-Voloch / "
                        "Hefez-Voloch / Weil bound table with verdicts")
    _add_curve_source(s)
    _add_common(s)

    s = subs.add_parser("frobenius", help="Frobenius nonclassicality test")
    _add_curve_source(s)
    _add_common(s)

    s = subs.add_parser("equiv", help="projective equivalence witness search")
    _add_curve_source(s)
    s.add_argument("--other-curve")
    s.add_argument("--other-inline")
    s.add_argument("--other-catalog")
    s.add_argument("--method", choices=("frames", "brute"), default="frames")
    s.add_argument("--budget", type=int, default=10 ** 7)
    _add_common(s)

    s = subs.add_parser("catalog", help="list the extremal-curve catalog or "
                        "emit an entry as a curve file")
    s.add_argument("--emit", help="entry name to emit")
    s.add_argument("--field")
    s.add_argument("--param", action="append", default=[],
                   help="entry parameter as name=value (repeatable)")
    _add_common(s)

    s = subs.add_parser("verify-catalog", help="check every catalog equality "
                        "N = expected over a list of q")
    s.add_argument("--q", required=True, help="comma-separated prime powers")
    s.add_argument("--skip-nonsingular", action="store_true")
    _add_common(s)

    s = subs.add_parser("search", help="exhaustive or seeded-random search "
                        "for extremal point counts")
    s.add_argument("--field", required=True)
    s.add_argument("--degree", type=int, required=True)
    s.add_argument("--mode", choices=("exhaustive", "random", "constrained-random"),
                   default="exhaustive")
    s.add_argument("--seed", type=int)
    s.add_argument("--samples", type=int)
    s.add_argument("--require-no-linear-component", action="store_true")
    s.add_argument("--singular-at", help='rational point "x:y:z"')
    s.add_argument("--budget", type=int, default=10 ** 7)
    s.add_argument("--witness-cap", type=int, default=64)
    s.add_argument("--workers", type=int, default=1,
                   help="thread count; results are worker-independent")
    _add_common(s)

    s = subs.add_parser("lemma-check", help="line-count identities: sum a_i, "
                        "sum i*a_i, pair counts, and the tangency bound")
    _add_curve_source(s)
    _add_common(s)

    return parser


def cmd_field_info(args) -> int:
    ctx = FiniteField.from_spec(args.field)
    _emit(args, {
        "p": ctx.p,
        "k": ctx.k,
        "q": ctx.q,
        "modulus": list(ctx.modulus),
        "spec": ctx.spec_string(),
    })
    return 0


def cmd_count(args) -> int:
    cur = _load_curve(args)
    rep = pc.analysis.count_points(cur)
    _emit(args, rep.to_json_dict())
    return 0


def cmd_spectrum(args) -> int:
    cur = _load_curve(args)
    spec = pc.analysis.line_spectrum(cur)
    rows = [("i", "a_i")] + [(i, c) for i, c in sorted(spec.a.items())]
    _emit(args, spec.to_json_dict(), csv_rows=rows)
    return 0


def cmd_singular(args) -> int:
    cur = _load_curve(args)
    rational = pc.analysis.singular_rational_points(cur)
    verdict = pc.analysis.is_geometrically_nonsingular(cur, rational=rational)
    payload = {
        "q": cur.ctx.q,
        "d": cur.degree,
        "singular_rational": [plane.point_to_string(p) for p in rational],
        "geometric": verdict.to_json_dict(),
    }
    _emit(args, payload)
    return 0


def cmd_bounds(args) -> int:
    cur = _load_curve(args)
    rep = pc.bounds.bound_verdicts(cur)
    _emit(args, rep.to_json_dict())
    violated = any(
        v["applicable"] and not v["holds"] for v in rep.verdicts.values()
    )
    return 2 if violated else 0


def cmd_frobenius(args) -> int:
    cur = _load_curve(args)
    _emit(args, {
        "q": cur.ctx.q,
        "d": cur.degree,
        "frobenius_nonclassical": pc.analysis.is_frobenius_nonclassical(cur),
    })
    return 0


def cmd_equiv(args) -> int:
    cur = _load_curve(args)
    other = _load_curve(args, prefix="other_")
    if args.method == "frames":
        witness = pc.bounds.equivalent_by_point_frames(cur, other)
    else:
        witness = pc.bounds.projective_equivalent(cur, other, budget=args.budget)
    _emit(args, {
        "equivalent": witness is not None,
        "witness": [list(row) for row in witness] if witness else None,
        "method": args.method,
    })
    return 0


def cmd_catalog(args) -> int:
    if not args.emit:
        entries = {
            name: {
                "summary": entry.summary,
                "degree": entry.degree,
                "params": list(entry.params),
            }
            for name, entry in pc.catalog.CATALOG.items()
        }
        _emit(args, {"entries": entries})
        return 0
    if not args.field:
        raise ValueError("--emit needs --field")
    ctx = FiniteField.from_spec(args.field)
    cur = pc.catalog.catalog_curve(args.emit, ctx, **_parse_catalog_params(args.emit, args.param))
    sys.stdout.write(cur.to_text())
    return 0


def cmd_verify_catalog(args) -> int:
    q_list = []
    for piece in filter(None, args.q.split(",")):
        try:
            q_list.append(int(piece))
        except ValueError:
            raise ValueError(f"--q needs comma-separated integers, got {piece!r}") from None
    if not q_list:
        raise ValueError(f"--q needs at least one integer, got {args.q!r}")
    rows = pc.catalog.verify_catalog(list(dict.fromkeys(q_list)),
                                     check_nonsingular=not args.skip_nonsingular)
    failures = [
        r for r in rows
        if r.get("count_ok") is False
        or r.get("no_linear_component") is False
        or r.get("no_rational_singularity") is False
    ]
    _emit(args, {"rows": rows, "failures": len(failures)})
    return 2 if failures else 0


def cmd_search(args) -> int:
    ctx = FiniteField.from_spec(args.field)
    mode = args.mode.replace("-", "_")
    singular_at = None
    if args.singular_at:
        singular_at = plane.point_from_string(ctx, args.singular_at)
    task = pc.search.SearchTask(
        ctx=ctx,
        degree=args.degree,
        mode=mode,
        seed=args.seed,
        n_samples=args.samples,
        require_no_linear_component=args.require_no_linear_component,
        singular_at=singular_at,
        budget=args.budget,
        witness_cap=args.witness_cap,
    )
    record = pc.search.run_search(task, workers=args.workers)
    rows = [("N", "count")] + [(k, v) for k, v in sorted(record.histogram.items())]
    _emit(args, record.to_json_dict(), csv_rows=rows)
    best = record.best_N
    if (not args.require_no_linear_component or best is None
            or best <= pc.bounds.bound_values(ctx.q, args.degree).values["sziklai"]):
        return 0
    # above the bound is an anomaly unless every kept witness is the exceptional quartic
    exceptional = [pc.bounds.is_exceptional_quartic(w, best) for w in record.witnesses]
    if not (exceptional and all(exceptional)):
        return 2
    hits, kept = record.histogram[best], len(exceptional)
    if hits > kept:
        sys.stderr.write(f"note: {kept} of {hits} N = {best} hits checked against the "
                         "exceptional quartic; raise --witness-cap to check all\n")
    return 0


def cmd_lemma_check(args) -> int:
    cur = _load_curve(args)
    q = cur.ctx.q
    d = cur.degree
    counts = pc.analysis.count_points(cur)
    spec = pc.analysis.line_spectrum(cur, counts.points)
    n = spec.N
    no_lin = counts.linear_component is None
    no_sing = not counts.rational_singular
    lines = q * q + q + 1
    checks = {
        "lines_total": {
            "lhs": spec.sum_a(), "rhs": lines, "pass": spec.sum_a() == lines,
        },
        "incidence_total": {
            "lhs": spec.sum_ia(), "rhs": (q + 1) * n,
            "pass": spec.sum_ia() == (q + 1) * n,
        },
        "pair_total": {
            "lhs": spec.sum_pairs(), "rhs": n * (n - 1) // 2,
            "pass": spec.sum_pairs() == n * (n - 1) // 2,
        },
    }
    applicable = no_lin and no_sing and d <= q + 1
    if applicable:
        tangency_bound = sum(min(i, d - i) for (_l, i, _s) in spec.per_line)
        checks["tangency_bound"] = {
            "lhs": n, "rhs": tangency_bound, "pass": n <= tangency_bound,
        }
    else:
        reasons = []
        if not no_lin:
            reasons.append("linear component")
        if not no_sing:
            reasons.append("rational singular point")
        if d > q + 1:
            reasons.append("degree exceeds q+1")
        checks["tangency_bound"] = {"applicable": False, "reason": ", ".join(reasons)}
    payload = {"q": q, "d": d, "N": n, "checks": checks}
    _emit(args, payload)
    failed = any(c.get("pass") is False for c in checks.values())
    return 2 if failed else 0


_COMMANDS = {
    "field-info": cmd_field_info,
    "count": cmd_count,
    "spectrum": cmd_spectrum,
    "singular": cmd_singular,
    "bounds": cmd_bounds,
    "frobenius": cmd_frobenius,
    "equiv": cmd_equiv,
    "catalog": cmd_catalog,
    "verify-catalog": cmd_verify_catalog,
    "search": cmd_search,
    "lemma-check": cmd_lemma_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except RuntimeError as exc:
        # a failed invariant check inside the library, not a usage error
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
