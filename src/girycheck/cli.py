"""Command-line front end.

Subcommands: check-compat, check-laws, wasserstein, expect, counterexample,
fields-demo, report-all.  Exit codes: 0 all requested checks passed, 1 some
check failed, 2 usage or parse errors.  JSON reports are versioned and
deterministic for a fixed seed; timing is printed only in text mode so the
JSON stays byte-stable.  report-all, and check-compat/check-laws over all
spaces, run the spaces one after another in sorted id order; each space
draws from its own rng streams.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .algebra import (
    Rejection,
    build_algebra,
    coseparator_maps,
    counterexample_C,
    full_report,
)
from .fields import agreement_check, dyadic_field, field_leq, generate_field
from .measures import FinMeasure, expectation_functional, parse_measure, to_text
from .metric_ot import (
    brute_force_wasserstein,
    compat_check_2pt,
    compat_check_4pt,
    decided_compat,
    discrete_metric,
    equiv_verdict,
    extended_abs_metric,
    l1_metric,
    linf_metric,
    order_metric,
    wasserstein,
)
from .registry import Registry, builtin_registry
from .sampling import random_measure
from .spaces import (
    Branched,
    Element,
    Gluing,
    as_ext,
    box_space,
    extended_line_space,
    interval_space,
    labels_space,
    naturals_space,
    product_space,
    semidirect_space,
    simplex_space,
)

_METRIC_BUILDERS = {
    "l1": l1_metric,
    "linf": linf_metric,
    "discrete": discrete_metric,
    "order": order_metric,
    "ext-abs": extended_abs_metric,
}

# the characters that separate atoms, product components, branch points and
# nesting in a measure text; a label that holds one could not be read back
_MEASURE_SYNTAX = ",|@()[]"


class SpaceFileError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# space-definition files


def _parse_tokens(tokens):
    positional, options = [], {}
    for tok in tokens:
        if "=" in tok:
            key, _, val = tok.partition("=")
            options[key] = val
        else:
            positional.append(tok)
    return positional, options


def _build_space(space_id, kind, carrier, args, rule, reg, glues, line):
    try:
        if carrier == "interval":
            lo, hi = (Fraction(a) for a in args)
            return interval_space(space_id, lo, hi)
        if carrier == "box":
            if len(args) % 2 or not args:
                raise ValueError("box needs lo hi pairs")
            vals = [Fraction(a) for a in args]
            return box_space(space_id, list(zip(vals[0::2], vals[1::2])))
        if carrier == "simplex":
            (n,) = args
            return simplex_space(space_id, int(n))
        if carrier == "extline":
            lo, hi = (None if a == "-" else a for a in args)
            return extended_line_space(space_id, lo, hi)
        if carrier == "labels":
            for label in args:
                bad = [ch for ch in label if ch in _MEASURE_SYNTAX]
                if bad:
                    raise ValueError(
                        f"label {label!r} contains {bad[0]!r}, which a measure text cannot carry"
                    )
            rule = rule or "min"
            center = None
            if rule.startswith("collapse"):
                rule, _, center = rule.partition(":")
                if not center:
                    raise ValueError("collapse rule needs a center, rule=collapse:<label>")
            return labels_space(space_id, tuple(args), rule, center=center)
        if carrier == "naturals":
            (n,) = args
            return naturals_space(space_id, int(n), rule or "min")
        if carrier == "product":
            a, b = args
            return product_space(reg.space(a), reg.space(b), space_id)
        if carrier == "semidirect":
            branch = reg.space(args[0])
            comps = []
            for spec in args[1:]:
                label, _, comp_id = spec.partition(":")
                if not comp_id:
                    raise ValueError(f"branch spec {spec!r} must be <label>:<space>")
                comps.append((label, reg.space(comp_id)))
            if not glues:
                raise ValueError("semidirect space needs preceding glue lines")
            return semidirect_space(branch, comps, glues, space_id)
    except SpaceFileError:
        raise
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SpaceFileError(line, str(exc)) from exc
    raise SpaceFileError(line, f"unknown carrier {carrier!r}")


def _parse_space_line(tokens, reg, glues, line):
    positional, options = _parse_tokens(tokens)
    if not positional:
        raise SpaceFileError(line, "space line needs an id")
    space_id = positional[0]
    if ":" in space_id:
        raise SpaceFileError(line, f"space id {space_id!r} holds ':', which ends a measure header")
    kind = options.get("kind")
    if kind not in ("geometric", "discrete", "mixed"):
        raise SpaceFileError(line, f"kind must be geometric/discrete/mixed, got {kind!r}")
    carrier = options.get("carrier")
    if carrier is None:
        raise SpaceFileError(line, "space line needs carrier=<name>")
    space = _build_space(
        space_id, kind, carrier, positional[1:], options.get("rule"), reg, glues, line
    )
    if space.kind.value != kind:
        raise SpaceFileError(
            line, f"carrier {carrier!r} is {space.kind.value}, declared {kind!r}"
        )
    if options.get("expect") == "reject":
        space = dataclasses.replace(space, expect_reject=True)
    metric = None
    metric_name = options.get("metric", "default")
    if metric_name != "default":
        if metric_name not in _METRIC_BUILDERS:
            raise SpaceFileError(line, f"unknown metric {metric_name!r}")
        try:
            metric = _METRIC_BUILDERS[metric_name](space)
        except ValueError as exc:
            raise SpaceFileError(line, str(exc)) from exc
    return space, metric


def _parse_glue_line(tokens, line) -> Gluing:
    # glue <src>@<point> -> <dst>@<point>
    if len(tokens) != 3 or tokens[1] != "->":
        raise SpaceFileError(line, "glue line must be: glue <src>@<pt> -> <dst>@<pt>")

    def half(tok):
        label, sep, pt = tok.partition("@")
        if not sep:
            raise SpaceFileError(line, f"glue endpoint {tok!r} must be <branch>@<point>")
        try:
            return label, Fraction(pt)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpaceFileError(line, f"glue endpoint {tok!r}: {exc}") from exc

    src, ident = half(tokens[0])
    dst, target = half(tokens[2])
    return Gluing(src, dst, target, ident=ident)


def parse_space_file(path) -> Registry:
    """Registry of built-ins plus the spaces declared in the file."""
    reg = builtin_registry()
    glues = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            tokens = text.split()
            if tokens[0] == "glue":
                glues.append(_parse_glue_line(tokens[1:], line_no))
            elif tokens[0] == "space":
                space, metric = _parse_space_line(tokens[1:], reg, tuple(glues), line_no)
                if isinstance(space.carrier, Branched):
                    glues = []
                try:
                    reg.add(space, metric)
                except ValueError as exc:
                    raise SpaceFileError(line_no, str(exc)) from exc
            else:
                raise SpaceFileError(line_no, f"unknown directive {tokens[0]!r}")
    return reg


# ---------------------------------------------------------------------------
# report building blocks


def _rng(seed, name) -> random.Random:
    return random.Random(f"{seed}/{name}")


def _laws_section(space, metric, seed, budget) -> dict:
    rep = full_report(space, metric, budget, _rng(seed, f"laws/{space.id}"))
    if isinstance(rep, Rejection):
        out = rep.to_json()
        out["ok"] = bool(space.expect_reject)
        if space.expect_reject:
            out["note"] = "rejection expected for this space"
        return out
    out = rep.to_json()
    out["ok"] = rep.ok and not space.expect_reject
    if space.expect_reject:
        out["note"] = "space was expected to be rejected but built an operator"
    return out


def _compat_section(space, metric, seed, budget) -> dict:
    decided = decided_compat(space, metric)
    two = decided or compat_check_2pt(space, metric, budget, _rng(seed, f"compat2/{space.id}"))
    four = decided or compat_check_4pt(space, metric, budget, _rng(seed, f"compat4/{space.id}"))
    eq = equiv_verdict(two, four)
    return {
        "two_point": two.to_json(),
        "four_point": four.to_json(),
        "equiv": eq.to_json(),
        "ok": two.ok and four.ok,
        "equiv_ok": eq.ok,
    }


def _plan_rows(space, result) -> list:
    rows = []
    for e, w in result.plan.joint.atoms:
        xp, yp = e.payload
        rows.append(
            {
                "x": space.point_str(Element(space.id, xp)),
                "y": space.point_str(Element(space.id, yp)),
                "mass": str(w),
            }
        )
    return rows


def _transport_section(space, metric, P, Q, brute=False) -> dict:
    solve = brute_force_wasserstein if brute else wasserstein
    res = solve(P, Q, metric)
    marginals_ok = res.plan.marginals_ok()
    out = {
        "space": space.id,
        "method": res.method,
        "cost": str(res.cost),
        "plan": _plan_rows(space, res),
        "marginals_ok": marginals_ok,
        "ok": marginals_ok,
    }
    if not brute and len(P.atoms) <= 4 and len(Q.atoms) <= 4:
        cross = brute_force_wasserstein(P, Q, metric)
        out["brute_cost"] = str(cross.cost)
        out["ok"] = out["ok"] and cross.cost == res.cost
    return out


def _expect_section(space, metric, P, seed) -> dict:
    maps = coseparator_maps(space)
    values = {m.name: str(expectation_functional(P, m)) for m in maps}
    out = {"space": space.id, "measure": to_text(P, space), "expectations": values}
    alg = build_algebra(space, metric, 300, _rng(seed, f"expect/{space.id}"))
    if isinstance(alg, Rejection):
        out["algebra"] = "rejected"
        out["ok"] = True
        return out
    point = alg(P)
    out["algebra"] = space.point_str(point)
    out["ok"] = all(
        as_ext(m(point)) == expectation_functional(P, m) for m in maps
    )
    return out


def _counterexample_section(reg) -> dict:
    report = counterexample_C(reg.space("C"))
    report["ok"] = (
        len(report["ideals"]) == 3
        and report["coseparation"]["status"] == "pass"
        and report["compat"]["status"] == "fail"
        and report["support_condition"]["status"] == "fail"
        and report["poset"]["is_total"] is False
        and report["rejection"]["rejected"] is True
    )
    return report


def _fields_section() -> dict:
    base = generate_field((1, 2, 3, 4), [frozenset({1, 2}), frozenset({2, 3})])
    atoms_txt = ["{" + ", ".join(str(x) for x in sorted(a)) + "}" for a in base.atoms]
    ladder = [dyadic_field(n) for n in range(4)]
    nested = all(field_leq(ladder[k], ladder[k + 1]) for k in range(3))

    # two measures that agree on both generators yet differ on the field
    point = labels_space("demo-pts", ("1", "2", "3", "4"), "min")
    gen_field = generate_field(
        tuple(point.enumerate_elements()),
        [
            frozenset({point.element("1"), point.element("2")}),
            frozenset({point.element("2"), point.element("3")}),
        ],
    )
    P = FinMeasure.from_pairs(
        point.id,
        [(point.element("1"), Fraction(1, 2)), (point.element("3"), Fraction(1, 2))],
    )
    Q = FinMeasure.from_pairs(
        point.id,
        [(point.element("2"), Fraction(1, 2)), (point.element("4"), Fraction(1, 2))],
    )
    verdict = agreement_check(P, Q, gen_field)
    return {
        "atoms": atoms_txt,
        "member_count": base.member_count,
        "dyadic_nesting": nested,
        "generator_agreement_is_not_member_agreement": verdict.to_json(),
        "ok": len(base.atoms) == 4
        and base.member_count == 16
        and nested
        and not verdict.ok
        and verdict.note == "generators agree",
    }


def _shared_sections(reg, seed) -> dict:
    """The sections of report-all that are not per space."""
    unit = reg.space("unit_interval")
    metric = reg.metric("unit_interval")
    P = FinMeasure.from_pairs(unit.id, [(unit.element(0), Fraction(1))])
    Q = FinMeasure.from_pairs(
        unit.id, [(unit.element(0), Fraction(1, 2)), (unit.element(1), Fraction(1, 2))]
    )
    rng = _rng(seed, "transport-sample")
    agree = 0
    trials = 25
    for _ in range(trials):
        A = random_measure(rng, unit, 4)
        B = random_measure(rng, unit, 4)
        if wasserstein(A, B, metric).cost == brute_force_wasserstein(A, B, metric).cost:
            agree += 1
    return {
        "counterexample": _counterexample_section(reg),
        "transport": {
            "example": _transport_section(unit, metric, P, Q),
            "oracle_agreement": {"agreed": agree, "trials": trials},
        },
        "fields": _fields_section(),
    }


def _report_all(reg, seed, budget) -> dict:
    laws, equiv = {}, {}
    for sid in sorted(reg.ids()):
        space, metric = reg.space(sid), reg.metric(sid)
        laws[sid] = _laws_section(space, metric, seed, budget)
        equiv[sid] = _compat_section(space, metric, seed, budget)["equiv"]
    report = {"budget": budget, "laws": laws, "equiv": equiv, **_shared_sections(reg, seed)}
    transport = report["transport"]
    report["ok"] = (
        all(sec["ok"] for sec in laws.values())
        and report["counterexample"]["ok"]
        and transport["example"]["ok"]
        and transport["oracle_agreement"]["agreed"] == transport["oracle_agreement"]["trials"]
        and report["fields"]["ok"]
    )
    return report


# ---------------------------------------------------------------------------
# rendering


def _render_text(doc, out):
    def walk(node, indent=0):
        pad = "  " * indent
        if isinstance(node, dict):
            for key in node:
                val = node[key]
                if isinstance(val, (dict, list)):
                    out.write(f"{pad}{key}:\n")
                    walk(val, indent + 1)
                else:
                    out.write(f"{pad}{key}: {val}\n")
        elif isinstance(node, list):
            for val in node:
                if isinstance(val, list) and not any(
                    isinstance(v, (dict, list)) for v in val
                ):
                    out.write(f"{pad}- {', '.join(str(v) for v in val)}\n")
                elif isinstance(val, (dict, list)):
                    walk(val, indent)
                    out.write("\n" if indent == 0 else "")
                else:
                    out.write(f"{pad}- {val}\n")

    walk(doc)


def _emit(doc, fmt, out_path, started):
    text_out = sys.stdout
    close = None
    if out_path:
        text_out = open(out_path, "w")
        close = text_out
    try:
        if fmt == "json":
            text_out.write(json.dumps(doc, sort_keys=True, indent=2))
            text_out.write("\n")
        else:
            _render_text(doc, text_out)
            text_out.write(f"elapsed: {time.perf_counter() - started:.3f}s\n")
    finally:
        if close:
            close.close()


# ---------------------------------------------------------------------------
# entry point


def _budget(text) -> int:
    budget = int(text)
    if budget < 1:
        raise argparse.ArgumentTypeError(f"budget must be at least 1, got {budget}")
    return budget


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=2026, help="RNG seed echoed in reports")
    common.add_argument(
        "--budget", type=_budget, default=300, help="sampling budget per check, at least 1"
    )
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--spaces", metavar="FILE", help="space definition file to load")
    common.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="girycheck",
        description="Exact checks for barycenter algebras on convex metric spaces.",
    )
    parser.add_argument("--version", action="version", version=f"girycheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("check-compat", "two- and four-point metric compatibility"),
        ("check-laws", "build the algebra and verify its laws"),
    ):
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        cmd.add_argument("--space", default="all", help="space id, or 'all'")

    wcmd = sub.add_parser(
        "wasserstein", parents=[common], help="exact transport distance between two measures"
    )
    wcmd.add_argument("--space", required=True)
    wcmd.add_argument("measure_p", metavar="P.msr")
    wcmd.add_argument("measure_q", metavar="Q.msr")
    wcmd.add_argument("--brute", action="store_true", help="use the vertex-enumeration solver")

    ecmd = sub.add_parser(
        "expect", parents=[common], help="expectations of the test maps under a measure"
    )
    ecmd.add_argument("--space", required=True)
    ecmd.add_argument("measure_p", metavar="P.msr")

    sub.add_parser(
        "counterexample",
        parents=[common],
        help="the three-point space that admits no operator",
    )
    sub.add_parser(
        "fields-demo", parents=[common], help="set-field atoms, joins, and the dyadic ladder"
    )
    sub.add_parser("report-all", parents=[common], help="every check on every built-in space")
    return parser


def _selected_ids(reg, chosen) -> list:
    return sorted(reg.ids()) if chosen == "all" else [chosen]


def _read_measure(path, space) -> FinMeasure:
    with open(path) as fh:
        return parse_measure(fh.read(), space)


def run(args) -> tuple:
    """Execute a parsed command; returns (report dict, ok flag)."""
    reg = parse_space_file(args.spaces) if args.spaces else builtin_registry()
    body, ok = _command_body(args, reg)
    return {"schema": 1, "seed": args.seed, "command": args.command, **body}, ok


def _command_body(args, reg) -> tuple:
    seed, budget = args.seed, args.budget
    if args.command == "check-compat":
        sections = {
            sid: _compat_section(reg.space(sid), reg.metric(sid), seed, budget)
            for sid in _selected_ids(reg, args.space)
        }
        # failing compat is the expected outcome for expect=reject spaces
        ok = all(
            sec["ok"] or reg.space(sid).expect_reject for sid, sec in sections.items()
        ) and all(sec["equiv_ok"] for sec in sections.values())
        return {"spaces": sections}, ok
    if args.command == "check-laws":
        sections = {
            sid: _laws_section(reg.space(sid), reg.metric(sid), seed, budget)
            for sid in _selected_ids(reg, args.space)
        }
        return {"spaces": sections}, all(sec["ok"] for sec in sections.values())
    if args.command == "wasserstein":
        space = reg.space(args.space)
        P = _read_measure(args.measure_p, space)
        Q = _read_measure(args.measure_q, space)
        body = _transport_section(space, reg.metric(args.space), P, Q, brute=args.brute)
    elif args.command == "expect":
        space = reg.space(args.space)
        P = _read_measure(args.measure_p, space)
        body = _expect_section(space, reg.metric(args.space), P, seed)
    elif args.command == "counterexample":
        body = _counterexample_section(reg)
    elif args.command == "fields-demo":
        body = _fields_section()
    elif args.command == "report-all":
        body = _report_all(reg, seed, budget)
    else:
        raise ValueError(f"unhandled command {args.command!r}")
    return body, body["ok"]


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc, ok = run(args)
        try:
            _emit(doc, args.format, args.out, started)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped (`| head`); devnull keeps the flush at exit quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except SpaceFileError as exc:
        print(f"girycheck: space file error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"girycheck: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
