"""Command line front end.

Subcommands: link info, milnor, drf eval, drf orbit, shrink decide,
report.  `shrink decide` exits 0 for a shrinkable decomposition, 1 for a
non-shrinkable one and 2 for unknown; usage, input and any other errors
exit 3 with one line on stderr.  Each command imports its own modules
when it runs, so a command loads only the stack it uses.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__

ERROR_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 2 free for Unknown verdicts
        self.exit(ERROR_EXIT, f"{self.prog}: error: {message}\n")


def _emit(payload: dict, args, text_lines: list[str]) -> None:
    if args.format == "json":
        if not args.deterministic:
            payload = dict(payload)
            payload["seconds"] = round(time.perf_counter() - args._t0, 6)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load_link(args):
    from .linkio import builtin, parse_pd

    if args.pd:
        with open(args.pd, encoding="utf-8") as fh:
            return parse_pd(fh.read())
    if args.pd_text:
        return parse_pd(args.pd_text)
    if args.builtin:
        return builtin(args.builtin)
    raise ValueError("no link given: use --pd, --pd-text, or --builtin")


def _link_payload(link) -> dict:
    from .freegroup import format_word
    from .linkio import LinkPresentation, PDCode, linking_matrix, wirtinger

    pairs = {f"{i},{j}": v for (i, j), v in linking_matrix(link).items()}
    if isinstance(link, PDCode):
        wp = wirtinger(link)
        return {
            "carrier": "diagram",
            "components": list(link.component_labels),
            "crossings": link.n_crossings,
            "arcs": wp.n_arcs,
            "relators": wp.n_relators,
            "linking_matrix": pairs,
        }
    assert isinstance(link, LinkPresentation)
    longs = {str(i): format_word(w) for i, w in sorted(link.longitude.items())}
    return {
        "carrier": "presentation",
        "components": list(link.labels),
        "valid_class": link.valid_class,
        "longitudes": longs,
        "linking_matrix": pairs,
    }


def cmd_link(args) -> int:
    link = _load_link(args)
    payload = {"version": __version__, "link": _link_payload(link)}
    info = payload["link"]
    lines = [f"components: {info['components']}"]
    if info["carrier"] == "diagram":
        lines.append(f"crossings: {info['crossings']}")
        lines.append(f"wirtinger: {info['arcs']} arcs, {info['relators']} relators")
    else:
        lines.append(f"presentation valid to class: {info['valid_class']}")
        for i, w in info["longitudes"].items():
            lines.append(f"longitude {i}: {w}")
    lines.append("linking numbers: " + (
        ", ".join(f"lk({k}) = {v}" for k, v in sorted(info["linking_matrix"].items()))
        or "none"
    ))
    _emit(payload, args, lines)
    return 0


def _parse_index(text: str) -> tuple[int, ...]:
    from .milnor import MilnorError

    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise MilnorError(f"bad multi-index {text!r}") from None


def cmd_milnor(args) -> int:
    from .freegroup import format_word
    from .magnus import expand, format_series
    from .milnor import MilnorError, all_multi_indices, longitude_word, mubar

    link = _load_link(args)
    records = []
    if args.index is not None:
        indices = [_parse_index(args.index)]
    elif args.all_upto_length is not None:
        indices = list(all_multi_indices(link.component_labels, args.all_upto_length))
    else:
        raise MilnorError("give --index or --all-upto-length")
    lines = []
    texts = {}  # (component, q) -> the longitude's fields, formatted once
    for index in indices:
        rec = mubar(link, index)
        key = (index[-1], len(index))
        if key not in texts:
            word = longitude_word(link, *key)
            texts[key] = {"longitude": format_word(word)}
            if args.dump_series:
                texts[key]["series"] = format_series(expand(word, len(index)))
        entry = {
            "index": list(index),
            "mu": rec.mu,
            "delta": rec.delta,
            "mubar": rec.mubar,
            "signed": rec.signed,
            **texts[key],
        }
        records.append(entry)
        line = (
            f"mu{tuple(index)} = {rec.mu}  delta = {rec.delta}  "
            f"mubar = {rec.mubar}  longitude: {entry['longitude']}"
        )
        if args.dump_series:
            line += f"\n  series: {entry['series']}"
        lines.append(line)
    _emit({"version": __version__, "records": records}, args, lines)
    return 0


def cmd_drf_eval(args) -> int:
    from .drf import nm_drf, parse_link_name

    spec = parse_link_name(args.link)
    if spec is None:
        raise ValueError(f"unknown link entry {args.link!r}")
    fn = nm_drf(spec)
    value = fn(args.k)
    _emit(
        {"version": __version__, "k": args.k, "value": value, "formula": fn.describe()},
        args,
        [str(value)],
    )
    return 0


def cmd_drf_orbit(args) -> int:
    from .drf import chain_orbit
    from .sequences import HorizonError, parse_sequence_config

    with open(args.sequence, encoding="utf-8") as fh:
        seq = parse_sequence_config(fh.read())
    if args.steps < 0:
        raise ValueError(f"--steps must be >= 0, not {args.steps}")
    pairs = seq.link_pairs(1, args.steps)
    if len(pairs) < args.steps:
        raise HorizonError(f"link {len(pairs) + 1} beyond the declared data")
    if args.k < 0 and pairs:
        raise ValueError("interlacing count must be nonnegative")
    orbit = chain_orbit(pairs, args.k)
    _emit(
        {"version": __version__, "k": args.k, "orbit": orbit},
        args,
        [" -> ".join(str(v) for v in orbit)],
    )
    return 0


def _horizons(args) -> tuple[int, int, int]:
    from .shrink import DEFAULT_K_MAX, DEFAULT_M_MAX, DEFAULT_P_MAX

    horizons = (DEFAULT_K_MAX, DEFAULT_M_MAX, DEFAULT_P_MAX)
    if not args.horizon:
        return horizons
    parts = tuple(int(tok) for tok in args.horizon.replace(",", " ").split())
    if len(parts) == 1:
        return horizons[:2] + parts
    if len(parts) == 3:
        return parts
    raise ValueError("--horizon must be P or K,M,P")


def cmd_shrink(args) -> int:
    from .sequences import parse_sequence_config, sequence_to_config
    from .shrink import decide, verify_certificate

    with open(args.config, encoding="utf-8") as fh:
        seq = parse_sequence_config(fh.read())
    k_max, m_max, p_max = _horizons(args)
    verdict = decide(seq, k_max=k_max, m_max=m_max, p_max=p_max)
    recheck = verify_certificate(verdict)
    payload = {
        "version": __version__,
        "input": sequence_to_config(seq),
        "outcome": verdict.outcome,
        "criterion": verdict.criterion,
        "certificate": verdict.certificate,
        "corroborating": [list(pair) for pair in verdict.corroborating],
        "certificate_verified": recheck,
    }
    if verdict.evidence:
        payload["evidence"] = verdict.evidence
    lines = [
        f"verdict: {verdict.outcome}",
        f"criterion: {verdict.criterion}",
        f"certificate: {json.dumps(verdict.certificate, sort_keys=True)}",
        f"certificate re-check: {'ok' if recheck else 'FAILED'}",
    ]
    if verdict.corroborating:
        lines.append(
            "corroborating: "
            + ", ".join(f"{c} -> {o}" for c, o in verdict.corroborating)
        )
    lines += [f"declined: {name}: {reason}" for name, reason in verdict.declined]
    if verdict.evidence:
        lines.append(f"evidence: {json.dumps(verdict.evidence, sort_keys=True)}")
    _emit(payload, args, lines)
    return verdict.exit_code


def cmd_report(args) -> int:
    from .report import run_checks

    results = run_checks(only=args.only)
    payload = {
        "version": __version__,
        "checks": [
            {
                "id": r.check_id,
                "ok": r.ok,
                "detail": r.detail,
                **({} if args.deterministic else {"seconds": round(r.seconds, 4)}),
            }
            for r in results
        ],
        "all_ok": all(r.ok for r in results),
    }
    width = max(len(r.check_id) for r in results)
    lines = [
        f"{r.check_id.ljust(width)}  {'pass' if r.ok else 'FAIL'}  {r.detail}"
        for r in results
    ]
    lines.append("all checks passed" if payload["all_ok"] else "SOME CHECKS FAILED")
    _emit(payload, args, lines)
    return 0 if payload["all_ok"] else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="toroshrink", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="suppress timing so output is byte-stable",
        )

    p_link = sub.add_parser("link", help="inspect link input")
    link_sub = p_link.add_subparsers(dest="link_command", required=True)
    p_info = link_sub.add_parser("info", help="components, crossings, linking matrix")
    p_info.add_argument("--pd", help="PD code file")
    p_info.add_argument("--pd-text", help="PD code text")
    p_info.add_argument("--builtin", help="builtin link spec, e.g. nm(4,3)")
    common(p_info)
    p_info.set_defaults(fn=cmd_link)

    p_mil = sub.add_parser("milnor", help="Milnor invariants mu, delta, mubar")
    p_mil.add_argument("--pd", help="PD code file")
    p_mil.add_argument("--pd-text", help="PD code text")
    p_mil.add_argument("--builtin", help="builtin link spec")
    p_mil.add_argument("--index", help="multi-index, e.g. 0,0,1,1")
    p_mil.add_argument(
        "--all-upto-length", type=int, help="tabulate all multi-indices up to length q"
    )
    p_mil.add_argument(
        "--dump-series",
        action="store_true",
        help="print the truncated expansion of the reduced longitude",
    )
    common(p_mil)
    p_mil.set_defaults(fn=cmd_milnor)

    p_drf = sub.add_parser("drf", help="disc replicating functions")
    drf_sub = p_drf.add_subparsers(dest="drf_command", required=True)
    p_eval = drf_sub.add_parser("eval", help="evaluate an exact chain function")
    p_eval.add_argument("--link", required=True, help="nm(n,m) spec")
    p_eval.add_argument("--k", type=int, required=True)
    common(p_eval)
    p_eval.set_defaults(fn=cmd_drf_eval)
    p_orbit = drf_sub.add_parser("orbit", help="compose a sequence of functions")
    p_orbit.add_argument("--sequence", required=True, help="sequence config file")
    p_orbit.add_argument("--k", type=int, required=True)
    p_orbit.add_argument("--steps", type=int, default=40)
    common(p_orbit)
    p_orbit.set_defaults(fn=cmd_drf_orbit)

    p_shr = sub.add_parser("shrink", help="shrinkability verdicts")
    shr_sub = p_shr.add_subparsers(dest="shrink_command", required=True)
    p_dec = shr_sub.add_parser("decide", help="decide a sequence config")
    p_dec.add_argument("--config", required=True, help="sequence config file")
    p_dec.add_argument("--horizon", help="orbit horizons: P or K,M,P")
    common(p_dec)
    p_dec.set_defaults(fn=cmd_shrink)

    p_rep = sub.add_parser("report", help="run the reproduction suite")
    p_rep.add_argument("--only", help="run a single check by id")
    common(p_rep)
    p_rep.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        code = args.fn(args)
    except Exception as exc:
        print(f"toroshrink: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return ERROR_EXIT
    return code


if __name__ == "__main__":
    sys.exit(main())
