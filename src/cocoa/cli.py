"""Command-line front end.

Exit codes: 0 success, 1 verification counterexample or failed bench check,
2 usage/parse error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .awa import awa_to_dot
from .chain import (
    ChainConfig, Cocoa, ResourceLimit, build_chain_for_formula, chain_to_json,
    drop_accepting_transition, level_to_hoa, natural_color, verify_chain,
)
from .floating import dfw_to_dot
from .formula import (
    Alphabet, InvalidParameter, ParseError, lower_bound_alphabet,
    lower_bound_family, parse_lasso, parse_ltl,
)
from .obligation import obligation_to_dot
from .sltm import sltm_to_dot

_IDENT = __import__("re").compile(r"[A-Za-z_][A-Za-z_0-9]*")
_RESERVED = {"X", "F", "G", "U", "R", "true", "false"}


def _scan_aps(text: str) -> list[str]:
    names = {m.group(0) for m in _IDENT.finditer(text)} - _RESERVED
    # stacked unary operators like "FG" lex as identifiers; a proposition
    # spelled only with operator letters needs an explicit --aps
    names = {n for n in names if not set(n) <= set("XFG")}
    return sorted(names)


def _build(args: argparse.Namespace) -> Cocoa:
    given = [s.strip() for s in args.aps.split(",") if s.strip()] if args.aps else None
    aps = given or _scan_aps(args.formula) or ["a"]
    f = parse_ltl(args.formula, aps)
    return build_chain_for_formula(
        f, Alphabet.from_aps(aps),
        ChainConfig(max_states=args.max_states, timeout_s=args.timeout_s))


def _level_summary(chain: Cocoa) -> list[dict]:
    out = []
    for i, (d, c) in enumerate(chain.levels, start=1):
        out.append({"level": i, "dfw_states": d.n_states, "hdncw_states": c.n_states})
    return out


def cmd_translate(args: argparse.Namespace) -> int:
    chain = _build(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if args.format == "json":
        path = out / "chain.json"
        path.write_text(json.dumps(chain_to_json(chain), indent=2, sort_keys=True) + "\n")
        written.append(str(path))
    elif args.format == "hoa":
        for i in range(1, chain.k + 1):
            path = out / f"level-{i}.hoa"
            path.write_text(level_to_hoa(chain, i))
            written.append(str(path))
    elif args.format == "dot":
        files = {
            "awa.dot": awa_to_dot(chain.awa),
            "obligation-neg.dot": obligation_to_dot(chain.sltm.g_neg),
            "obligation-pos.dot": obligation_to_dot(chain.sltm.g_pos),
            "sltm.dot": sltm_to_dot(chain.sltm),
        }
        for i, (d, _c) in enumerate(chain.levels, start=1):
            files[f"level-{i}-dfw.dot"] = dfw_to_dot(d, chain.sltm, name=f"level{i}")
        for name, text in files.items():
            path = out / name
            path.write_text(text)
            written.append(str(path))
    report = {
        "formula": str(chain.formula),
        "k": chain.k,
        "sltm_states": chain.sltm.n_states,
        "levels": _level_summary(chain),
        "files": written,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"k={chain.k}")
        print(f"sltm_states={chain.sltm.n_states}")
        for lvl in report["levels"]:
            print(f"level {lvl['level']}: dfw_states={lvl['dfw_states']} "
                  f"hdncw_states={lvl['hdncw_states']}")
        for path in written:
            print(f"wrote {path}")
    return 0


def cmd_color(args: argparse.Namespace) -> int:
    chain = _build(args)
    w = parse_lasso(args.word, chain.alphabet)
    color = natural_color(chain, w)
    member = color % 2 == 0
    if args.json:
        print(json.dumps({"word": w.text(), "natural_color": color, "member": member}))
    else:
        print(f"natural_color={color}")
        print(f"member={'true' if member else 'false'}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.prefix < 1 or args.period < 1:
        raise InvalidParameter("verification bounds must be at least 1")
    chain = _build(args)
    f = chain.formula
    if args.mutate:
        if chain.k == 0:
            raise InvalidParameter("cannot mutate a chain with no levels")
        chain = drop_accepting_transition(chain)
    report = verify_chain(chain, f, args.prefix, args.period)
    payload = report.to_json()
    payload["k"] = chain.k
    payload["mutated"] = bool(args.mutate)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"k={chain.k} lassos={report.lassos} "
              f"counterexamples={report.counterexamples} "
              f"monotonicity_ok={report.monotonicity_ok} "
              f"elapsed_s={report.elapsed_s:.2f}")
        if report.first_counterexample:
            ce = report.first_counterexample
            print(f"first counterexample: {ce['lasso']} color={ce['natural_color']} "
                  f"oracle_member={ce['oracle_member']}")
    return 0 if report.ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise InvalidParameter("benchmark parameter n must be at least 1")
    f = lower_bound_family(args.n)
    alphabet = lower_bound_alphabet(args.n, restricted=not args.full_alphabet)
    t0 = time.monotonic()
    chain = build_chain_for_formula(
        f, alphabet,
        ChainConfig(max_states=args.max_states, timeout_s=args.timeout_s,
                    check_single_step=False))
    elapsed = time.monotonic() - t0
    report = {
        "n": args.n,
        "k": chain.k,
        "sltm_states": chain.sltm.n_states,
        "levels": _level_summary(chain),
        "elapsed_s": round(elapsed, 3),
    }
    checks_ok = True
    if args.n == 1:
        report["checks"] = {
            "sltm_at_least_4": chain.sltm.n_states >= 4,
            "single_level": chain.k == 1,
        }
        checks_ok = all(report["checks"].values())
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"n={args.n} k={chain.k} sltm_states={chain.sltm.n_states} "
              f"elapsed_s={elapsed:.2f}")
        for lvl in report["levels"]:
            print(f"level {lvl['level']}: dfw_states={lvl['dfw_states']} "
                  f"hdncw_states={lvl['hdncw_states']}")
        if args.n == 1:
            for name, ok in report["checks"].items():
                print(f"check {name}: {'PASS' if ok else 'FAIL'}")
    return 0 if checks_ok else 1


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cocoa",
        description="Translate LTL into a chain of co-Buchi automata and "
                    "verify it against the lasso-word oracle.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, summary, with_formula=True):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        if with_formula:
            sp.add_argument("formula", help="LTL formula (ASCII grammar)")
            sp.add_argument("--aps", help="comma-separated atomic propositions "
                                          "(default: identifiers in the formula)")
        sp.add_argument("--max-states", type=int, default=ChainConfig.max_states)
        sp.add_argument("--timeout-s", type=float, default=ChainConfig.timeout_s)
        sp.add_argument("--json", action="store_true")
        return sp

    sp = command("translate", cmd_translate, "build the chain and write artifacts")
    sp.add_argument("--format", default="json", choices=["json", "dot", "hoa"])
    sp.add_argument("--out", default="cocoa-out")
    sp = command("color", cmd_color, "natural color of a lasso word")
    sp.add_argument("--word", required=True, help="lasso syntax {a}{};{b}")
    sp = command("verify", cmd_verify, "differential check against the oracle")
    sp.add_argument("--prefix", type=int, default=2)
    sp.add_argument("--period", type=int, default=3)
    sp.add_argument("--mutate", choices=["drop-accepting"])
    sp = command("bench", cmd_bench, "benchmark formula family", with_formula=False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--full-alphabet", action="store_true",
                    help="use all subsets of the propositions as letters")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.max_states <= 0 or args.timeout_s <= 0:
            raise InvalidParameter("resource caps must be positive")
        return args.func(args)
    except (ParseError, InvalidParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        if exc.partial is not None:
            print(f"partial progress: {len(exc.partial)} levels completed",
                  file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
