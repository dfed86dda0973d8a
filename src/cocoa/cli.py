"""Command-line front end.

Exit codes: 0 success, 1 verification counterexample or failed bench check,
2 usage/parse error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .awa import awa_to_dot, dualize, from_ltl
from .chain import (
    ChainConfig, Cocoa, ResourceLimit, build_chain, chain_to_json,
    drop_accepting_transition, level_to_hoa, natural_color, verify_chain,
)
from .floating import dfw_to_dot
from .formula import (
    Alphabet, Formula, InvalidParameter, ParseError, lower_bound_alphabet,
    lower_bound_family, parse_lasso, parse_ltl, to_nnf,
)
from .obligation import obligation_to_dot
from .sltm import sltm_to_dot

_IDENT = __import__("re").compile(r"[A-Za-z_][A-Za-z_0-9]*")
_RESERVED = {"X", "F", "G", "U", "R", "true", "false"}


@dataclass
class RunConfig:
    command: str
    formula_text: str | None = None
    aps: list[str] | None = None
    out_dir: str = "cocoa-out"
    fmt: str = "json"
    prefix_bound: int = 2
    period_bound: int = 3
    max_states: int = 10 ** 6
    timeout_s: float = 300.0
    json_output: bool = False
    word: str | None = None
    mutate: str | None = None
    n: int = 1
    full_alphabet: bool = False

    def validate(self) -> None:
        if self.prefix_bound < 1 or self.period_bound < 1:
            raise InvalidParameter("verification bounds must be at least 1")
        if self.max_states <= 0 or self.timeout_s <= 0:
            raise InvalidParameter("resource caps must be positive")


def _scan_aps(text: str) -> list[str]:
    names = {m.group(0) for m in _IDENT.finditer(text)} - _RESERVED
    # stacked unary operators like "FG" lex as identifiers; a proposition
    # spelled only with operator letters needs an explicit --aps
    names = {n for n in names if not set(n) <= set("XFG")}
    return sorted(names)


def _build(cfg: RunConfig) -> tuple[Cocoa, Formula, Alphabet]:
    aps = cfg.aps or _scan_aps(cfg.formula_text or "")
    if not aps:
        aps = ["a"]
    f = parse_ltl(cfg.formula_text or "", aps)
    alphabet = Alphabet.from_aps(aps)
    a = from_ltl(to_nnf(f), alphabet)
    chain = build_chain(a, config=ChainConfig(max_states=cfg.max_states,
                                              timeout_s=cfg.timeout_s),
                        formula=f)
    return chain, f, alphabet


def _level_summary(chain: Cocoa) -> list[dict]:
    out = []
    for i, (d, c) in enumerate(chain.levels, start=1):
        out.append({"level": i, "dfw_states": d.n_states, "hdncw_states": c.n_states})
    return out


def cmd_translate(cfg: RunConfig) -> int:
    chain, f, _alphabet = _build(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if cfg.fmt == "json":
        path = out / "chain.json"
        path.write_text(json.dumps(chain_to_json(chain), indent=2, sort_keys=True) + "\n")
        written.append(str(path))
    elif cfg.fmt == "hoa":
        for i in range(1, chain.k + 1):
            path = out / f"level-{i}.hoa"
            path.write_text(level_to_hoa(chain, i))
            written.append(str(path))
    elif cfg.fmt == "dot":
        assert chain.awa is not None and chain.sltm.g_neg is not None
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
    else:
        raise InvalidParameter(f"unknown format {cfg.fmt!r}")
    report = {
        "formula": str(f),
        "k": chain.k,
        "sltm_states": chain.sltm.n_states,
        "levels": _level_summary(chain),
        "files": written,
    }
    if cfg.json_output:
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


def cmd_color(cfg: RunConfig) -> int:
    chain, _f, alphabet = _build(cfg)
    w = parse_lasso(cfg.word or "", alphabet)
    color = natural_color(chain, w)
    member = color % 2 == 0
    if cfg.json_output:
        print(json.dumps({"word": w.text(), "natural_color": color, "member": member}))
    else:
        print(f"natural_color={color}")
        print(f"member={'true' if member else 'false'}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    chain, f, _alphabet = _build(cfg)
    if cfg.mutate:
        if cfg.mutate != "drop-accepting":
            raise InvalidParameter(f"unknown mutation {cfg.mutate!r}")
        if chain.k == 0:
            raise InvalidParameter("cannot mutate a chain with no levels")
        chain = drop_accepting_transition(chain)
    report = verify_chain(chain, f, cfg.prefix_bound, cfg.period_bound)
    payload = report.to_json()
    payload["k"] = chain.k
    payload["mutated"] = bool(cfg.mutate)
    if cfg.json_output:
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


def cmd_bench(cfg: RunConfig) -> int:
    if cfg.n < 1:
        raise InvalidParameter("benchmark parameter n must be at least 1")
    f = lower_bound_family(cfg.n)
    alphabet = lower_bound_alphabet(cfg.n, restricted=not cfg.full_alphabet)
    a = from_ltl(to_nnf(f), alphabet)
    t0 = time.monotonic()
    chain = build_chain(
        a,
        config=ChainConfig(max_states=cfg.max_states, timeout_s=cfg.timeout_s,
                           check_single_step=False),
        formula=f)
    elapsed = time.monotonic() - t0
    report = {
        "n": cfg.n,
        "k": chain.k,
        "sltm_states": chain.sltm.n_states,
        "levels": _level_summary(chain),
        "elapsed_s": round(elapsed, 3),
    }
    checks_ok = True
    if cfg.n == 1:
        report["checks"] = {
            "sltm_at_least_4": chain.sltm.n_states >= 4,
            "single_level": chain.k == 1,
        }
        checks_ok = all(report["checks"].values())
    if cfg.json_output:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"n={cfg.n} k={chain.k} sltm_states={chain.sltm.n_states} "
              f"elapsed_s={elapsed:.2f}")
        for lvl in report["levels"]:
            print(f"level {lvl['level']}: dfw_states={lvl['dfw_states']} "
                  f"hdncw_states={lvl['hdncw_states']}")
        if cfg.n == 1:
            for name, ok in report["checks"].items():
                print(f"check {name}: {'PASS' if ok else 'FAIL'}")
    return 0 if checks_ok else 1


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cocoa",
        description="Translate LTL into a chain of co-Buchi automata and "
                    "verify it against the lasso-word oracle.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_formula=True):
        if with_formula:
            sp.add_argument("formula", help="LTL formula (ASCII grammar)")
            sp.add_argument("--aps", help="comma-separated atomic propositions "
                                          "(default: identifiers in the formula)")
        sp.add_argument("--format", dest="fmt", default="json",
                        choices=["json", "dot", "hoa"])
        sp.add_argument("--out", dest="out_dir", default="cocoa-out")
        sp.add_argument("--max-states", type=int, default=10 ** 6)
        sp.add_argument("--timeout-s", type=float, default=300.0)
        sp.add_argument("--json", dest="json_output", action="store_true")

    sp = sub.add_parser("translate", help="build the chain and write artifacts")
    common(sp)
    sp = sub.add_parser("color", help="natural color of a lasso word")
    common(sp)
    sp.add_argument("--word", required=True, help="lasso syntax {a}{};{b}")
    sp = sub.add_parser("verify", help="differential check against the oracle")
    common(sp)
    sp.add_argument("--prefix", dest="prefix_bound", type=int, default=2)
    sp.add_argument("--period", dest="period_bound", type=int, default=3)
    sp.add_argument("--mutate", choices=["drop-accepting"])
    sp = sub.add_parser("bench", help="benchmark formula family")
    common(sp, with_formula=False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--full-alphabet", action="store_true",
                    help="use all subsets of the propositions as letters")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        formula_text=getattr(args, "formula", None),
        aps=[s.strip() for s in args.aps.split(",") if s.strip()] if getattr(args, "aps", None) else None,
        out_dir=args.out_dir,
        fmt=args.fmt,
        prefix_bound=getattr(args, "prefix_bound", 2),
        period_bound=getattr(args, "period_bound", 3),
        max_states=args.max_states,
        timeout_s=args.timeout_s,
        json_output=args.json_output,
        word=getattr(args, "word", None),
        mutate=getattr(args, "mutate", None),
        n=getattr(args, "n", 1),
        full_alphabet=getattr(args, "full_alphabet", False),
    )
    try:
        cfg.validate()
        if cfg.command == "translate":
            return cmd_translate(cfg)
        if cfg.command == "color":
            return cmd_color(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        if cfg.command == "bench":
            return cmd_bench(cfg)
        raise InvalidParameter(f"unknown command {cfg.command!r}")
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
