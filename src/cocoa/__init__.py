"""Direct translation of LTL into the canonical chain of co-Buchi automata,
with a brute-force lasso-word oracle for differential verification."""

from .awa import (
    Awa, NotNnf, NotWeak, awa_to_dot, dualize, from_ltl,
    winning_state_positions,
)
from .chain import (
    ChainConfig, Cocoa, HdNcw, ResourceLimit, VerifyReport, build_chain,
    build_chain_for_formula, chain_from_json, chain_to_json, dfw_to_hd_ncw,
    drop_accepting_transition, level_to_hoa, natural_color, verify_chain,
)
from .floating import (
    Dfw, Nfw, det_edges, determinize, dfw_accepts_lasso, dfw_accepts_lassos,
    level_product, minimize_dfw, universal_dfw,
)
from .formula import (
    Alphabet, Formula, InvalidParameter, LassoWord, Lassos, ParseError,
    UnknownAtom, always, atom, conj, disj, enumerate_lassos, eval_lasso,
    eval_lassos, eventually,
    implies, lower_bound_alphabet, lower_bound_family, neg, nxt, parse_lasso,
    parse_ltl, release, to_nnf, until,
)
from .obligation import ObligationGraph, miyano_hayashi, obligation_to_dot
from .sltm import (
    IncompatibleAutomata, LanguageOracle, Label, Sltm, build_canonical_sltm,
    label_of, labels_equivalent, sltm_to_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
