"""The text exports stay fixed: HOA, DOT and the mutant's JSON of a few
golden chains are hashed and compared with stored digests.  The digests
were measured on an earlier internal transition format, so they also show
that no export depends on how transitions are stored."""

import hashlib
import json

import pytest

from cocoa import (
    Alphabet, build_chain, chain_to_json, drop_accepting_transition, from_ltl,
    level_to_hoa, obligation_to_dot, parse_ltl, to_nnf,
)
from cocoa.floating import dfw_to_dot
from cocoa.sltm import sltm_to_dot

# formula, propositions, sha256 of each export
GOLDEN = [
    ("G a", ["a"], {
        "hoa": "26d4820e8551e189d02ec5c1d08a180b3f28e930adb697e1a0110fbb66da999b",
        "dfw_dot": "c0d270a2bd935b99902556aece47aa14e1ef5475e3ac1e2900a3229c0434bb14",
        "sltm_dot": "9c2b0c03d51f23225161d494ce35251f22df49a67a91203f0931148e122383ec",
        "obligation_dot": "739053fc97c0737c9fa644f2dc0649f1da81359ef62938f5fdfc0cf21097f466",
        "mutant_json": "6854a65357105828e3bd860a956f7225d17450dced8d5477fe196cceebe12feb",
    }),
    ("FG a", ["a"], {
        "hoa": "08c34cf0567c5c0a9fd5cb480818b8a838bf717bbccc45e34b9ba534c176a487",
        "dfw_dot": "8e5029e6a47a6cbfe1d18cdb1242222d871c43fa0e0f6e4ae80e3e8d70d5e9b7",
        "sltm_dot": "37069941987dc53c174a0862dc4ee83fcf31a126089574f2275ba858263f912c",
        "obligation_dot": "11b8783ba27d17f2dc493389ede6b3092abe6c59e0b8678e1d99e976802a73a5",
        "mutant_json": "690cc5469d245497deaadfe93dcbd5d358ea1a68015775444fedd202a198fb58",
    }),
    ("a U b", ["a", "b"], {
        "hoa": "4c59c617e7921e66e7edb7b9e76438d0e3ada5b1dabe7e76393d79df64d53fb6",
        "dfw_dot": "2949aa017128b57b6d938ac655acff7ec9e0dc991eada0cf22816c7db84230a0",
        "sltm_dot": "3262a449e58356615070e13cbc68751ae579522fda426cc5fa3e71369ea3a228",
        "obligation_dot": "1c1b5c03215f7380895517b6bb6339211df51518cb81b4c0c3b9d4971d67273d",
        "mutant_json": "7ada8afa5dcbbf268087c897cbb189b68b97aa225af4bb8344251c873da1a29d",
    }),
    ("GF a -> GF b", ["a", "b"], {
        "hoa": "6bba90dc3fdade8d56541418931e08cae47e9555625de5307af5c219dfa19b60",
        "dfw_dot": "0b55d17c1fb990911d10550cfa9b52c3f9e43fb102d8c1fe9539fb946df587cb",
        "sltm_dot": "63cc4f289ea204485d6c564a87569a09d45bc510cbad25f37be2a3f5200f03e4",
        "obligation_dot": "242ad01f7b14bb4ff3ce74c70db79faee70d1bcaf826255eb1929f25f47fd3d8",
        "mutant_json": "b58091d9e142d45f6ba5e99d4788126e8e06bb6cadfaa4804259600d03eafc43",
    }),
    ("GF a -> (GF b & FG c)", ["a", "b", "c"], {
        "hoa": "6144b8c1b3079ee62f2a1e65d72cae250480ca12dafc9efb2a4e36a67cf7ca83",
        "dfw_dot": "d551417ee22028ef0a27c12c64a808f9a39fbda26d5d51ffe83fb0480f406570",
        "sltm_dot": "65d9ba44db0b2321a6a3d7fda7c5a29d61c07d090434b45b5026d3b12e902c40",
        "obligation_dot": "4fb675ef377fd87a7c4169fa6912dc704955baeb2d6301f452e9267520391d57",
        "mutant_json": "b0a38fd34ae2345b548884d81cee5bcc8158f225aba8cbb181aa5e7e28ccf221",
    }),
]


def export_texts(text: str, aps: list[str]) -> dict[str, str]:
    f = parse_ltl(text, aps)
    chain = build_chain(from_ltl(to_nnf(f), Alphabet.from_aps(aps)), formula=f)
    m = chain.sltm
    return {
        "hoa": "".join(level_to_hoa(chain, i) for i in range(1, chain.k + 1)),
        "dfw_dot": "".join(dfw_to_dot(d, m, name=f"level{i}")
                           for i, (d, _c) in enumerate(chain.levels, start=1)),
        "sltm_dot": sltm_to_dot(m),
        "obligation_dot": obligation_to_dot(m.g_neg) + obligation_to_dot(m.g_pos),
        "mutant_json": json.dumps(chain_to_json(drop_accepting_transition(chain)),
                                  sort_keys=True),
    }


@pytest.mark.parametrize("text,aps,want", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_export_bytes_match_digests(text, aps, want):
    got = {name: hashlib.sha256(body.encode()).hexdigest()
           for name, body in export_texts(text, aps).items()}
    assert got == want
