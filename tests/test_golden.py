"""Golden reports: one small case of every claim id, pinned field by field.

Each row is one report's record() in REPORT_FIELDS order without
elapsed_ms, the only field that varies between runs.  The rows cover the
exact notes of every claim, the not-applicable cases of cj2c3 and t2c3,
a thm1 case over its exponent budget, and a thm1 full_modulus case that
only the residue path reaches.
"""

import pytest

from qaltsum.cli import REPORT_FIELDS
from qaltsum.verify import run_case

GOLDEN = [
    ("eq1", {"n": 2}, [
        ("eq1", {"n": 2}, None, True, None, "sum=6, closed_form=6"),
    ]),
    ("eq2", {"n": 2}, [
        ("eq2", {"n": 2}, None, True, None, "sum=90, closed_form=90"),
    ]),
    ("calkin", {"n": 2, "r": 3}, [
        ("calkin", {"n": 2, "r": 3}, "[6]", True, 0, ""),
    ]),
    ("gjz", {"ns": [2, 1]}, [
        ("gjz", {"ns": [2, 1]}, "[3]", True, 0, ""),
    ]),
    ("gjzq", {"ns": [2, 1]}, [
        (
            "gjzq",
            {"ns": [2, 1]},
            "[1, 1, 1]",
            True,
            2,
            "modulus subscript ambiguity: asserted last-part variant; component subscripts whose "
            "modulus divides: [2]",
        ),
    ]),
    ("cj2c1", {"n": 1, "r": 2, "s": 1, "t": 1}, [
        ("cj2c1", {"n": 1, "r": 2, "s": 1, "t": 1}, "[12]", True, 0, ""),
    ]),
    ("cj2c2", {"n": 1, "r": 2, "s": 1, "t": 1}, [
        ("cj2c2", {"n": 1, "r": 2, "s": 1, "t": 1}, "[120]", True, 0, ""),
    ]),
    ("cj2c3", {"n": 1, "r": 2, "s": 1, "t": 1}, [
        ("cj2c3", {"n": 1, "r": 2, "s": 1, "t": 1}, "[112]", True, 0, ""),
    ]),
    ("cj2c1q", {"n": 1, "r": 2, "s": 1, "t": 1}, [
        ("cj2c1q", {"n": 1, "r": 2, "s": 1, "t": 1}, "[1, 1, 1, 1, 1, 1]", True, 18, ""),
    ]),
    ("cj2c2q", {"n": 1, "r": 2, "s": 1, "t": 1}, [
        (
            "cj2c2q",
            {"n": 1, "r": 2, "s": 1, "t": 1},
            "[1, 1, 2, 3, 3, 3, 3, 2, 1, 1]",
            True,
            14,
            "",
        ),
    ]),
    ("cj2c3q", {"n": 1, "r": 2, "s": 1, "t": 1}, [
        (
            "cj2c3q",
            {"n": 1, "r": 2, "s": 1, "t": 1},
            "[1, 1, 2, 3, 4, 5, 6, 6, 6, 6, 5, 4, 3, 2, 1, 1]",
            True,
            22,
            "",
        ),
    ]),
    ("cj2c3", {"n": 1, "r": 1, "s": 1, "t": 1}, [
        (
            "cj2c3",
            {"n": 1, "r": 1, "s": 1, "t": 1},
            None,
            None,
            None,
            "not applicable: the claim excludes (r, s, t) = (1, 1, 1)",
        ),
    ]),
    ("thm1", {"n": 2, "variant": "per_prime"}, [
        (
            "thm1",
            {"n": 2, "variant": "per_prime", "p": 2, "r": 4},
            "[2]",
            True,
            None,
            "nu_2(sum)=1, expected gamma=1",
        ),
        (
            "thm1",
            {"n": 2, "variant": "per_prime", "p": 2, "r": 6},
            "[2]",
            True,
            None,
            "nu_2(sum)=1, expected gamma=1",
        ),
        (
            "thm1",
            {"n": 2, "variant": "per_prime", "p": 3, "r": 8},
            "[3]",
            True,
            None,
            "nu_3(sum)=1, expected gamma=1",
        ),
        (
            "thm1",
            {"n": 2, "variant": "per_prime", "p": 3, "r": 14},
            "[3]",
            True,
            None,
            "nu_3(sum)=1, expected gamma=1",
        ),
    ]),
    ("thm1", {"n": 1, "variant": "full_modulus"}, [
        (
            "thm1",
            {"n": 1, "variant": "full_modulus", "p": 2, "r": 4},
            "[2]",
            True,
            None,
            "nu_2(sum)=1, expected gamma=1",
        ),
    ]),
    ("thm1", {"n": 4, "variant": "full_modulus", "exponent_budget": 10}, [
        (
            "thm1",
            {"n": 4, "variant": "full_modulus", "exponent_budget": 10},
            None,
            None,
            None,
            "not evaluated: full_modulus exponent 1682 exceeds the budget 10 (n=4)",
        ),
    ]),
    ("t2c1", {"n": 2, "r": 1, "s": 1, "t": 1}, [
        (
            "t2c1",
            {"n": 2, "r": 1, "s": 1, "t": 1},
            "[1, 1, 3, 3, 5, 5, 7, 7, 9, 9, 11, 10, 11, 9, 9, 7, 7, 5, 5, 3, 3, 1, 1]",
            True,
            34,
            "alpha=1",
        ),
    ]),
    ("t2c2", {"n": 2, "r": 1, "s": 1, "t": 1}, [
        (
            "t2c2",
            {"n": 2, "r": 1, "s": 1, "t": 1},
            "[1, 2, 5, 8, 14, 21, 33, 46, 65, 84, 110, 135, 167, 195, 228, 254, 283, 302, 322, "
            "329, 336, 329, 322, 302, 283, 254, 228, 195, 167, 135, 110, 84, 65, 46, 33, 21, 14, "
            "8, 5, 2, 1]",
            True,
            16,
            "alpha=1, beta=0; printed-form modulus with [3] at q^(2^alpha) also divides",
        ),
    ]),
    ("t2c3", {"n": 1, "r": 2, "s": 1, "t": 1}, [
        (
            "t2c3",
            {"n": 1, "r": 2, "s": 1, "t": 1},
            "[1, 1, 2, 3, 5, 6, 8, 9, 10, 11, 11, 10, 9, 8, 6, 5, 3, 2, 1, 1]",
            True,
            18,
            "alpha=0; branch: r >= 2 with n = 2^a mod 2^(a+2); two-factor at q^(2^2)",
        ),
    ]),
    ("t2c3", {"n": 1, "r": 1, "s": 1, "t": 1}, [
        (
            "t2c3",
            {"n": 1, "r": 1, "s": 1, "t": 1},
            None,
            None,
            None,
            "not applicable: no branch guard matched",
        ),
    ]),
    ("lemmas", {"n": 1, "p": 2, "r": 2}, [
        ("lemma21", {"n": 1, "p": 2}, "[2]", True, None, "exponent fixed at 2; nu_2=1, gamma=1"),
        ("lemma22", {"n": 1, "p": 2, "r": 2}, "[4]", True, None, "nu_2=2 >= 2"),
        ("lemma23", {"n": 1, "p": 2, "r": 2, "I": [1]}, "[4]", True, None, "nu_2=2 >= 2"),
        ("lemma24", {"n": 1, "p": 2, "r": 2, "I": [1]}, "[1, 2, 1]", True, 0, ""),
        ("lemma23", {"n": 1, "p": 2, "r": 2, "I": [2]}, "[4]", True, None, "nu_2=inf >= 2"),
        ("lemma24", {"n": 1, "p": 2, "r": 2, "I": [2]}, "[1, 1, 2, 2, 1, 1]", True, -1, ""),
        ("lemma23", {"n": 1, "p": 2, "r": 2, "I": [1, 2]}, "[8]", True, None, "nu_2=inf >= 3"),
        ("lemma24", {"n": 1, "p": 2, "r": 2, "I": [1, 2]}, "[1, 2, 3, 4, 3, 2, 1]", True, -1, ""),
    ]),
    ("conj1_window", {"n": 2, "m": 2, "w": 3}, [
        (
            "conj1_window",
            {"n": 2, "m": 2, "w": 3},
            "[6]",
            True,
            None,
            "evidence, not proof (finite window r=2..4); gcd=6",
        ),
    ]),
    ("qlucas", {"d": 3, "x1": 1, "x2": 2, "y1": 0, "y2": 2}, [
        ("qlucas", {"d": 3, "x1": 1, "x2": 2, "y1": 0, "y2": 2}, "[1, 1, 1]", True, None, ""),
    ]),
    # the first n whose full_modulus exponent the default budget refuses
    ("thm1", {"n": 6, "variant": "full_modulus", "exponent_budget": 10**80}, [
        (
            "thm1",
            {"n": 6, "variant": "full_modulus", "p": 2, "r": 221762},
            "[4]",
            True,
            None,
            "nu_2(sum)=2, expected gamma=2",
        ),
        (
            "thm1",
            {"n": 6, "variant": "full_modulus", "p": 3, "r": 221762},
            "[3]",
            True,
            None,
            "nu_3(sum)=1, expected gamma=1",
        ),
        (
            "thm1",
            {"n": 6, "variant": "full_modulus", "p": 7, "r": 221762},
            "[7]",
            True,
            None,
            "nu_7(sum)=1, expected gamma=1",
        ),
        (
            "thm1",
            {"n": 6, "variant": "full_modulus", "p": 11, "r": 221762},
            "[11]",
            True,
            None,
            "nu_11(sum)=1, expected gamma=1",
        ),
    ]),
]


@pytest.mark.parametrize(
    "claim_id, params, rows", GOLDEN, ids=[f"{case[0]}-{i}" for i, case in enumerate(GOLDEN)]
)
def test_records_match_golden(claim_id, params, rows):
    records = [rep.record() for rep in run_case(claim_id, params)]
    assert all(list(rec) == list(REPORT_FIELDS) for rec in records)
    assert [tuple(rec.values())[:-1] for rec in records] == rows
