"""Benchmark workloads: the CLI call each op makes and the checks on its output.

Each op is one `csikey.cli.main(argv)` call.  `check_op` looks at one op's
parsed JSON document; `check_pool` looks at all of a run's documents
together, for properties that only hold statistically.  Both return None
on success or a one-line reason.
"""

import math
from dataclasses import dataclass
from typing import Callable

from reference import binomial_ci

ATTACK_K = 0.002
PROTOCOL_C = 67  # messages for n=64, log2m=4, eta=256
PROTOCOL_ETA = 256


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple
    check_op: Callable[[dict], str | None]
    check_pool: Callable[[list], str | None] | None = None

    def argv(self, seed: int) -> list[str]:
        return [*self.args, "--seed", str(seed), "--format", "json"]


def _ber_errors(doc: dict) -> dict[str, tuple[int, int]]:
    """method -> (symbol errors, symbols) of one ber op."""
    out = {}
    for r in doc["results"]:
        total = r["trials"] * r["n"]
        out[r["method"]] = (round(r["ser"] * total), total)
    return out


def _check_ber(n: int, trials: int, methods: set):
    def check(doc):
        res = {r["method"]: r for r in doc["results"]}
        if set(res) != methods:
            return f"methods {sorted(res)}, expected {sorted(methods)}"
        for m, r in res.items():
            if r["n"] != n or r["trials"] != trials:
                return f"{m}: n={r['n']} trials={r['trials']}"
            if not 0 <= r["ser_ci_low"] <= r["ser"] <= r["ser_ci_high"] <= 1:
                return f"{m}: SER {r['ser']} outside its interval"
        return None
    return check


def _pooled_ser(docs: list) -> dict[str, tuple[float, float, float]]:
    """method -> (SER, CI low, CI high) pooled over all ops."""
    errs, totals = {}, {}
    for doc in docs:
        for m, (e, t) in _ber_errors(doc).items():
            errs[m] = errs.get(m, 0) + e
            totals[m] = totals.get(m, 0) + t
    return {m: (errs[m] / totals[m], *binomial_ci(errs[m], totals[m]))
            for m in errs}


def check_attack_separation(docs: list) -> str | None:
    """Acceptance 13's separation: Bob's CI lies below ZF's and Babai's."""
    s = _pooled_ser(docs)
    bob_hi = s["bob"][2]
    for m in ("zf", "babai"):
        if not bob_hi < s[m][1]:
            return (f"Bob SER CI high {bob_hi:.4g} not below {m} CI low "
                    f"{s[m][1]:.4g}")
    return None


def check_ml_not_worse(docs: list) -> str | None:
    s = _pooled_ser(docs)
    if not s["ml"][0] <= s["zf"][0]:
        return f"pooled ML SER {s['ml'][0]:.4g} above ZF SER {s['zf'][0]:.4g}"
    return None


def check_key_agreement(doc: dict) -> str | None:
    """Acceptance 14's implication, plus the transcript's shape."""
    t = doc["results"][0]
    if (t["c"], t["eta"], t["coder"]) != (PROTOCOL_C, PROTOCOL_ETA, "repetition-3"):
        return f"c={t['c']} eta={t['eta']} coder={t['coder']}"
    if len(t["messages"]) != t["c"] or not 0 <= t["message_errors"] <= t["c"]:
        return "message list and error count disagree with c"
    key_hex = PROTOCOL_ETA // 4
    if len(t["alice_key"]) != key_hex or len(t["bob_key"]) != key_hex:
        return "key length differs from eta"
    if t["success"] != (t["alice_key"] == t["bob_key"]):
        return "success flag disagrees with the keys"
    if t["message_errors"] == 0 and not t["success"]:
        return "error-free transcript reports success False"
    return None


def _check_reduction(trials: int):
    def check(doc):
        rows = doc["results"]
        if [r["trial"] for r in rows] != list(range(trials)):
            return f"{len(rows)} rows, expected {trials}"
        for r in rows:
            if not r["matches_enumeration"]:
                return f"trial {r['trial']}: BDD point differs from enumeration"
            if not math.isfinite(r["distance"]) or r["distance"] < 0:
                return f"trial {r['trial']}: distance {r['distance']}"
        return None
    return check


def _ber_args(n: int, m_rx: int, log2m: int, trials: int) -> tuple:
    alpha = 1.05 * math.sqrt(n) * ATTACK_K**2  # the minimum-noise point
    return ("ber", "--n", str(n), "--m-rx", str(m_rx), "--log2m", str(log2m),
            "--k", repr(ATTACK_K), "--alpha", repr(alpha), "--trials",
            str(trials))


# reduction-n4 is defined and runnable but left out of BENCHMARK.json: about
# one reduction-demo instance in a few thousand ends in SearchFailureError
# (`csikey reduction-demo --n 4 --trials 2 --seed 293287552` is one), so a run
# of it cannot have a zero fail rate until bdd_via_mimo is fixed.  A test in
# test_gates.py runs that op and fails once the defect is gone.
OUTSIDE_BENCHMARK = ("reduction-n4",)

ATTACK_N16_TRIALS = 2
ATTACK_N4_TRIALS = 40
REDUCTION_TRIALS = 2

WORKLOADS = {w.name: w for w in (
    Workload(
        "attack-n16",
        "ber at acceptance-13 parameters; LLL with a Gram-Schmidt recompute "
        "per swap dominates, so an LLL/GSO change shows here",
        _ber_args(16, 16, 8, ATTACK_N16_TRIALS),
        _check_ber(16, ATTACK_N16_TRIALS, {"bob", "zf", "babai"}),
        check_attack_separation),
    Workload(
        "attack-n4-ml",
        "ber at n=4, M=16, where the CLI turns exact ML on; shows the "
        "enumerator and fixed per-call costs of small LLL calls",
        _ber_args(4, 4, 4, ATTACK_N4_TRIALS),
        _check_ber(4, ATTACK_N4_TRIALS, {"bob", "zf", "babai", "ml"}),
        check_ml_not_worse),
    Workload(
        "protocol-n64",
        "key agreement at n=64 with 67 messages; SVD, majority vote and the "
        "Toeplitz hash, with no lattice call",
        ("key-agreement", "--n", "64", "--m-rx", "128", "--log2m", "4",
         "--alpha", "0.02", "--eta", str(PROTOCOL_ETA), "--coder",
         "repetition-3"),
        check_key_agreement),
    Workload(
        "reduction-n4",
        "BDD via the MIMO oracle at n=4, checked against enumeration; the "
        "only user of the Klein sampler",
        ("reduction-demo", "--n", "4", "--trials", str(REDUCTION_TRIALS)),
        _check_reduction(REDUCTION_TRIALS)),
)}
