"""End-to-end tests of the command-line interface, run in-process."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from math import gcd

import pytest

import lenshf.cli
import lenshf.numtheory
import lenshf.solver
import lenshf.witness
from lenshf.cli import main
from lenshf.lens import LensSpace
from lenshf.solver import minimal_planar_boundaries, solve_n2, solve_n3
from lenshf.witness import certificate_from_json, pad, verify


def run_cli(capsys, *argv):
    """Run main() in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# --- analyze -----------------------------------------------------------------

def test_analyze_count_three(capsys):
    code, out, _ = run_cli(capsys, "analyze", "5", "2")
    assert code == 0
    assert "L(5,2)" in out and "3 boundary components" in out
    assert "a=[1, 0]" in out and "t=[-1, -7]" in out and "l12=-2" in out
    assert "determinant: 1" in out


def test_analyze_count_two(capsys):
    code, out, _ = run_cli(capsys, "analyze", "7", "3")
    assert code == 0
    assert "2 boundary components" in out
    assert "a=3 t=-4" in out
    assert "determinant: -1" in out


def test_analyze_trace_flag(capsys):
    code, out, _ = run_cli(capsys, "analyze", "5", "2", "--trace")
    assert code == 0
    assert "q_prime: 7" in out and "branch: q-branch" in out
    # count-2 answers have no trace to print
    code, out, _ = run_cli(capsys, "analyze", "7", "3", "--trace")
    assert code == 0
    assert "q_prime" not in out


def test_analyze_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "analyze", "5", "2", "--json", "--trace")
    assert code == 0
    cert = certificate_from_json(out)
    assert cert.lens.p == 5 and cert.valid
    assert cert.trace is not None and cert.trace.q_prime == 7
    # without --trace the JSON has no trace key
    code, out, _ = run_cli(capsys, "analyze", "5", "2", "--json")
    assert "trace" not in json.loads(out)


def test_analyze_json_integers_are_strings(capsys):
    _, out, _ = run_cli(capsys, "analyze", "11", "2", "--json")
    data = json.loads(out)
    assert data["p"] == "11" and isinstance(data["det"], str)
    assert all(isinstance(v, str) for v in data["a"] + data["t"])


def test_analyze_special_cases(capsys):
    code, out, _ = run_cli(capsys, "analyze", "1", "0")
    assert code == 0 and "3-sphere" in out
    code, out, _ = run_cli(capsys, "analyze", "0", "1")
    assert code == 0 and "not a lens space" in out
    code, out, _ = run_cli(capsys, "analyze", "1", "0", "--json")
    assert code == 0 and json.loads(out)["special"] == "3-sphere"


def test_analyze_negative_p_normalizes(capsys):
    code, out, _ = run_cli(capsys, "analyze", "-5", "2")
    assert code == 0 and "L(5,3)" in out


def test_analyze_domain_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "6", "3")
    assert code == 2 and "domain error" in err


def test_analyze_resource_error_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(lenshf.solver, "PRIME_SHIFT_CAP", 1)
    code, _, err = run_cli(capsys, "analyze", "5", "2")
    assert code == 3 and "resource" in err


def test_analyze_count_three_of_an_unfactorable_p_by_jacobi_symbols(capsys):
    # (7|p) = (-7|p) = -1 decides count 3 without splitting p, which
    # Pollard-Brent cannot do within numtheory.FACTOR_EFFORT
    p = (10**24 + 49) * (10**24 + 121)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", str(p), "7")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "3 boundary components" in out


def test_analyze_count_three_of_an_unfactorable_p_by_a_found_divisor(capsys):
    # (±7|p) = +1, but the first split (Pollard p-1: 1000033 - 1 is smooth)
    # leaves 1000033 and d = (10^24+49)(10^24+121) with (±7|d) = -1, which
    # decides count 3 without splitting d, which neither p-1 nor
    # Pollard-Brent can do within numtheory.FACTOR_EFFORT
    p = 1000033 * (10**24 + 49) * (10**24 + 121)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", str(p), "7")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "3 boundary components" in out


def test_analyze_unfactorable_p_with_a_plus_one_symbol_exit_3(capsys, monkeypatch):
    # p ≡ 3 (mod 4), so (-1|p) = -1 and one of (±2|p) is +1: p must be factored,
    # and p itself is the only divisor found before the split that fails
    monkeypatch.setattr(lenshf.numtheory, "FACTOR_EFFORT", 1000)
    p = (10**24 + 7) * (10**24 + 49)
    code, out, err = run_cli(capsys, "analyze", str(p), "2")
    assert code == 3 and out == "" and "resource" in err


def test_analyze_integrity_error_exit_3(capsys, monkeypatch):
    # a primality test that passes 15 as the shifted prime q' = 2 + 13
    monkeypatch.setattr(lenshf.solver, "is_prime", lambda m: True)
    code, out, err = run_cli(capsys, "analyze", "13", "2")
    assert code == 3 and out == ""
    assert "integrity failure: modulus 15 is not prime" in err


def test_usage_errors_exit_64(capsys):
    code, _, _ = run_cli(capsys, "analyze", "5")
    assert code == 64
    code, _, _ = run_cli(capsys, "analyze", "5", "x")
    assert code == 64
    code, _, _ = run_cli(capsys)
    assert code == 64
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 64


# --- table -------------------------------------------------------------------

def test_table_tsv(capsys):
    code, out, _ = run_cli(capsys, "table", "5")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert ["2", "1", "2", "1"] in rows
    assert [r[:3] for r in rows if r[0] == "5" and r[1] == "2"] == [["5", "2", "3"]]
    assert [r[:3] for r in rows if r[0] == "5" and r[1] == "1"] == [["5", "1", "2"]]


def test_table_2_single_row(capsys):
    _, out, _ = run_cli(capsys, "table", "2")
    lines = out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("2\t1\t2\t")


def test_table_summary(capsys):
    _, out, _ = run_cli(capsys, "table", "7", "--summary")
    summary = [line for line in out.splitlines() if line.startswith("# p=7")]
    assert summary == ["# p=7\tcount2=6\tcount3=0"]


def test_table_400_summary_matches_the_closed_form_census(capsys):
    # q is count 2 iff q ≡ ±(a²)⁻¹ (mod p): the unit squares number φ(p)/R,
    # R the square roots of 1 (2 per odd prime; 1, 2, 4 for 2, 4, 8 | p), and
    # ± doubles them unless -1 is itself a square mod p
    sympy = pytest.importorskip("sympy")
    code, out, _ = run_cli(capsys, "table", "400", "--summary")
    assert code == 0
    summaries = [line for line in out.splitlines() if line.startswith("# p=")]
    assert len(summaries) == 399
    for line in summaries:
        fields = dict(field.split("=") for field in line[2:].split("\t"))
        p, count2, count3 = int(fields["p"]), int(fields["count2"]), int(fields["count3"])
        phi = int(sympy.totient(p))
        roots_of_one = 1
        for prime, exp in sympy.factorint(p).items():
            roots_of_one *= 2 if prime > 2 else min(1 << (exp - 1), 4)
        minus_one_is_square = any(x * x % p == p - 1 for x in range(p))
        assert count2 + count3 == phi, p
        assert count2 == phi // roots_of_one * (1 if minus_one_is_square else 2), p
    # the rows as well as the counts, at no extra run
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dc46386f40848d819e2f9c87465ead837f265d8c165adcfcf5a17b98a231e17d"
    )


def test_table_square_criterion_agrees_with_solve_n2_per_q():
    # solve_n2 without fact decides by Jacobi symbols and a factor() that may
    # stop early, independently of the unit squares the table lists per p
    for p in range(2, 301):
        squares = {a * a % p for a in range(1, p // 2 + 1)}
        for q in range(1, p):
            if gcd(p, q) == 1:
                listed = q in squares or p - q in squares
                assert listed == (solve_n2(LensSpace(p, q)) is not None), (p, q)


def test_table_jsonl(capsys):
    _, out, _ = run_cli(capsys, "table", "5", "--jsonl", "--summary")
    objs = [json.loads(line) for line in out.strip().splitlines()]
    rows = [o for o in objs if "summary" not in o]
    summaries = [o["summary"] for o in objs if "summary" in o]
    assert {"p": "5", "q": "2", "boundaries": "3", "det": "1"} in rows
    assert {"p": "5", "count2": "2", "count3": "2"} in summaries


def test_table_200_golden_digest(capsys):
    # perfbench/data/golden.json sweep "200", from the seed commit
    code, out, _ = run_cli(capsys, "table", "200")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "69e98fb13d27837d54fe73cc1196801d22ee9293f1c7673309bc7dd9f90f0f0c"
    )


def test_table_rejects_small_pmax(capsys):
    code, _, err = run_cli(capsys, "table", "1")
    assert code == 2


def _counting(monkeypatch, module, name, counter):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        counter[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_table_factors_each_p_once_and_verifies_each_row_once(capsys, monkeypatch):
    counter = {"factor": 0, "verify": 0}
    for module in (lenshf.cli, lenshf.solver):
        _counting(monkeypatch, module, "factor", counter)
        _counting(monkeypatch, module, "verify", counter)
    code, out, _ = run_cli(capsys, "table", "30")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == sum(1 for p in range(2, 31) for q in range(1, p) if gcd(p, q) == 1)
    assert counter == {"factor": 29, "verify": len(rows)}


# The layers whose calls perfbench's traced sweep requires, written out here
_SWEEP_LAYERS = (
    "minimal_planar_boundaries", "solve_n2", "solve_n3", "find_prime_shift", "factor", "is_prime",
    "sqrt_mod", "sqrt_mod_prime", "bezout", "construct_representing_form", "verify", "det_exact",
)


def test_table_runs_solve_n2_on_count_two_rows_only_and_every_traced_layer(capsys, monkeypatch):
    modules = (lenshf.cli, lenshf.solver, lenshf.numtheory, lenshf.lens, lenshf.quadform, lenshf.witness)
    counter = dict.fromkeys(_SWEEP_LAYERS, 0)
    for name in _SWEEP_LAYERS:  # wrap each module's binding, so every call counts once
        original = next(vars(m)[name] for m in modules if name in vars(m))
        for module in modules:
            if vars(module).get(name) is original:
                _counting(monkeypatch, module, name, counter)
    code, out, _ = run_cli(capsys, "table", "30")
    assert code == 0
    counts = [line.split("\t")[2] for line in out.splitlines()]
    assert counter["solve_n2"] == counts.count("2") and counter["solve_n3"] == counts.count("3")
    assert counter["verify"] == len(counts)
    assert [name for name, calls in counter.items() if calls == 0] == []


def test_table_count_two_row_the_solver_denies_exit_3(capsys, monkeypatch):
    # L(2,1) comes first, and 1 is a square mod 2
    monkeypatch.setattr(lenshf.cli, "minimal_planar_boundaries",
                        lambda lens, fact=None: (3, solve_n3(lens)))
    code, out, err = run_cli(capsys, "table", "5")
    assert code == 3 and out == ""
    assert "integrity failure: L(2,1)" in err


def test_each_answer_and_each_verify_evaluates_one_determinant(monkeypatch):
    # the traced benchmark requires witness.det_exact calls on every workload
    counter = {"det_exact": 0}
    _counting(monkeypatch, lenshf.witness, "det_exact", counter)
    for p, q, count in ((5, 4, 2), (5, 2, 3)):
        counter["det_exact"] = 0
        assert minimal_planar_boundaries(LensSpace(p, q))[0] == count
        assert counter == {"det_exact": 1}, (p, q)
    w = minimal_planar_boundaries(LensSpace(5, 2))[1].witness
    w = pad(pad(pad(w)))
    counter["det_exact"] = 0
    assert w.n == 5 and verify(LensSpace(5, 2), w).valid
    assert counter == {"det_exact": 1}


def test_removed_search_flags_exit_64_before_any_work(capsys, monkeypatch):
    # the prime-search cap is a module constant, and primality takes no round count
    counter = {"factor": 0, "minimal_planar_boundaries": 0}
    _counting(monkeypatch, lenshf.cli, "factor", counter)
    _counting(monkeypatch, lenshf.cli, "minimal_planar_boundaries", counter)
    for argv in (("analyze", "7", "3", "--cap", "5"), ("analyze", "7", "3", "--mr-rounds", "5"),
                 ("table", "10", "--cap", "5")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 64 and out == "" and "unrecognized arguments" in err, argv
    assert counter == {"factor": 0, "minimal_planar_boundaries": 0}


def _src_env():
    """The environment for a child interpreter that imports this lenshf."""
    src = os.path.dirname(os.path.dirname(lenshf.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_python_dash_m_lenshf_runs_the_cli():
    runs = [
        subprocess.run([sys.executable, "-m", module, "analyze", "7", "3"],
                       capture_output=True, env=_src_env(), timeout=60)
        for module in ("lenshf", "lenshf.cli")
    ]
    assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr.decode()
    assert runs[0].stdout == runs[1].stdout and b"L(7,3)" in runs[0].stdout


def test_table_into_a_closed_pipe_prints_no_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "lenshf.cli", "table", "400"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    assert proc.stdout.readline() == b"2\t1\t2\t1\n"
    proc.stdout.close()  # as `head -1` does
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == lenshf.cli.EXIT_BROKEN_PIPE
    assert err == b"", err.decode()  # no BrokenPipeError traceback


def test_table_rows_match_single_space_analysis(capsys):
    _, out, _ = run_cli(capsys, "table", "60")
    expected = []
    for p in range(2, 61):
        for q in range(1, p):
            if gcd(p, q) == 1:
                count, cert = minimal_planar_boundaries(LensSpace(p, q))
                expected.append(f"{p}\t{q}\t{count}\t{cert.det}")
    assert out.splitlines() == expected


def test_import_loads_no_numpy():
    # the package has no runtime dependency; numpy serves the test suite alone
    src = os.path.dirname(os.path.dirname(lenshf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, lenshf, lenshf.cli, lenshf.oracle; "
        "assert 'numpy' not in sys.modules, 'numpy imported'"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    # the records are named tuples, so the CLI's cold start skips dataclasses
    # and the inspect/ast/dis it imports; oracle loads with its subcommand
    # only, and json with the options and functions that serialize
    code = (
        "import sys; before = set(sys.modules); import lenshf.cli; "
        "gained = {'dataclasses', 'inspect', 'json', 'lenshf.oracle'} & (set(sys.modules) - before); "
        "assert not gained, f'import lenshf.cli loaded {sorted(gained)}'"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    # every record is a collections.namedtuple subclass, so the package needs
    # no typing; -S keeps site's .pth hooks from importing it first
    code = "import sys, lenshf.cli; assert 'typing' not in sys.modules, 'typing imported'"
    subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True, timeout=60)


# --- verify ------------------------------------------------------------------

def test_verify_round_trip(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "analyze", "5", "2", "--json", "--trace")
    path = tmp_path / "cert.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and "ok" in out


def test_verify_tampered_det_exit_1(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "analyze", "5", "2", "--json")
    data = json.loads(out)
    data["det"] = "2"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "stored 2" in out and "recomputed 1" in out


def test_verify_tampered_witness_exit_1(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "analyze", "5", "2", "--json")
    data = json.loads(out)
    data["t"][1] = "-8"  # break the witness but keep the JSON well-formed
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1


def test_verify_certificate_marked_invalid_exit_1(tmp_path, capsys):
    # the stored det matches, but the certificate does not claim a witness
    for p, q, a, t, det in (("5", "2", "0", "0", "0"), ("7", "3", "3", "-4", "-1")):
        data = {"p": p, "q": q, "n": "1", "a": [a], "t": [t], "l": [["0"]],
                "det": det, "valid": False}
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1, p
        assert f"L({p},{q}) is not a witness: determinant {det}" in out, p


def test_verify_truncated_json_exit_65(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"p": "5", "q": ', encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 65


def test_verify_missing_file_exit_65(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 65


def test_verify_non_utf8_file_exit_65(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"p": "5", "q": "\xff"}')
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 65 and out == ""
    assert "malformed certificate" in err


def test_verify_json_nested_past_the_recursion_limit_exit_65(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 65 and out == ""
    assert "malformed certificate" in err


def test_verify_raw_integer_past_the_digit_limit_exit_65(tmp_path, capsys):
    path = tmp_path / "raw.json"
    path.write_text('{"p": ' + "7" * 5000 + ', "q": "2"}', encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 65 and out == ""
    assert "malformed certificate" in err


def test_verify_mismatch_with_an_oversized_determinant_exit_1(tmp_path, capsys):
    # entries under the 4300-digit str() limit whose determinant is far past it
    big = "9" * 4000
    data = {"p": big, "q": "2", "n": "1", "a": [big], "t": ["1"], "l": [["0"]],
            "det": "1", "valid": True}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "stored 1, recomputed <26577-bit integer>" in out


def _random_certificate(n, bound, seed):
    """A certificate JSON dict of size n with every entry in [-bound, bound]."""
    rng = random.Random(seed)
    l = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            l[i][j] = l[j][i] = rng.randint(-bound, bound)
    return {"p": str(bound | 1), "q": "1", "n": str(n),
            "a": [str(rng.randint(-bound, bound)) for _ in range(n)],
            "t": [str(rng.randint(-bound, bound)) for _ in range(n)],
            "l": [[str(v) for v in row] for row in l], "det": "1", "valid": True}


def test_verify_refuses_a_certificate_over_the_elimination_budget(tmp_path, capsys):
    # Bareiss took 7 s on the first and 0.7 s on the second before the budget
    for n, bound in ((240, 9), (60, 2**63)):
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(_random_certificate(n, bound, seed=n)), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", str(path))
        assert time.perf_counter() - start < 1.0, n
        assert code == 3 and out == "" and "above the verify budget" in err, n


def test_verify_elimination_budget_passes_moderate_certificates(tmp_path, capsys):
    # n = 100 with small entries, and n = 5 with entries at the 4300-digit limit
    for n, bound in ((100, 9), (5, 10**4299)):
        path = tmp_path / "moderate.json"
        path.write_text(json.dumps(_random_certificate(n, bound, seed=n)), encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1 and "determinant mismatch" in out, n


def test_verify_non_decimal_integer_string_exit_65(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "analyze", "7", "3", "--json")
    for p in ("0_7", "\u0667"):  # int() reads both, and the Arabic-Indic digit seven, as 7
        path = tmp_path / "p.json"
        path.write_text(out.replace('"p": "7"', f'"p": "{p}"'), encoding="utf-8")
        code, stdout, err = run_cli(capsys, "verify", str(path))
        assert code == 65 and stdout == "" and "malformed certificate" in err, p


def test_verify_missing_field_exit_65(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text('{"p": "5", "q": "2"}', encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 65


def test_verify_bad_lens_exit_2(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "analyze", "5", "2", "--json")
    data = json.loads(out)
    data["q"] = "5"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2


# --- oracle ------------------------------------------------------------------

def test_oracle_qr(capsys):
    code, out, _ = run_cli(capsys, "oracle", "qr", "2", "7")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "oracle", "qr", "3", "7")
    assert code == 0 and out.strip() == "false"


def test_oracle_n2(capsys):
    code, out, _ = run_cli(capsys, "oracle", "n2", "7", "3")
    assert code == 0 and out.strip() == "a=3 t=-4"
    code, out, _ = run_cli(capsys, "oracle", "n2", "5", "2")
    assert code == 0 and out.strip() == "none"


def test_oracle_n3(capsys):
    code, out, _ = run_cli(capsys, "oracle", "n3", "3", "1", "0")
    assert code == 0 and out.strip() == "none"
    code, out, _ = run_cli(capsys, "oracle", "n3", "5", "2", "7")
    assert code == 0 and out.startswith("a=")


def test_oracle_form(capsys):
    code, out, _ = run_cli(capsys, "oracle", "form", "1", "0", "1", "2", "5")
    assert code == 0 and out.strip() == "x=1 y=1"
    code, out, _ = run_cli(capsys, "oracle", "form", "1", "0", "1", "3", "50")
    assert code == 0 and out.strip() == "none"


def test_oracle_domain_error(capsys):
    code, _, err = run_cli(capsys, "oracle", "n2", "6", "3")
    assert code == 2
