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
from lenshf.solver import Q_BRANCH, minimal_planar_boundaries, solve_n2, solve_n3, table_rows
from lenshf.witness import certificate_from_json, pad, verify
from oracle import brute_is_prime, brute_least_roots, brute_qr


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
    # none of factor's methods can do within numtheory.FACTOR_EFFORT
    p = (10**24 + 49) * (10**24 + 121)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", str(p), "7")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "3 boundary components" in out


def test_analyze_count_three_of_an_unfactorable_p_by_a_found_divisor(capsys):
    # (±7|p) = +1, but the first split (Pollard p-1: 1000033 - 1 is smooth)
    # leaves 1000033 and d = (10^24+49)(10^24+121) with (±7|d) = -1, which
    # decides count 3 without splitting d, which neither p-1 nor ECM can do
    # within numtheory.FACTOR_EFFORT
    p = 1000033 * (10**24 + 49) * (10**24 + 121)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", str(p), "7")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "3 boundary components" in out


def test_analyze_p_split_by_williams_p_plus_1(capsys, count_calls):
    # p = P1*P2 of 59 and 61 bits, neither P - 1 smooth, so ECM makes the
    # split (_ecm returns only with one), where Pollard-Brent, ECM's
    # predecessor, exhausted numtheory.FACTOR_EFFORT.  The name is kept from
    # the method that split p before ECM, so that the test id stays the same.
    calls = count_calls(lenshf.numtheory, "_ecm")
    p = 582384188893186237 * 2280771146087475637
    code, out, _ = run_cli(capsys, "analyze", str(p), "500945596517612812943455832667575940")
    assert code == 0 and "2 boundary components" in out
    assert calls["_ecm"] == 1


def test_analyze_p_that_is_the_square_of_a_44_bit_prime(capsys):
    # p = P² with P = 17104490322097 and (5|p) = 1, so p must be factored;
    # factor splits a square by isqrt, before either of its methods
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", "292563589178709934806477409", "5")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "3 boundary components" in out and "determinant: -1" in out


def test_analyze_p_that_is_the_product_of_two_44_bit_primes(capsys):
    # p = 17104490322097 * 15473270770753, both primes ≡ 1 (mod 4) with
    # (5|P) = -1, so (±5|p) = +1 and p must be factored; neither P - 1 is
    # within p-1's reach, and ECM splits p where Pollard-Brent exhausted
    # numtheory.FACTOR_EFFORT
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", "264662410149531076417229041", "5")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "3 boundary components" in out and "determinant: -1" in out


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
    code, _, err = run_cli(capsys, "oracle", "qr", "2", "7")
    assert code == 64 and "invalid choice" in err and "oracle" in err


def test_readme_documents_exactly_the_subcommands():
    (subparsers,) = [a for a in lenshf.cli.build_parser()._actions if a.dest == "command"]
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        documented = [line.split()[2] for line in fh if line.startswith("### `lenshf ")]
    assert sorted(documented) == sorted(subparsers.choices)


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
        assert count2 + count3 == phi, p
        assert count2 == phi // roots_of_one * (1 if brute_qr(-1, p) else 2), p
    # the rows as well as the counts, at no extra run
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dc46386f40848d819e2f9c87465ead837f265d8c165adcfcf5a17b98a231e17d"
    )


def test_table_square_criterion_agrees_with_solve_n2_per_q():
    # solve_n2 without fact decides by Jacobi symbols and a factor() that may
    # stop early, independently of the unit squares the table lists per p
    for p in range(2, 301):
        squares = brute_least_roots(p).keys()
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


def test_table_jsonl_summary_golden_digest(capsys):
    # the bytes of table 100 --jsonl --summary: 3,142 lines, one write each
    code, out, _ = run_cli(capsys, "table", "100", "--jsonl", "--summary")
    assert code == 0 and out.count("\n") == 3142
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5e2f9b280d1bd752a7562b85ade13c83091ad3639961c0dc94a7975b90ae4048"
    )


def test_table_rejects_small_pmax(capsys):
    code, _, err = run_cli(capsys, "table", "1")
    assert code == 2


def test_table_factors_each_p_once_and_verifies_each_row_once(capsys, count_calls):
    counter = {"factor": 0, "verify": 0}
    count_calls(lenshf.solver, "factor", counter)
    count_calls(lenshf.solver, "verify", counter)
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


def test_table_runs_solve_n2_on_count_two_rows_only_and_every_traced_layer(capsys, count_calls):
    modules = (lenshf.cli, lenshf.solver, lenshf.numtheory, lenshf.lens, lenshf.quadform, lenshf.witness)
    counter = dict.fromkeys(_SWEEP_LAYERS, 0)
    for name in _SWEEP_LAYERS:  # wrap each module's binding, so every call counts once
        original = next(vars(m)[name] for m in modules if name in vars(m))
        for module in modules:
            if vars(module).get(name) is original:
                count_calls(module, name, counter)
    code, out, _ = run_cli(capsys, "table", "30")
    assert code == 0
    counts = [line.split("\t")[2] for line in out.splitlines()]
    # Of the 191 count-2 rows, 71 are those where only p - q is a square,
    # built from the least root of q*a^2 ≡ -1 in the per-p map; the solver
    # runs on the other 120, each at its own turn.  Of the 86 count-3 rows, 37 are
    # Bezout partners built from their partner's prime shift, 8 of them at
    # their own candidate, a prime ≡ 3 (mod 4) at the shared shift; the other
    # 49 are 12 self-partners and 37 first rows of a pair.
    assert (counts.count("2"), counts.count("3")) == (191, 86)
    assert (counter["solve_n2"], counter["solve_n3"]) == (120, 49)
    assert counter["verify"] == len(counts)
    assert [name for name, calls in counter.items() if calls == 0] == []


def test_table_finds_every_root_it_seeks_and_shifts_only_rows_solved_alone(capsys, monkeypatch):
    # count-2 rows run the solver on their square side, so no δ = +1 attempt
    # fails; a count-3 row searches for a shift only when its Bezout partner
    # r = -q^{-1} mod p is not an earlier row
    roots, shifts = [], []
    sqrt_mod, find_prime_shift = lenshf.solver.sqrt_mod, lenshf.solver.find_prime_shift
    monkeypatch.setattr(lenshf.solver, "sqrt_mod", lambda *a: roots.append(sqrt_mod(*a)) or roots[-1])
    monkeypatch.setattr(lenshf.solver, "find_prime_shift",
                        lambda *a: shifts.append(a) or find_prime_shift(*a))
    code, out, _ = run_cli(capsys, "table", "200")
    assert code == 0
    rows = [tuple(map(int, line.split("\t")[:3])) for line in out.splitlines()]
    alone = sum(1 for p, q, count in rows if count == 3 and p - pow(q, -1, p) >= q)
    assert roots and None not in roots
    assert len(shifts) == alone


def _record_solved(monkeypatch):
    """The list of spaces that table hands to either solver, filled as it runs."""
    solved = []
    for name in ("minimal_planar_boundaries", "solve_n3"):
        fn = getattr(lenshf.solver, name)
        monkeypatch.setattr(lenshf.solver, name,
                            lambda lens, fn=fn, **kwargs: solved.append(lens) or fn(lens, **kwargs))
    return solved


def test_table_solves_each_row_at_its_own_turn(monkeypatch):
    # every solver call made before a row is written is on that row's space
    solved = _record_solved(monkeypatch)

    class Rows:
        def write(self, line):
            p, q = map(int, line.split("\t")[:2])
            assert set(solved) <= {LensSpace(p, q)}, (p, q, solved)
            solved.clear()

    monkeypatch.setattr(sys, "stdout", Rows())
    assert main(["table", "60"]) == 0


def test_table_count_two_row_the_solver_denies_exit_3(capsys, monkeypatch):
    # L(2,1) comes first, and 1 is a square mod 2
    monkeypatch.setattr(lenshf.solver, "minimal_planar_boundaries",
                        lambda lens, fact=None: (3, solve_n3(lens)))
    code, out, err = run_cli(capsys, "table", "5")
    assert code == 3 and out == ""
    assert "integrity failure: L(2,1)" in err


def test_each_answer_and_each_verify_evaluates_one_determinant(count_calls):
    # the traced benchmark requires witness.det_exact calls on every workload
    counter = {"det_exact": 0}
    count_calls(lenshf.witness, "det_exact", counter)
    for p, q, count in ((5, 4, 2), (5, 2, 3)):
        counter["det_exact"] = 0
        assert minimal_planar_boundaries(LensSpace(p, q))[0] == count
        assert counter == {"det_exact": 1}, (p, q)
    w = minimal_planar_boundaries(LensSpace(5, 2))[1].witness
    w = pad(pad(pad(w)))
    counter["det_exact"] = 0
    assert w.n == 5 and verify(LensSpace(5, 2), w).valid
    assert counter == {"det_exact": 1}


def test_removed_search_flags_exit_64_before_any_work(capsys, count_calls):
    # the prime-search cap is a module constant, and primality takes no round count
    counter = {"factor": 0, "minimal_planar_boundaries": 0}
    count_calls(lenshf.solver, "factor", counter)
    for module in (lenshf.cli, lenshf.solver):  # analyze calls cli's binding, table solver's
        count_calls(module, "minimal_planar_boundaries", counter)
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


def test_table_row_certificates_equal_single_space_certificates_up_to_300():
    # the rows built from a partner row's work carry the witness, det and
    # trace that solving them alone gives; the walk covers every case in
    # which a row must not borrow
    self_partners = both_squares = own_prime = 0
    for p in range(2, 301):
        squares = brute_least_roots(p).keys()
        certs = {}
        for q, count, cert in table_rows(p):
            assert (count, cert) == minimal_planar_boundaries(LensSpace(p, q)), (p, q)
            certs[q] = cert
        for q, cert in certs.items():
            if cert.trace is None:
                both_squares += q < p - q and q in squares and p - q in squares
                continue
            r = p - pow(q, -1, p)
            if r == q:
                self_partners += 1
            elif r > q and cert.trace.branch == Q_BRANCH:
                cand = r + cert.trace.k * p
                if cand % 4 == 3 and brute_is_prime(cand):
                    own_prime += 1
                    assert certs[r].trace.q_prime == cand, (p, q)
    assert self_partners and both_squares and own_prime


def test_table_verifies_rows_built_from_their_partner(capsys, monkeypatch):
    # L(7,6) and L(7,3) are built from the per-p map of least roots: 1 and 4
    # are squares mod 7, 6 and 3 are not, so neither row runs the solver.
    # L(13,6) is the Bezout partner of L(13,2): both take the prime 19 at
    # shift 1.  L(13,11) is that of L(13,7), which hit at 7 on its q-branch;
    # 11 is a prime ≡ 3 (mod 4) too, so L(13,11) takes it at the same shift.
    solved = _record_solved(monkeypatch)
    for p, q, partner in ((7, 6, 1), (7, 3, None), (13, 6, 2), (13, 11, 7)):
        def wrong_for_one_row(lens, w, bad=LensSpace(p, q)):
            cert = verify(lens, w)
            return cert._replace(det=cert.det + 2) if lens == bad else cert

        monkeypatch.setattr(lenshf.solver, "verify", wrong_for_one_row)
        solved.clear()
        code, out, err = run_cli(capsys, "table", str(p))
        assert code == 3 and out.splitlines()[-1].startswith(f"{p}\t{q - 1}\t"), (p, q)
        assert f"integrity failure: witness for L({p},{q}) has det" in err
        assert LensSpace(p, q) not in solved
        assert partner is None or LensSpace(p, partner) in solved


def test_import_loads_no_numpy():
    # the package has no runtime dependency; numpy serves the test suite alone
    env = _src_env()
    code = (
        "import sys, lenshf, lenshf.cli; "
        "assert 'numpy' not in sys.modules, 'numpy imported'"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    # the records are named tuples, so the CLI's cold start skips dataclasses
    # and the inspect/ast/dis it imports, and loads json only with the
    # options and functions that serialize
    code = (
        "import sys; before = set(sys.modules); import lenshf.cli; "
        "gained = {'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before); "
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
