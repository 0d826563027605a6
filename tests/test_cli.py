"""CLI surface: flags, exit codes, CSV/JSON formats."""

from __future__ import annotations

import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import pkgutil
import signal
import subprocess
import sys

import pytest

import atlab
from atlab import _jsontext, bounds, torus
from atlab.cli import main
from atlab.numerics import TAU_Y_MAX, UpperHalfPoint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_genus2(capsys):
    code, out, _ = run(capsys, "bound", "--genus", "2", "--form", "exact",
                       "--area", "c36")
    assert code == 0
    assert "17.8770835427" in out


def test_bound_genus2_json_roundtrip(capsys):
    code, out, _ = run(capsys, "bound", "--genus", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 2
    assert abs(payload["upper_exact"] - 17.877083542725214) < 1e-9
    assert payload["upper_bound"] == payload["upper_exact"]
    assert json.loads(json.dumps(payload)) == payload


def test_bound_genus1_redirects_to_elliptic(capsys):
    code, _, err = run(capsys, "bound", "--genus", "1")
    assert code == 2
    assert "elliptic" in err


def test_bound_simplified_headline(capsys):
    code, out, _ = run(capsys, "bound", "--genus", "11", "--form", "simplified")
    assert code == 0
    assert "9.85728551271" in out


def test_elliptic_values(capsys):
    code, out, _ = run(capsys, "elliptic", "--tau", "0,1")
    assert code == 0
    assert "0.255844644916" in out    # arakelov_logdet
    assert "1.22201039817" in out     # upper bound
    assert "0.966165753" in out       # slack


def test_elliptic_json_golden_hexagonal(capsys):
    # Golden output at the hexagonal point, cross-checked against a 30-digit
    # evaluation of the closed forms when frozen.
    code, out, _ = run(capsys, "elliptic", "--tau", "0.5,0.866025403784", "--json")
    assert code == 0
    payload = json.loads(out)
    golden = json.loads(
        (pathlib.Path(__file__).parent / "data" / "elliptic_hex_golden.json")
        .read_text())
    assert set(payload) == set(golden)
    assert payload["tau"] == golden["tau"]
    for key in ("arakelov_area", "log_arakelov_area", "arakelov_logdet",
                "d_ar", "upper_bound_log", "bound_slack"):
        assert abs(payload[key] - golden[key]) <= 1e-12 * max(1.0, abs(golden[key]))
    assert abs(payload["bound_slack"]
               - (payload["upper_bound_log"] - payload["arakelov_logdet"])) < 1e-12


def test_elliptic_domain_errors(capsys):
    assert run(capsys, "elliptic", "--tau", "0,-1")[0] == 2
    assert run(capsys, "elliptic", "--tau", "zzz")[0] == 2
    assert run(capsys, "elliptic", "--tau", "1;2")[0] == 2


def test_torus_det_both(capsys):
    code, out, _ = run(capsys, "torus-det", "--tau", "0,1", "--method", "both")
    assert code == 0
    assert "-1.054688281" in out
    assert "logdet_oracle" in out


def test_torus_det_closed_only(capsys):
    code, out, _ = run(capsys, "torus-det", "--tau", "0,1", "--method", "closed")
    assert code == 0
    assert "oracle" not in out


def test_torus_det_shift_invariance(capsys):
    _, out_a, _ = run(capsys, "torus-det", "--tau", "1,1", "--method", "closed")
    _, out_b, _ = run(capsys, "torus-det", "--tau", "0,1", "--method", "closed")
    assert out_a == out_b
    # D_Ar is computed at the exactly reduced point alone: 1024i and its image
    # i/1024 give the same bits.
    d_ar = [json.loads(run(capsys, "elliptic", "--tau", tau, "--json")[1])["d_ar"]
            for tau in ("0,1024", "0,0.0009765625")]
    assert d_ar[0].hex() == d_ar[1].hex()


def test_torus_det_tolerance_exit(capsys, monkeypatch):
    # --method both exits 1 exactly when |difference| > torus.AGREEMENT_TOL
    # max(1, |logdet_closed|).  At tau = 1e308 + i the two routes differ by one
    # ulp (-2.2e-16 on x86-64): a constant just below that gap fails, one just
    # above it passes, and each prints the three lines first.
    cmp = torus.compare_logdet(UpperHalfPoint(1e308, 1.0))
    edge = abs(cmp.difference) / max(1.0, abs(cmp.logdet_closed))
    assert edge > 0.0
    for factor, want in ((1.0 - 1e-9, 1), (1.0 + 1e-9, 0)):
        monkeypatch.setattr(torus, "AGREEMENT_TOL", edge * factor)
        code, out, err = run(capsys, "torus-det", "--tau", "1e308,1")
        assert code == want and out.count("\n") == 3, factor
        assert err == ("FAIL |difference| > %g max(1, |closed|)\n" % (edge * factor)
                       if want else ""), factor


@pytest.mark.parametrize("tau", [(-0.05514581127414642, 0.6378553829473124), (1e308, 1.0)])
def test_torus_det_exit_judges_the_relative_gap_as_cl18_does(capsys, monkeypatch, tau):
    # --method both and CL-18 read one rule, DetComparison.relative_gap <=
    # AGREEMENT_TOL.  At the first tau, |difference| > gap max(1, |closed|)
    # holds in floats although the gap itself equals the constant.
    gap = torus.compare_logdet(UpperHalfPoint(*tau)).relative_gap
    assert gap > 0.0
    for tol, want in ((gap, 0), (math.nextafter(gap, 0.0), 1)):
        monkeypatch.setattr(torus, "AGREEMENT_TOL", tol)
        code, out, _ = run(capsys, "torus-det", f"--tau={tau[0]!r},{tau[1]!r}")
        assert (code, out.count("\n")) == (want, 3), tol


def test_torus_det_oracle_domain(capsys):
    # 0 + 1e-4i reduces to 1e4 i, the top of the oracle's domain (reduced y' <= 1e4).
    code, out, _ = run(capsys, "torus-det", "--tau", "0,1e-4", "--method", "oracle")
    assert code == 0
    oracle = float(out.split()[1])
    _, out, _ = run(capsys, "torus-det", "--tau", "0,1e-4", "--method", "closed")
    closed = float(out.split()[1])
    assert abs(oracle - closed) <= 1e-11 * abs(closed)  # both printed to 12 digits


def test_torus_det_refuses_taus_outside_the_oracle_domain(capsys):
    # Exit 2 with one error line: 1e300 used to hit numpy's array size limit,
    # and a reduced y' past 1e4 (0 + 9e-5i reduces to 11111i) to run the oracle
    # unverified.  The closed form still runs.
    for tau in ("0.3,1e300", "0,1e5", "0,9e-5"):
        for method in ("oracle", "both"):
            code, out, err = run(capsys, "torus-det", f"--tau={tau}", "--method", method)
            assert code == 2, (tau, method)
            routine = "logdet_oracle" if method == "oracle" else "compare_logdet"
            point = UpperHalfPoint(*map(float, tau.split(",")))
            assert out == "" and err == (f"error: {routine}(tau={point!r}): "
                                         "needs a reduced y' <= 10000\n"), (tau, method)
        assert run(capsys, "torus-det", f"--tau={tau}", "--method", "closed")[0] == 0, tau
    done = subprocess.run([sys.executable, "-m", "atlab.cli", "torus-det", "--tau", "0,1e5"],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_torus_det_takes_any_finite_x_mod_1(capsys):
    # The lattice of tau + k is the lattice of tau: x = +-1e308 (n x once
    # overflowed in the Q enumeration) prints exactly the output at x = 0.
    for method in ("closed", "oracle", "both"):
        want = run(capsys, "torus-det", "--tau", "0,1", "--method", method)
        assert want[0] == 0
        for tau in ("1e308,1", "-1e308,1"):
            assert run(capsys, "torus-det", f"--tau={tau}", "--method", method) == want, (tau, method)


def test_y_past_pi_y_overflow_exits_2(capsys):
    # pi y overflows above sys.float_info.max / pi: the closed form once
    # printed -inf there, and elliptic blamed an underflowing area.
    for argv in (("torus-det", "--tau", "0.3,1e308", "--method", "closed"),
                 ("torus-det", "--tau", "0.3,1e308"), ("elliptic", "--tau", "0.3,1e308")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == (f"error: UpperHalfPoint(x=0.3, y=1e+308): needs finite x and "
                       f"0 < y <= {TAU_Y_MAX!r}\n"), argv


def test_table_csv(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, _, _ = run(capsys, "table", "--from", "2", "--to", "12",
                     "--csv", str(path))
    assert code == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["genus", "heat_term", "csel_lower", "log_area_bound",
                       "a_g", "e_g_refined", "upper_exact", "upper_simplified",
                       "paper_value", "delta"]
    assert len(rows) == 1 + 11
    by_genus = {row[0]: row for row in rows[1:]}
    assert by_genus["2"][8] == "18.01100181"
    assert abs(float(by_genus["2"][9]) - (-0.133918)) < 1e-5
    assert by_genus["11"][8] == "" and by_genus["11"][9] == ""
    # locale-independent, 12 significant digits
    for row in rows[1:]:
        for cell in row[1:8]:
            assert "," not in cell
            assert len(cell.replace("-", "").replace(".", "").replace("e", "")) <= 13
    assert float(by_genus["3"][6]) == float(f"{9.95356716139:.12g}")


def test_table_json(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, _, _ = run(capsys, "table", "--from", "2", "--to", "3",
                     "--json", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert [row["genus"] for row in payload] == [2, 3]
    assert payload[0]["paper_value"] == 18.01100181
    assert set(payload[0]) == {"genus", "heat_term", "csel_lower",
                               "log_area_bound", "a_g", "e_g_refined",
                               "upper_exact", "upper_simplified",
                               "paper_value", "delta"}


def test_table_json_writer_is_json_dump_across_blocks(monkeypatch):
    # Two records a block here, so 0..5 records cover no block, one, a full
    # last block and a partial one; the leaves include text json must escape.
    monkeypatch.setattr(_jsontext, "_BLOCK", 2)
    keys = ("genus", "k\u00e9y", "quo\"te", "{x}")
    leaves = [2, -0.0, float("nan"), float("inf"), None, "\x1f, \\\n", "\u2264", True]
    for count in range(6):
        records = [tuple(leaves[(i + k) % len(leaves)] for k in range(4)) for i in range(count)]
        got, want = io.StringIO(), io.StringIO()
        _jsontext.dump_object_array(got, keys, iter(records))
        json.dump([dict(zip(keys, rec)) for rec in records], want, indent=2)
        assert got.getvalue() == want.getvalue(), count


def test_object_writer_is_json_dumps_whatever_the_keys_and_values_hold():
    # Each object is one %-format of a template built from the keys, so a %
    # or a brace in a key, or a % or a brace in a value's text, must come out
    # as written.  Nested `depth` levels deep, json.dumps(indent=2) indents
    # every line after the first by two spaces a level.
    values = ["%s", "%%", "{}", "%(x)s {0}", 1.5, None, "\u00e9%"]
    for keys in (("pct%", "{open", "close}", "quo\"te", "k\u00e9y%s"), ("%",), ("{}",)):
        objs = [dict(zip(keys, values[i:] + values[:i])) for i in range(3)]
        texts = [json.dumps(v) for obj in objs for v in obj.values()]
        for depth in (0, 1, 2):
            want = [json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth) for obj in objs]
            assert _jsontext.object_writer(keys, depth)(texts) == want, (keys, depth)


def test_table_csv_and_json_both_written(tmp_path, capsys):
    csv_path, json_path = tmp_path / "a.csv", tmp_path / "b.json"
    code, out, err = run(capsys, "table", "--from", "2", "--to", "3",
                         "--csv", str(csv_path), "--json", str(json_path))
    assert (code, out, err) == (0, "", "")
    alone = tmp_path / "alone"
    alone.mkdir()
    for flag, path in (("--csv", csv_path), ("--json", json_path)):
        assert run(capsys, "table", "--from", "2", "--to", "3",
                   flag, str(alone / path.name)) == (0, "", "")
        assert path.read_bytes() == (alone / path.name).read_bytes()
    # --form changes no row.
    for form in ("exact", "simplified"):
        assert run(capsys, "table", "--from", "2", "--to", "40", "--form", form,
                   "--csv", str(tmp_path / f"{form}.csv")) == (0, "", "")
    assert (tmp_path / "exact.csv").read_bytes() == (tmp_path / "simplified.csv").read_bytes()


def _golden_commands():
    """The command lines whose output bytes are frozen."""
    windows = [(("--from", str(lo), "--to", str(hi)),)
               for lo, hi in ((2, 3580), (9, 12), (3570, 3590))]
    windows += [(("--from", str(2**53 - 20), "--to", str(2**53)), ("--area", area))
                for area in ("e4pi", "c36")]
    for window in windows:
        flags = sum(window, ())
        for out in ((), ("--csv", "t.csv"), ("--json", "t.json")):
            yield ("table",) + flags + out
    for genus in (2, 11, 3580, 2**53):
        for flags in ((), ("--form", "simplified", "--area", "e4pi")):
            for out in ((), ("--json",)):
                yield ("bound", "--genus", str(genus)) + flags + out
    yield ("verify-claims",)
    yield ("verify-claims", "--only", "CL-05,CL-12")
    yield ("verify-claims", "--strict", "--json", "t.json")
    yield ("elliptic", "--tau", "0.3,1.7")
    yield ("elliptic", "--tau", "0.3,1.7", "--json")
    for tau in ("0.3,1.7", "0.5,0.8660254037844386", "0,1"):
        for method in ("closed", "oracle", "both"):
            yield ("torus-det", "--tau", tau, "--method", method)
    # the corners i and rho, y near the cusp, and y = 1e4 and 1e-4
    yield ("elliptic", "--tau", "0,1")
    yield ("elliptic", "--tau", "0.5,0.8660254037844386", "--json")
    yield ("elliptic", "--tau", "0.3,9999", "--json")
    yield ("torus-det", "--tau", "0.3,1e4", "--method", "both")
    yield ("torus-det", "--tau", "0.5,1e-4", "--method", "both")
    for command in ("bound", "elliptic", "torus-det", "verify-claims"):
        yield (command, "--help")
    # the full parser, built when argv does not start with a subcommand: no
    # argument, its help, help before a command, an unknown command, and an
    # option before the command
    yield ()
    yield ("--help",)
    yield ("-h", "torus-det")
    yield ("bogus",)
    yield ("--tau=0,1", "torus-det")
    # exit 2: usage and domain errors, their stderr included
    yield ("elliptic", "--tau", "1_0,1")
    yield ("elliptic", "--tau", "0,1e308")
    yield ("bound", "--genus", "1")
    yield ("table", "--from", "5", "--to", "2")
    yield ("table", "--from", "2", "--to", "100002")
    # the row cap, and the help text that documents the table's flags
    yield ("table", "--from", "2", "--to", "100001", "--csv", "t.csv")
    yield ("table", "--help")
    yield ("verify-claims", "--only", "CL-99")
    # the area underflow, a point near the cusp, the oracle's lowest y in the
    # closed form, x far from 0, and a single bound with no other flag
    yield ("elliptic", "--tau", "0,2000")
    yield ("elliptic", "--tau=-0.4972609819432181,0.0010632024231741785", "--json")
    yield ("torus-det", "--tau", "0,1e-4", "--method", "closed")
    yield ("torus-det", "--tau", "1e308,1")
    yield ("bound", "--genus", "77")
    yield ("bound", "--genus", "77", "--json")
    # both files from one call
    yield ("table", "--from", "2", "--to", "40", "--csv", "t.csv", "--json", "t.json")
    # the exact reduction near the real axis: a y' the float loop lost, a
    # y' of 1e300, a y' past TAU_Y_MAX (exit 2) and an area underflow there
    yield ("torus-det", "--tau", "0.1234567,1e-20", "--method", "closed")
    yield ("torus-det", "--tau", "0,1e-300", "--method", "closed")
    yield ("torus-det", "--tau", "0,5e-324", "--method", "closed")
    yield ("elliptic", "--tau", "0,1e-300")
    # the oracle below y = 1e-4, at a reduced y' of about 1000
    yield ("torus-det", "--tau=0.3,1e-5", "--method", "oracle")
    # exit 2: a well-formed --tau whose value is off the upper half-plane
    yield ("elliptic", "--tau=inf,1")
    yield ("elliptic", "--tau", "0,-1")
    yield ("torus-det", "--tau", "1e999,1", "--method", "closed")
    # exit 2: an empty output PATH fails to open, like any unwritable one
    yield ("table", "--from", "2", "--to", "3", "--csv", "")
    yield ("verify-claims", "--only", "CL-01", "--json", "")


GOLDEN = pathlib.Path(__file__).parent / "data" / "table_cli_sha256.json"


def cli_digests(workdir: pathlib.Path) -> dict:
    """SHA-256 of stdout, stderr and each written file, per command line."""
    digests = {}
    for argv in _golden_commands():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([str(workdir / a) if a.startswith("t.") else a for a in argv])
        entry = {"exit": code}
        for name, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
            entry[name] = hashlib.sha256(text.encode()).hexdigest()
        for name in argv:
            if name.startswith("t."):
                entry[name] = hashlib.sha256((workdir / name).read_bytes()).hexdigest()
                (workdir / name).unlink()
        digests[" ".join(argv)] = entry
    return digests


def test_table_and_bound_bytes_match_the_frozen_digests(tmp_path):
    # The table windows cross the 10/11 and 3579/3580 annotation changes and
    # end at 2**53.  CHANGES.md records why each entry was refrozen.  The
    # file is the exact text tests/regen_cli_digests.py writes, and that
    # script's import of this module still resolves (tests/ is first on
    # sys.path under pytest, as it is when the script runs).
    import regen_cli_digests
    assert regen_cli_digests.GOLDEN == GOLDEN
    digests = cli_digests(tmp_path)
    assert digests == json.loads(GOLDEN.read_text())
    assert GOLDEN.read_text() == json.dumps(digests, indent=2) + "\n"


def test_child_processes_print_the_frozen_bytes():
    # main(None) reads sys.argv, which the in-process corpus never reaches:
    # the full parser's lines, the torus_sweep benchmark's two commands and a
    # domain error's one error: line.
    golden = json.loads(GOLDEN.read_text())
    for argv in (("--help",), ("bogus",), ("torus-det", "--tau", "0.3,1.7", "--method", "both"),
                 ("elliptic", "--tau", "0.3,1.7", "--json"), ("elliptic", "--tau", "0,2000")):
        done = subprocess.run([sys.executable, "-m", "atlab.cli", *argv], env=child_env(),
                              capture_output=True, timeout=120)
        entry = {"exit": done.returncode, "stdout": hashlib.sha256(done.stdout).hexdigest(),
                 "stderr": hashlib.sha256(done.stderr).hexdigest()}
        assert entry == golden[" ".join(argv)], argv


def test_golden_corpus_spans_every_subcommand_mode_and_exit_2():
    # The corpus is the one check of CLI bytes (CI runs it under two hash
    # seeds), so no subcommand, option value, output mode or exit-2 path may
    # drop out of it unnoticed.
    exits = {line: entry["exit"] for line, entry in json.loads(GOLDEN.read_text()).items()}
    commands = ("bound", "elliptic", "torus-det", "table", "verify-claims")
    corpus, full = [], {}  # lines led by a subcommand; the rest, by the full parser
    for argv in _golden_commands():
        if argv[:1] and argv[0] in commands:
            corpus.append((argv, exits[" ".join(argv)]))
        else:
            full[argv] = exits[" ".join(argv)]

    def spans(command, *words, code=0):
        return any(argv[0] == command and exit_code == code and set(words) <= set(argv)
                   for argv, exit_code in corpus)

    assert {argv[0] for argv, _ in corpus} == set(commands)
    # no argument, the top-level help, an unknown command, an option first
    assert full[()] == 2 and full[("--help",)] == 0
    assert any(code == 2 and not argv[0].startswith("-") for argv, code in full.items() if argv)
    assert any(argv[0].startswith("-") and set(argv) & set(commands) for argv in full if argv)
    for command in commands:
        assert any(argv[0] == command and code == 0
                   and not {"--json", "--csv", "--help"} & set(argv)
                   for argv, code in corpus), command  # text output
        assert spans(command, code=2), command
    for command in ("bound", "elliptic", "table", "verify-claims"):
        assert spans(command, "--json"), command
    assert spans("table", "--csv")
    for method in ("closed", "oracle", "both"):
        assert spans("torus-det", "--method", method), method
    for area in bounds.AREA_VARIANTS:
        assert spans("bound", "--area", area) or spans("table", "--area", area), area
    assert spans("bound", "--form", "simplified")
    assert spans("verify-claims", "--only") and spans("verify-claims", "--strict")


def test_table_unwritable_path(capsys):
    # Not a usage error: one error line that names the path once, no usage block.
    code, out, err = run(capsys, "table", "--from", "2", "--to", "3",
                         "--csv", "/nonexistent-dir/out.csv")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write /nonexistent-dir/out.csv: ")
    assert err.count("\n") == 1 and err.count("/nonexistent-dir/out.csv") == 1
    assert "usage:" not in err


def test_table_bad_range(capsys):
    assert run(capsys, "table", "--from", "5", "--to", "3")[0] == 2
    assert run(capsys, "table", "--from", "1", "--to", "3")[0] == 2


def test_verify_claims_default(capsys):
    code, out, _ = run(capsys, "verify-claims")
    assert code == 0
    assert "summary:" in out
    assert "CL-05" in out and "CONFIRMED" in out


def test_verify_claims_only(capsys):
    code, out, _ = run(capsys, "verify-claims", "--only", "CL-05")
    assert code == 0
    assert out.count("CL-") == 1
    assert "CONFIRMED" in out


def test_verify_claims_only_without_ids_is_a_usage_error(capsys):
    # An empty selection would run no claim and pass --strict vacuously.
    for ids in (",", "", " , "):
        code, out, err = run(capsys, "verify-claims", "--only", ids, "--strict")
        assert code == 2, ids
        assert out == "" and err.count("usage:") == 1
        assert "--only names no claim id" in err


def test_verify_claims_unknown_id(capsys):
    code, out, err = run(capsys, "verify-claims", "--only", "CL-99")
    assert code == 2 and out == ""
    # a handler's usage error names its own subcommand, not the top-level parser
    assert err.startswith("usage: atlab verify-claims [-h]"), err
    assert err.endswith("atlab verify-claims: error: unknown claim ids: CL-99\n"), err


def test_verify_claims_strict_passes_with_shipped_allowlist(capsys):
    assert run(capsys, "verify-claims", "--strict")[0] == 0


def test_verify_claims_strict_fails_and_warns_on_a_stale_allowlist(monkeypatch, tmp_path, capsys):
    # CL-11 (DISCREPANT) drops out of the allowlist and CL-01 (CONFIRMED) goes
    # in: --strict exits 1 after the full report, which warns about CL-01, and
    # the --json file is still written.
    from atlab import claims
    monkeypatch.setattr(claims, "EXPECTED_DISCREPANT",
                        ("CL-01", "CL-12", "CL-14", "CL-19-statement"))
    path = tmp_path / "report.json"
    for argv in (("verify-claims", "--strict"),
                 ("verify-claims", "--strict", "--json", str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out.endswith(
            "warning: CL-01: listed in the expected-discrepant allowlist but CONFIRMED\n"
            "summary: confirmed=24  discrepant=4  assumed=1  ambiguous=1  errored=0\n")
        assert err == "strict: non-allowlisted discrepancies present\n"
    assert json.loads(path.read_text())["summary"]["discrepant"] == 4


def test_verify_claims_json_roundtrip(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify-claims", "--json", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["summary"]["errored"] == 0
    assert json.loads(json.dumps(payload)) == payload
    ids = [rec["id"] for rec in payload["claims"]]
    assert ids == sorted(ids, key=lambda s: [int(p) if p.isdigit() else p
                                             for p in __import__("re").split(r"(\d+)", s)])


def test_usage_errors(capsys):
    assert run(capsys, "bound")[0] == 2            # missing --genus
    assert run(capsys, "no-such-command")[0] == 2


def test_non_finite_tau_is_a_usage_error(capsys):
    for command in ("torus-det", "elliptic"):
        for tau in ("nan,1", "0,inf", "inf,1", "0,nan", "-inf,2"):
            code, out, err = run(capsys, command, f"--tau={tau}")
            assert code == 2, (command, tau)
            assert "finite" in err and out == ""


def test_tau_takes_only_ascii_decimal_literals(capsys):
    # float() alone would read 1_0 as 10, fullwidth or Arabic-Indic digits as
    # ASCII ones, and strip surrounding whitespace.
    for tau in ("1_0,1", "0.3,1_7", "\uff10.3,1.7", "0.3,\uff11", "\u0663,1", " 0.3,1.7",
                "0.3,1.7\n", "0x1,1", "1e,1", "0.3;1.7", "0.3,1.7,1"):
        for command in ("elliptic", "torus-det"):
            code, out, err = run(capsys, command, f"--tau={tau}")
            assert code == 2, (command, tau)
            assert out == "" and "two decimal literals" in err
    for tau in ("+0.3,+1.7", ".3,1.", "3e-1,17E-1", "-0.3,1.7"):
        assert run(capsys, "elliptic", f"--tau={tau}")[0] == 0, tau


def test_integer_options_take_only_ascii_decimal_integers(capsys):
    # int() alone would read the same spellings --tau refuses: 1_0 as 10,
    # fullwidth or Arabic-Indic digits as ASCII ones, and " 5 " as 5.
    for text in ("1_0", "\uff13", "\u0663", " 5 ", "5\n", "0x5", "5.0", "1e1", "+-5", "", "+"):
        for option, argv in (("--genus", ("bound", f"--genus={text}")),
                             ("--from", ("table", f"--from={text}", "--to", "3")),
                             ("--to", ("table", "--from", "2", f"--to={text}"))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (argv, err)
            assert err.startswith(f"usage: atlab {argv[0]} "), err
            assert err.endswith(f"error: argument {option}: invalid int value: {text!r}\n"), err
    for text in ("+5", "05", "5"):
        assert run(capsys, "bound", "--genus", text)[0] == 0, text
    code, out, _ = run(capsys, "table", "--from", "+2", "--to", "03")
    assert code == 0 and len(out.splitlines()) == 3


def test_negative_x_needs_the_equals_form(capsys):
    # argparse takes a lone "-0.3,1.7" for an option, so --tau needs "=".
    code, out, _ = run(capsys, "torus-det", "--tau=-0.3,1.7")
    assert code == 0 and out.startswith("logdet_closed")
    assert run(capsys, "torus-det", "--tau", "-0.3,1.7")[0] == 2
    for command in ("elliptic", "torus-det"):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and "write --tau=X,Y when x is negative" in " ".join(out.split())


def test_help_and_usage_text_ignore_the_terminal_width(capsys, monkeypatch):
    # argparse would wrap to COLUMNS (or the tty); the parser pins 78 columns.
    argvs = [("--help",), ("elliptic", "--tau", "1_0,1")]
    argvs += [(command, "--help") for command in
              ("bound", "elliptic", "torus-det", "table", "verify-claims")]
    outputs = []
    for columns in ("30", "200", None):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        outputs.append([run(capsys, *argv) for argv in argvs])
    assert outputs[0] == outputs[1] == outputs[2]
    assert [code for code, _, _ in outputs[0]] == [0, 2, 0, 0, 0, 0, 0]


def test_genus_beyond_float64_range_is_a_usage_error(capsys):
    assert run(capsys, "bound", "--genus", str(2**53 + 1))[0] == 2
    assert run(capsys, "bound", "--genus", str(2**53), "--json")[0] == 0
    assert run(capsys, "table", "--from", str(2**53 + 1),
               "--to", str(2**53 + 2))[0] == 2


def test_torus_det_takes_no_tol(capsys):
    # The agreement --method both checks is torus.AGREEMENT_TOL, which no
    # option sets: --tol is a usage error with every method and value.
    for method in ("closed", "oracle", "both"):
        for value in ("nan", "0", "1e-6"):
            code, out, err = run(capsys, "torus-det", "--tau", "0,1", "--method", method,
                                 "--tol", value)
            assert (code, out) == (2, ""), (method, value)
            assert "unrecognized arguments: --tol" in err, (method, value)
    assert "--tol" not in run(capsys, "torus-det", "--help")[1]


def test_unrecognized_arguments_are_reported_by_the_chosen_subcommand(capsys):
    # Wherever an unknown argument stands, the usage block and the error line
    # are the chosen subcommand's, as for every other usage error of it.
    for argv in (["bound", "--genus", "2"], ["elliptic", "--tau", "0.3,1.7"],
                 ["torus-det", "--tau", "0.3,1.7"], ["table", "--from", "2", "--to", "3"],
                 ["verify-claims", "--only", "CL-01"]):
        code, out, err = run(capsys, *argv, "--bogus", "1")
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"usage: atlab {argv[0]} "), err
        assert err.endswith(f"atlab {argv[0]}: error: unrecognized arguments: --bogus 1\n"), err
    code, out, err = run(capsys, "--bogus", "bound", "--genus", "2")
    assert (code, out) == (2, "")
    assert err.count("usage: ") == 1 and err.startswith("usage: atlab bound ")
    assert err.endswith("atlab bound: error: unrecognized arguments: --bogus\n")


def test_tau_underflowing_norm_exits_2(capsys):
    # The exact reduction takes any y whose reduced y' is at most TAU_Y_MAX:
    # at 1e-300 the closed form computes (elliptic's area underflows there);
    # at 1e-310 and 5e-324, 1/y' is past it, a domain error from both commands.
    assert run(capsys, "torus-det", "--tau", "0,1e-300", "--method", "closed")[0] == 0
    assert run(capsys, "torus-det", "--tau", "0.5,1e-300", "--method", "closed")[0] == 0
    for tau in ("0,1e-310", "0,5e-324", "0.5,5e-324"):
        point = UpperHalfPoint(*map(float, tau.split(",")))
        for argv, routine in ((("elliptic", "--tau", tau), "log_abs_eta"),
                              (("torus-det", "--tau", tau, "--method", "closed"), "d_ar_elliptic")):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == "" and err == (f"error: {routine}(tau={point!r}): "
                                         f"needs a reduced y' <= {TAU_Y_MAX!r}\n")
    code, out, err = run(capsys, "torus-det", "--tau", "0.1234567,1e-20", "--method", "closed")
    assert (code, out) == (0, "logdet_closed  -13.3907512381\n")
    # Both routes run at the exactly reduced point.
    code, out, err = run(capsys, "torus-det", "--tau", "0.1234567,1e-20", "--method", "both")
    assert (code, out.count("\n"), err) == (0, 3, "")


def test_elliptic_area_underflow_exits_2(capsys):
    # Reduced y = 2000 (and 1e150) puts Area_Ar below the normal doubles.
    for tau in ("0,2000", "0,1e-150"):
        code, out, err = run(capsys, "elliptic", "--tau", tau, "--json")
        assert code == 2
        point = UpperHalfPoint(*map(float, tau.split(",")))
        assert out == "" and err == (f"error: arakelov_area(tau={point!r}): "
                                     "needs log Area_Ar >= log(sys.float_info.min)\n")
    assert run(capsys, "elliptic", "--tau", "0,1000", "--json")[0] == 0


def test_table_window_limit_exits_2(capsys):
    code, out, err = run(capsys, "table", "--from", "2", "--to", str(2**53))
    assert code == 2
    assert out == "" and "at most 100000 rows" in err


def child_env() -> dict:
    src = str(pathlib.Path(atlab.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_no_atlab_function_imports_numpy():
    # atlab has no runtime dependency: no module or function imports numpy,
    # in any form.
    assert sorted(info.name for info in pkgutil.iter_modules(atlab.__path__)) == [
        "_jsontext", "bounds", "claims", "cli", "elliptic", "numerics", "torus"]
    importers = set()
    for path in pathlib.Path(atlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(f"{path.stem}:{node.lineno}")
    assert not importers


def test_numpy_free_commands_import_only_what_they_use(tmp_path):
    # Start-up is most of a bound or elliptic call, so no module serves a
    # single call site it does not reach.  Each command runs in a fresh
    # interpreter, measured against what a bare one already holds (site may
    # preload typing, re or enum).
    def loaded(code):
        done = subprocess.run([sys.executable, "-c", code + "import sys; print(*sys.modules)"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return set(done.stdout.split())

    bare = loaded("")
    never = {"dataclasses", "fractions", "decimal", "inspect", "numpy", "scipy"}
    text_bound_never = {"json", "csv", "atlab._jsontext", "atlab.elliptic"}
    window = ["table", "--from", "2", "--to", "12"]
    seen = set()
    for argv in (["bound", "--genus", "77"], ["bound", "--genus", "77", "--json"],
                 ["elliptic", "--tau", "0.3,1.7", "--json"],
                 ["torus-det", "--tau", "0.3,1.7", "--method", "closed"],
                 ["torus-det", "--tau", "0.3,1.7", "--method", "oracle"],
                 ["torus-det", "--tau", "0.3,1.7", "--method", "both"],
                 window, window + ["--csv", str(tmp_path / "t.csv")],
                 window + ["--json", str(tmp_path / "t.json")],
                 ["verify-claims", "--only", "CL-01,CL-17,CL-18"], ["verify-claims", "--strict"]):
        added = loaded("import contextlib, io\nfrom atlab.cli import main\n"
                       "with contextlib.redirect_stdout(io.StringIO()):\n"
                       f"    assert main({argv!r}) == 0\n") - bare
        assert "atlab.cli" in added
        assert not added & never, (argv, added & never)
        if argv == ["bound", "--genus", "77"]:
            assert not added & text_bound_never, added & text_bound_never
        # the parser holds only the subcommand argv starts with
        if argv[0] in ("elliptic", "torus-det"):
            assert "atlab.bounds" not in added, argv
        if argv[0] in ("bound", "table"):
            assert not added & {"atlab.torus", "atlab.claims"}, (argv, added)
        seen |= added
    # Between them the commands import every atlab module.
    assert {"atlab." + info.name for info in pkgutil.iter_modules(atlab.__path__)} <= seen


def test_closed_pipe_ends_quietly():
    # Like `atlab table --from 2 --to 3000 | head -1`: ~0.5 MB of rows, and the
    # reader leaves after the header.
    proc = subprocess.Popen(
        [sys.executable, "-m", "atlab.cli", "table", "--from", "2", "--to", "3000"],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().split()[0] == b"genus"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    if hasattr(signal, "SIGPIPE"):
        assert proc.returncode == -signal.SIGPIPE


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", (["bound", "--genus", "2"],
                                  ["table", "--from", "2", "--to", "3000"],
                                  ["--help"], ["bound", "--help"]))
def test_failed_stdout_write_exits_2_with_one_error_line(argv):
    # A write to a full device fails at main's flush for short output (help
    # text included) and inside print for ~0.5 MB of rows; either way one error
    # line, no traceback, with stdout buffered or not.  Under -X dev no
    # ResourceWarning follows it: nothing is left open.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    for flags, unbuffered in (((), "1"), ((), None), (("-X", "dev"), None)):
        child = dict(env, PYTHONUNBUFFERED=unbuffered) if unbuffered else env
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, *flags, "-m", "atlab.cli", *argv], env=child,
                                  stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
        assert done.returncode == 2, (flags, unbuffered, done.stderr)
        assert done.stderr.startswith("error: cannot write standard output: "), done.stderr
        assert done.stderr.count("\n") == 1, (flags, unbuffered, done.stderr)


@pytest.mark.parametrize("argv", (["bound", "--genus", "2"], ["--help"], ["bound", "--help"]))
def test_closed_stdout_exits_2_with_one_error_line(argv):
    # With fd 1 closed Python sets sys.stdout to None, and print drops what it
    # is given; main reports that as a failed write, with no traceback.
    done = subprocess.run([sys.executable, "-m", "atlab.cli", *argv], env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=120, preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (
        2, "error: cannot write standard output: Bad file descriptor\n")


_STDERR_CASES = (["elliptic", "--tau", "0,2000"], ["bound", "--genus", "1"])  # domain, usage


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", (*_STDERR_CASES, ["bound", "--genus", "2"]))
def test_failed_stderr_write_keeps_exit_2_and_stdout_empty(argv):
    # The error line cannot be written, so the exit code alone tells, buffered
    # or not; nothing goes to stdout instead.  bound --genus 2 runs with stdout
    # on /dev/full too: the line reporting that failure fails in turn.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    both_full = argv == ["bound", "--genus", "2"]
    for flags, unbuffered in (((), "1"), ((), None), (("-X", "dev"), None)):
        child = dict(env, PYTHONUNBUFFERED=unbuffered) if unbuffered else env
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, *flags, "-m", "atlab.cli", *argv], env=child,
                                  stdout=full if both_full else subprocess.PIPE, stderr=full,
                                  timeout=120)
        assert (done.returncode, done.stdout or b"") == (2, b""), (flags, unbuffered)


@pytest.mark.parametrize("argv", _STDERR_CASES)
def test_closed_stderr_keeps_exit_2_and_stdout_empty(argv):
    # With fd 2 closed Python sets sys.stderr to None, and print(file=None)
    # writes to stdout: the error line or usage block must not land there.
    done = subprocess.run([sys.executable, "-m", "atlab.cli", *argv], env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=120, preexec_fn=lambda: os.close(2))
    assert (done.returncode, done.stdout) == (2, b"")


class _FullStdout(io.StringIO):
    """A stdout whose write (or flush) fails as a full disk's does."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(28, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(28, "No space left on device")


@pytest.mark.parametrize("failing", ("write", "flush"))
@pytest.mark.parametrize("argv", (["bound", "--genus", "2"], ["--help"], ["bound", "--help"]))
def test_failed_stdout_write_in_process_keeps_the_callers_stdout(monkeypatch, capsys,
                                                                 argv, failing):
    # Called in process, main reports the failed write and returns 2; the
    # caller's sys.stdout is still the object it was.
    full = _FullStdout(failing)
    monkeypatch.setattr(sys, "stdout", full)
    assert main(argv) == 2
    assert sys.stdout is full
    assert capsys.readouterr().err == "error: cannot write standard output: " \
                                      "No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", (["table", "--from", "2", "--to", "3", "--csv", "/dev/full"],
                                  ["table", "--from", "2", "--to", "3", "--json", "/dev/full"],
                                  ["verify-claims", "--json", "/dev/full"]))
def test_failed_file_write_exits_2_with_one_error_line(capsys, argv):
    # A full disk is not a usage error: the file write fails like a stdout
    # write, naming the file, and the text report never reaches stdout.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1
