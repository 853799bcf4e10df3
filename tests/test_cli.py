import errno
import os

import numpy as np
import pytest

from qsep import cli, criteria
from qsep.analytic import pp_ghz_sandwich_eigs
from qsep.cli import _round4, main
from qsep.exceptions import BadParameter, MultipleRoots, NanMargin, NoSignChange

from util import flatten_cstre_at_five, shifted_pp_ghz_spectrum


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_threshold_command(capsys, solved_once):
    code, out, _ = run_cli(
        ["threshold", "--family", "pp-w", "--n", "3", "--criterion", "cstre-inf"], capsys
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "family,n,criterion,q,x_threshold"
    fields = row.split(",")
    assert fields[:4] == ["pp-w", "3", "cstre-inf", ""]
    assert abs(float(fields[4]) - 0.3083) < 5e-4


def test_threshold_two_qubit_werner(capsys):
    code, out, _ = run_cli(
        ["threshold", "--family", "wl-ghz", "--n", "2", "--criterion", "ppt"], capsys
    )
    assert code == 0
    assert abs(float(out.strip().split("\n")[1].split(",")[4]) - 1.0 / 3.0) < 1e-6


def test_threshold_finite_q(capsys):
    code, out, _ = run_cli(
        ["threshold", "--family", "wl-ghz", "--n", "3", "--criterion", "cstre", "--q", "2"],
        capsys,
    )
    assert code == 0
    fields = out.strip().split("\n")[1].split(",")
    assert fields[3] == "2"
    assert 0.0 < float(fields[4]) < 1.0


def test_threshold_usage_errors(capsys):
    # pseudopure families need n >= 3
    code, _, err = run_cli(
        ["threshold", "--family", "pp-w", "--n", "2", "--criterion", "cstre-inf"], capsys
    )
    assert code == 1
    assert err.strip()
    # finite-q criterion without --q
    code, _, err = run_cli(
        ["threshold", "--family", "pp-w", "--n", "3", "--criterion", "cstre"], capsys
    )
    assert code == 1
    assert err == "error: criterion 'cstre' needs an entropic order q\n"
    # finite q below criteria.Q_FLOOR, where x* would drift past its tolerance
    code, out, err = run_cli(
        ["threshold", "--family", "wl-ghz", "--n", "3", "--criterion", "cstre",
         "--q", "1.000000001"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err == "error: finite-q criteria need q in [1.00001, 1e+06], got 1.000000001\n"
    # q on a q-free criterion
    code, _, _ = run_cli(
        ["threshold", "--family", "pp-w", "--n", "3", "--criterion", "ppt", "--q", "2"], capsys
    )
    assert code == 1
    # unknown family is an argparse-level usage error
    code, _, err = run_cli(
        ["threshold", "--family", "bogus", "--n", "3", "--criterion", "ppt"], capsys
    )
    assert code == 1
    assert err.strip()


@pytest.mark.parametrize(
    "table_id, header",
    [("1", "n,vn,ar,cstre,ppt"), ("2", "n,vn,ar,cstre,ppt"), ("pp-ghz", "n,threshold"),
     ("wl-ghz", "n,threshold")],
    ids=["1", "2", "pp-ghz", "wl-ghz"],
)
def test_table_command(tmp_path, capsys, published_tables, solved_once, table_id, header):
    # each cell is the library's threshold rounded half-up, within tolerance of the reference
    path = tmp_path / "t.csv"
    assert run_cli(["table", "--id", table_id, "--out", str(path)], capsys)[0] == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == header
    assert [int(line.split(",")[0]) for line in lines[1:]] == [3, 4, 5, 6]
    table = published_tables[table_id][0]
    for line in lines[1:]:
        n, *cells = line.split(",")
        assert cells == [_round4(v) for v in table[int(n)]]
        for got, want in zip(cells, criteria.TABLES[table_id][2][int(n)]):
            assert abs(float(got) - want) <= 5e-4 + 1e-12


def test_curve_command(tmp_path, capsys):
    path = tmp_path / "c.csv"
    code, _, _ = run_cli(
        [
            "curve", "--family", "pp-ghz", "--n", "3", "--criterion", "cstre,ar",
            "--q-min", "2", "--q-max", "50", "--q-steps", "3", "--log-spacing",
            "--out", str(path),
        ],
        capsys,
    )
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "criterion,q,x_threshold"
    assert len(lines) == 7
    assert [line.split(",")[0] for line in lines[1:]] == ["cstre"] * 3 + ["ar"] * 3
    for block in (lines[1:4], lines[4:7]):
        qs = [float(line.split(",")[1]) for line in block]
        xs = [float(line.split(",")[2]) for line in block]
        assert qs == sorted(qs)
        assert all(first >= second for first, second in zip(xs, xs[1:]))


def test_curve_single_step(tmp_path, capsys):
    path = tmp_path / "c1.csv"
    code, _, _ = run_cli(
        [
            "curve", "--family", "wl-ghz", "--n", "3", "--criterion", "ar",
            "--q-min", "2", "--q-max", "2", "--q-steps", "1", "--out", str(path),
        ],
        capsys,
    )
    assert code == 0
    assert len(path.read_text().strip().split("\n")) == 2


def test_curve_usage_errors(tmp_path, capsys):
    path = str(tmp_path / "x.csv")
    code, _, err = run_cli(
        ["curve", "--family", "pp-ghz", "--n", "3", "--criterion", "ppt",
         "--q-min", "2", "--q-max", "5", "--q-steps", "2", "--out", path],
        capsys,
    )
    assert code == 1 and err.strip()
    # each grid endpoint and the step count are checked before numpy builds the grid;
    # numpy fails on these step counts with IndexError and MemoryError (8 TiB). An
    # endpoint takes Criterion's finite-q check, with its one message for every q outside
    # [criteria.Q_FLOOR, 1e6]
    keep = tmp_path / "keep.csv"
    keep.write_bytes(b"keep me, 12")
    for q_min, q_max, q_steps, message in (
        ("0.5", "5", "2", "finite-q criteria need q in [1.00001, 1e+06], got 0.5"),
        ("2", "inf", "2", "finite-q criteria need q in [1.00001, 1e+06], got inf"),
        ("1.000000001", "2", "2", "finite-q criteria need q in [1.00001, 1e+06], got 1.000000001"),
        ("5", "2", "2", "need q-min <= q-max"),
        ("2", "5", "0", "need q-steps >= 1"),
        ("2", "5", "-1", "need q-steps >= 1"),
        ("2", "5", "9223372036854775808", "need q-steps <= 10000, got 9223372036854775808"),
        ("2", "5", "1099511627776", "need q-steps <= 10000, got 1099511627776"),
    ):
        code, _, err = run_cli(
            ["curve", "--family", "pp-ghz", "--n", "3", "--criterion", "cstre",
             "--q-min", q_min, "--q-max", q_max, "--q-steps", q_steps, "--out", str(keep)],
            capsys,
        )
        assert code == 1
        assert err == f"error: {message}\n"
        assert keep.read_bytes() == b"keep me, 12"


def test_eigs_analytic(capsys):
    code, out, _ = run_cli(
        ["eigs", "--family", "pp-ghz", "--n", "3", "--x", "0.2", "--q", "1.000001",
         "--source", "analytic"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eigenvalue,multiplicity"
    rows = [line.split(",") for line in lines[1:]]
    values = [float(v) for v, _ in rows]
    mults = [int(m) for _, m in rows]
    assert values == sorted(values)
    assert sorted(mults) == [1, 3, 4]
    by_mult = {m: v for v, m in zip(values, mults)}
    assert abs(by_mult[1] - 0.2) < 1e-5
    assert abs(by_mult[3] - 0.8 / 7.0) < 1e-5
    assert abs(by_mult[4] - 0.8 / 7.0) < 1e-5


def test_eigs_numeric_matches_analytic(capsys):
    code, out, _ = run_cli(
        ["eigs", "--family", "pp-ghz", "--n", "3", "--x", "0.2", "--q", "2",
         "--source", "numeric"],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert all(m == "1" for _, m in rows)
    numeric = np.array([float(v) for v, _ in rows])
    assert np.abs(numeric - pp_ghz_sandwich_eigs(3, 0.2, 2.0).expand()).max() < 1e-9


def test_eigs_pure_endpoint_policy(capsys):
    code, out, err = run_cli(
        ["eigs", "--family", "wl-ghz", "--n", "3", "--x", "1", "--q", "2",
         "--source", "numeric"],
        capsys,
    )
    assert code == 0
    assert "warning" in err
    assert len(out.strip().split("\n")) == 9
    # the warning follows a computed spectrum: a bad q fails with the error line alone
    assert run_cli(
        ["eigs", "--family", "wl-ghz", "--n", "3", "--x", "1", "--q", "0.5",
         "--source", "numeric"],
        capsys,
    ) == (1, "", "error: entropic order q must lie in (1, 1e+06], got 0.5\n")
    code, _, err = run_cli(
        ["eigs", "--family", "wl-ghz", "--n", "3", "--x", "1", "--q", "2",
         "--source", "analytic"],
        capsys,
    )
    assert code == 1
    assert err.strip()


def test_eigs_numeric_zero_modes_print_as_zero(capsys):
    # the entropy sums' zero rule: |lambda| <= 1e-15 prints as 0, not as LAPACK round-off
    code, out, _ = run_cli(
        ["eigs", "--family", "pp-w", "--n", "4", "--x", "1", "--q", "2",
         "--source", "numeric"],
        capsys,
    )
    assert code == 0
    assert out == "eigenvalue,multiplicity\n" + "0,1\n" * 15 + "1.366025404,1\n"


def test_eigs_analytic_zero_mode_prints_as_zero(capsys):
    # the pseudopure W state at x = 0 has an exact zero mode; the closed form gets it
    # from the block determinant, so both sources print 0 rather than round-off
    code, out, _ = run_cli(
        ["eigs", "--family", "pp-w", "--n", "3", "--x", "0", "--q", "1.01",
         "--source", "analytic"],
        capsys,
    )
    assert code == 0
    assert out.split("\n")[1] == "0,1"


@pytest.mark.parametrize(
    "error, expected",
    [(NoSignChange, 2), (MultipleRoots, 1), (BadParameter, 1), (NanMargin, 1)],
    ids=["NoSignChange", "MultipleRoots", "BadParameter", "NanMargin"],
)
def test_error_exit_code(monkeypatch, capsys, error, expected):
    # the implemented families never raise NoSignChange or MultipleRoots through
    # real margins, so fake a failing solver to pin the documented exit codes
    def raise_error(*args, **kwargs):
        raise error("solver failed")

    monkeypatch.setattr(cli, "threshold", raise_error)
    code, _, err = run_cli(
        ["threshold", "--family", "pp-w", "--n", "3", "--criterion", "ppt"], capsys
    )
    assert code == expected
    assert err == "error: solver failed\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--id", "1"],
        ["curve", "--family", "wl-ghz", "--n", "3", "--criterion", "ar",
         "--q-min", "2", "--q-max", "2", "--q-steps", "1"],
    ],
    ids=["table", "curve"],
)
def test_unwritable_out_exit_code(monkeypatch, tmp_path, capsys, argv):
    # --out is opened before any threshold is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("threshold solved before --out was opened")

    monkeypatch.setattr(criteria, "thresholds", no_solve)
    path = str(tmp_path / "missing" / "x.csv")
    code, _, err = run_cli(argv + ["--out", path], capsys)
    assert code == 1
    assert err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {path!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--id", "1"],
        ["curve", "--family", "pp-w", "--n", "2", "--criterion", "cstre",
         "--q-min", "2", "--q-max", "3", "--q-steps", "2"],
    ],
    ids=["table", "curve"],
)
def test_failed_run_keeps_out(monkeypatch, tmp_path, capsys, argv):
    # --out is written only once every threshold is solved
    def multiple_roots(*args, **kwargs):
        raise MultipleRoots("margin changes sign 3 times on [0, 1)")

    if argv[0] == "table":  # the published tables always solve, so fake a failing solver
        monkeypatch.setattr(criteria, "thresholds", multiple_roots)
    path = tmp_path / "keep.csv"
    path.write_bytes(b"keep me, 12")
    code, _, err = run_cli(argv + ["--out", str(path)], capsys)
    assert code == 1 and err.startswith("error: ")
    assert path.read_bytes() == b"keep me, 12"


def test_failed_run_removes_the_out_it_created(tmp_path, capsys):
    path = tmp_path / "none.csv"
    code, _, err = run_cli(
        ["curve", "--family", "pp-w", "--n", "2", "--criterion", "cstre",
         "--q-min", "2", "--q-max", "3", "--q-steps", "2", "--out", str(path)],
        capsys,
    )
    assert code == 1 and err.startswith("error: ")
    assert not path.exists()


def test_curve_without_sign_change_exits_2(monkeypatch, tmp_path, capsys):
    # a curve point whose margin keeps one sign fails the sweep as a threshold does
    flatten_cstre_at_five(monkeypatch)
    argv = ["curve", "--family", "wl-ghz", "--n", "3", "--criterion", "cstre",
            "--q-min", "2", "--q-max", "5", "--q-steps", "2", "--out"]
    keep, created = tmp_path / "keep.csv", tmp_path / "none.csv"
    keep.write_bytes(b"keep me, 12")
    for path in (keep, created):
        code, out, err = run_cli(argv + [str(path)], capsys)
        assert (code, out, err) == (2, "", "error: margin keeps one sign on [0, 1)\n")
    assert keep.read_bytes() == b"keep me, 12"
    assert not created.exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--n", "3", "--q", "inf"], "error: entropic order q must lie in (1, 1e+06], got inf\n"),
        (["--n", "2000", "--q", "2"], "error: pp-w needs 3 <= n_qubits <= 8, got 2000\n"),
    ],
    ids=["q-inf", "n-2000"],
)
@pytest.mark.parametrize("source", ["numeric", "analytic"])
def test_eigs_sources_share_one_domain(capsys, argv, expected, source):
    code, out, err = run_cli(
        ["eigs", "--family", "pp-w", "--x", "0.2", "--source", source] + argv, capsys
    )
    assert (code, out, err) == (1, "", expected)


def test_curve_checks_every_q_before_solving(monkeypatch, tmp_path, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("threshold solved before every q was checked")

    monkeypatch.setattr(criteria, "thresholds", no_solve)
    path = tmp_path / "keep.csv"
    path.write_bytes(b"keep me, 12")
    code, _, err = run_cli(
        ["curve", "--family", "pp-ghz", "--n", "6", "--criterion", "cstre", "--q-min", "2",
         "--q-max", "2e6", "--q-steps", "10", "--log-spacing", "--out", str(path)],
        capsys,
    )
    assert code == 1
    assert err == "error: finite-q criteria need q in [1.00001, 1e+06], got 2000000.0\n"
    assert path.read_bytes() == b"keep me, 12"


#: the check names qsep verify prints, in order
VERIFY_CHECKS = (
    ["bound-identities"]
    + [f"reference-thresholds-{k}" for k in ("pp-w", "wl-w", "pp-ghz", "wl-ghz")]
    + ["ppt-vs-cstre-inf"]
    + [f"spectrum-oracle-{k}" for k in ("pp-w", "pp-ghz", "wl-w", "wl-ghz")]
    + ["large-q-vs-infinity"]
)


BOUND, SPECTRUM = criteria.CLOSED_FORM_BOUND, criteria.CLOSED_FORM_SPECTRUM


def assert_only_failing_check(failing, capsys):
    """qsep verify --n-max 4 fails the named check only, or none; exit code and last line agree."""
    code, out, _ = run_cli(["verify", "--n-max", "4"], capsys)
    *lines, last = out.rstrip("\n").split("\n")
    checks = [(line[:4], *line[5:].split(": ", 1)) for line in lines]
    assert [(status, name) for status, name, _ in checks] == [
        ("FAIL" if name == failing else "PASS", name) for name in VERIFY_CHECKS
    ]
    for _, name, detail in checks:
        if name != "bound-identities":
            assert detail.endswith("over n in (3, 4)"), (name, detail)
    assert (code, last) == ((1, "OVERALL FAIL") if failing else (0, "OVERALL PASS"))


def test_verify_command(capsys, solved_once):
    assert_only_failing_check(None, capsys)


@pytest.mark.parametrize(
    "attribute, fault, failing",
    [
        ("CLOSED_FORM_BOUND", {**BOUND, "pp-w": lambda n: BOUND["pp-w"](n) + 1e-6},
         "reference-thresholds-pp-w"),
        ("LARGE_Q_TOL", 1e-6, "large-q-vs-infinity"),
    ],
    ids=["w-closed-form", "large-q"],
)
def test_verify_command_fails_the_faulty_check(
    monkeypatch, capsys, solved_once, attribute, fault, failing
):
    # every check gates: a fault fails its own check only, and the run exits 1
    monkeypatch.setattr(criteria, attribute, fault)
    assert_only_failing_check(failing, capsys)


def test_verify_command_exits_1_on_a_spectrum_deviation(monkeypatch, capsys, solved_once):
    monkeypatch.setattr(
        criteria, "CLOSED_FORM_SPECTRUM", {**SPECTRUM, "pp-ghz": shifted_pp_ghz_spectrum}
    )
    assert_only_failing_check("spectrum-oracle-pp-ghz", capsys)
