"""Command line behavior: output text, exit codes, CSV emission, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mhg_twist
from mhg_twist import ParameterTuple, check_twistable, parse_cycles, tau
from mhg_twist.cli import main

TWISTS_5 = "rho = (1 2 4 3 5)\nrho-inv = (1 5 3 4 2)\ntau0 = (1 4)\ntau1 = (1 5)\n"
TWISTS_3 = "rho = (1 2 3)\nrho-inv = (1 3 2)\ntau0 = (1 2)\ntau1 = (1 3)\n"
#: sha256 of the classify --delta-min 3 --delta-max 8 --verify-table1 CSV
CLASSIFY_3_8_SHA256 = "16ab062c9b3c2996d680d383891ccf1fe2bc813a47f55e22ff0e887c0baaae50"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(**extra):
    """Environment for a child python that imports this same mhg_twist.

    The children run with cwd="/", where a relative PYTHONPATH such as
    "src" no longer resolves, so the directory holding the imported
    package goes first, as an absolute path.
    """
    root = str(Path(mhg_twist.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    path = root if not rest else os.pathsep.join([root, rest])
    return dict(os.environ, PYTHONPATH=path, **extra)


# ---------------------------------------------------------------------------
# twists


def test_twists_delta_5(capsys):
    code, out, err = run(capsys, ["twists", "--delta", "5"])
    assert code == 0
    assert out == TWISTS_5
    assert "tau0 = (1 4)" in out
    assert err == ""


def test_twists_delta_3(capsys):
    assert run(capsys, ["twists", "--delta", "3"]) == (0, TWISTS_3, "")


def test_twists_bad_delta(capsys):
    code, out, err = run(capsys, ["twists", "--delta", "1"])
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# check


def test_check_twistable_json(capsys):
    code, out, err = run(capsys, [
        "check", "--delta", "3", "--k1", "1", "--k2", "2",
        "--c", "10", "--cprime", "11", "--sigma", "tau1",
    ])
    assert code == 0
    blob = json.loads(out)
    assert blob["outcome"] == "TWISTABLE"
    assert blob["witness"] is None
    assert blob["image_params"] == {"delta": 3, "k1": 1, "k2": 2, "c0": 10, "c1": 11}


def test_check_negative_verdict_still_exits_zero(capsys):
    code, out, err = run(capsys, [
        "check", "--delta", "3", "--k1", "1", "--k2", "2",
        "--c", "7", "--cprime", "8", "--sigma", "rho",
    ])
    assert code == 0
    blob = json.loads(out)
    assert blob["outcome"] == "MISSING_GEODESIC"
    assert blob["witness"] is not None


def test_check_accepts_inf_and_cycles_notation(capsys):
    code, out, _ = run(capsys, [
        "check", "--delta", "3", "--k1", "inf", "--k2", "0",
        "--c", "7", "--cprime", "10", "--sigma", "(1 3)",
    ])
    assert code == 0
    assert json.loads(out)["outcome"] == "TWISTABLE"


def test_check_rejects_same_parity_caps(capsys):
    code, out, err = run(capsys, [
        "check", "--delta", "3", "--k1", "1", "--k2", "2",
        "--c", "10", "--cprime", "12", "--sigma", "tau1",
    ])
    assert code == 2
    assert out == ""
    assert "parity" in err


def test_check_rejects_inconsistent_tuple(capsys):
    code, _, err = run(capsys, [
        "check", "--delta", "3", "--k1", "3", "--k2", "3",
        "--c", "9", "--cprime", "10", "--sigma", "rho",
    ])
    assert code == 2
    assert "not self-consistent" in err


def test_check_sigma_spellings(capsys):
    for sigma in ("tau0", "(1 2)", "transposition:1:2"):
        code, out, _ = run(capsys, [
            "check", "--delta", "3", "--k1", "1", "--k2", "2",
            "--c", "7", "--cprime", "8", "--sigma", sigma,
        ])
        assert code == 0
        assert json.loads(out)["outcome"] == "TWISTABLE"


def test_check_bad_sigma(capsys):
    for sigma in ("mu:7", "transposition:0:2", "(1 2", "nope:"):
        code, _, err = run(capsys, [
            "check", "--delta", "3", "--k1", "1", "--k2", "2",
            "--c", "7", "--cprime", "8", "--sigma", sigma,
        ])
        assert code == 2, sigma
        assert err.startswith("error:")


def test_check_bad_k1_text(capsys):
    code, _, err = run(capsys, [
        "check", "--delta", "3", "--k1", "one", "--k2", "2",
        "--c", "7", "--cprime", "8", "--sigma", "tau0",
    ])
    assert code == 2
    assert "K1" in err


# ---------------------------------------------------------------------------
# usage errors from argparse itself


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["twists", "--delta", "3", "--frobnicate"])
    assert info.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["conjure"])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# classify


def test_classify_passes_and_prints_families(capsys):
    code, out, _ = run(capsys, [
        "classify", "--delta-min", "3", "--delta-max", "4", "--verify-table1",
    ])
    assert code == 0
    assert "delta=3 twist keys: PASS" in out
    assert "delta=4 twist keys: PASS" in out
    assert "delta=3 twist families: PASS" in out
    assert "  [PASS] tau1: (delta=3, K1=inf, K2=0, C=7, C'=10)" in out
    assert out.rstrip().endswith("classification: PASS")


def test_classify_csv_schema(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, [
        "classify", "--delta-min", "3", "--delta-max", "3", "--out", str(out_path),
    ])
    assert code == 0
    assert f"wrote 52 rows to {out_path}" in out
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 52
    assert list(rows[0]) == [
        "sigma", "delta", "K1", "K2", "C", "Cprime", "verdict", "witness",
    ]
    for row in rows:
        assert row["verdict"] in ("TWISTABLE", "METRIC_VIOLATION", "MISSING_GEODESIC")
        assert (row["witness"] == "") == (row["verdict"] == "TWISTABLE")
        # re-grade the row through the library
        k1 = None if row["K1"] == "inf" else int(row["K1"])
        params = ParameterTuple.from_c_values(
            int(row["delta"]),
            float("inf") if k1 is None else k1,
            int(row["K2"]), int(row["C"]), int(row["Cprime"]),
        )
        verdict = check_twistable(params, parse_cycles(row["sigma"], 3))
        assert verdict.outcome == row["verdict"]
    winners = {
        (row["sigma"], row["K1"], row["K2"], row["C"], row["Cprime"])
        for row in rows if row["verdict"] == "TWISTABLE"
    }
    assert ("(1 2)", "1", "2", "7", "8") in winners
    assert ("(1 3)", "inf", "0", "7", "10") in winners


def test_classify_fail_exit_code(capsys, monkeypatch):
    import mhg_twist.cli as cli_mod
    real = cli_mod.find_twists

    def drop_tau0(delta):
        families = dict(real(delta))
        families.pop(tau(delta, 0))
        return families

    monkeypatch.setattr(cli_mod, "find_twists", drop_tau0)
    code, out, _ = run(capsys, ["classify", "--delta-min", "3", "--delta-max", "3"])
    assert code == 1
    assert "delta=3 twist keys: FAIL" in out
    assert out.rstrip().endswith("classification: FAIL")


def test_classify_bad_range(capsys):
    code, _, err = run(capsys, ["classify", "--delta-min", "4", "--delta-max", "3"])
    assert code == 2
    assert "exceeds" in err


def test_classify_budget_refusal(capsys):
    code, _, err = run(capsys, ["classify", "--delta-min", "3", "--delta-max", "64"])
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# cycle


def test_cycle_7(capsys):
    code, out, _ = run(capsys, ["cycle", "--n", "7"])
    assert code == 0
    assert out == "n=7 delta=3 twists=3\n()\n(1 2 3)\n(1 3 2)\n"


def test_cycle_6_only_identity(capsys):
    code, out, _ = run(capsys, ["cycle", "--n", "6"])
    assert code == 0
    assert out == "n=6 delta=3 twists=1\n()\n"


def test_cycle_errors(capsys):
    assert run(capsys, ["cycle", "--n", "2"])[0] == 2
    assert run(capsys, ["cycle", "--n", "200"])[0] == 2


# ---------------------------------------------------------------------------
# finite


def test_finite_icosahedron_summary(capsys):
    code, out, _ = run(capsys, ["finite", "--graph", "icosahedron"])
    assert code == 0
    blob = json.loads(out)
    assert blob == {
        "antipodal": "holds",
        "diameter": 3,
        "edges": 30,
        "graph": "icosahedron",
        "homogeneity_states": 256,
        "homogeneous": True,
        "n": 12,
    }


def test_finite_cycle_twist(capsys):
    code, out, _ = run(capsys, ["finite", "--graph", "cycle:7", "--sigma", "mu:7:2"])
    assert code == 0
    blob = json.loads(out)
    assert blob["sigma"] == "(1 2 3)"
    assert blob["report"]["valid"] is True


def test_finite_crown_transposition_invalid(capsys):
    code, out, _ = run(capsys, [
        "finite", "--graph", "crown:4", "--sigma", "transposition:1:2",
    ])
    assert code == 0
    blob = json.loads(out)
    assert blob["report"]["valid"] is False
    assert blob["report"]["unit_connected"] is False


def test_finite_graph_file(capsys, tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, out, _ = run(capsys, ["finite", "--graph", f"file:{path}"])
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 5
    assert blob["homogeneous"] is True


def run_graph_file(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return run(capsys, ["finite", "--graph", f"file:{path}"])


def test_finite_graph_file_missing(capsys, tmp_path):
    code, out, err = run(capsys, ["finite", "--graph", f"file:{tmp_path / 'none.txt'}"])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read graph file: ")


def test_finite_graph_file_edges_not_a_list(capsys, tmp_path):
    code, _, err = run_graph_file(capsys, tmp_path, "g.json", '{"n": 3, "edges": 5}')
    assert (code, err) == (2, "error: edges must be a list, got int\n")


def test_finite_graph_file_bool_vertex_count(capsys, tmp_path):
    code, _, err = run_graph_file(capsys, tmp_path, "g.json", '{"n": true, "edges": []}')
    assert (code, err) == (2, "error: bad vertex count True\n")


def test_finite_graph_file_bool_vertex(capsys, tmp_path):
    # numpy would read [true, 2] as a mask, not as the edge {1, 2}
    code, _, err = run_graph_file(capsys, tmp_path, "g.json", '{"n": 3, "edges": [[true, 2]]}')
    assert (code, err) == (2, "error: bad edge [True, 2]\n")


def test_finite_graph_file_over_the_vertex_budget(capsys, tmp_path):
    # one past the largest label: 100,001 vertices, a 10 GB matrix
    code, _, err = run_graph_file(capsys, tmp_path, "g.txt", "0 100000\n")
    assert (code, err) == (2, "error: edge list names 100001 vertices, over the 512-vertex budget\n")
    code, _, err = run_graph_file(capsys, tmp_path, "g.json", '{"n": 513, "edges": []}')
    assert (code, err) == (2, "error: 513 vertices is over the 512-vertex budget\n")


def test_finite_errors(capsys):
    assert run(capsys, ["finite", "--graph", "dodecahedron"])[0] == 2
    assert run(capsys, ["finite", "--graph", "cycle:x"])[0] == 2
    assert run(capsys, ["finite", "--graph", "cycle:7", "--sigma", "mu:6:2"])[0] == 2
    assert run(capsys, ["finite", "--graph", "cycle:7", "--sigma", "(1 4)"])[0] == 2
    code, _, err = run(capsys, ["finite", "--graph", "rook:5", "--cap", "10"])
    assert code == 2
    assert "cap" in err or "budget" in err.lower() or "exceeds" in err


# ---------------------------------------------------------------------------
# table1


#: the whole table1 stdout for delta 3..8, pinned line for line
TABLE1_STDOUT = {
    3: (
        "rho: (delta=3, K1=1, K2=3, C=8, C'=9)\n"
        "rho-inv: (delta=3, K1=3, K2=3, C=10, C'=11)\n"
        "tau0: (delta=3, K1=1, K2=2, C=7, C'=8)\n"
        "tau1: (delta=3, K1=1, K2=2, C=9, C'=10)\n"
        "tau1: (delta=3, K1=1, K2=2, C=10, C'=11)\n"
        "tau1: (delta=3, K1=2, K2=2, C=9, C'=10)\n"
        "tau1: (delta=3, K1=2, K2=2, C=10, C'=11)\n"
        "tau1: (delta=3, K1=inf, K2=0, C=7, C'=10)\n"
    ),
    4: (
        "rho: (delta=4, K1=1, K2=4, C=10, C'=11)\n"
        "rho-inv: (delta=4, K1=4, K2=4, C=13, C'=14)\n"
        "tau0: (delta=4, K1=2, K2=2, C=9, C'=10)\n"
        "tau0: (delta=4, K1=inf, K2=0, C=9, C'=10)\n"
        "tau1: (delta=4, K1=1, K2=3, C=11, C'=12)\n"
        "tau1: (delta=4, K1=1, K2=3, C=11, C'=14)\n"
        "tau1: (delta=4, K1=2, K2=3, C=11, C'=12)\n"
        "tau1: (delta=4, K1=2, K2=3, C=11, C'=14)\n"
    ),
    5: (
        "rho: (delta=5, K1=1, K2=5, C=12, C'=13)\n"
        "rho-inv: (delta=5, K1=5, K2=5, C=16, C'=17)\n"
        "tau0: (delta=5, K1=2, K2=3, C=11, C'=12)\n"
        "tau1: (delta=5, K1=3, K2=3, C=13, C'=14)\n"
        "tau1: (delta=5, K1=inf, K2=0, C=11, C'=14)\n"
    ),
    6: (
        "rho: (delta=6, K1=1, K2=6, C=14, C'=15)\n"
        "rho-inv: (delta=6, K1=6, K2=6, C=19, C'=20)\n"
        "tau0: (delta=6, K1=3, K2=3, C=13, C'=14)\n"
        "tau0: (delta=6, K1=inf, K2=0, C=13, C'=14)\n"
        "tau1: (delta=6, K1=3, K2=4, C=15, C'=16)\n"
    ),
    7: (
        "rho: (delta=7, K1=1, K2=7, C=16, C'=17)\n"
        "rho-inv: (delta=7, K1=7, K2=7, C=22, C'=23)\n"
        "tau0: (delta=7, K1=3, K2=4, C=15, C'=16)\n"
        "tau1: (delta=7, K1=4, K2=4, C=17, C'=18)\n"
        "tau1: (delta=7, K1=inf, K2=0, C=15, C'=18)\n"
    ),
    8: (
        "rho: (delta=8, K1=1, K2=8, C=18, C'=19)\n"
        "rho-inv: (delta=8, K1=8, K2=8, C=25, C'=26)\n"
        "tau0: (delta=8, K1=4, K2=4, C=17, C'=18)\n"
        "tau0: (delta=8, K1=inf, K2=0, C=17, C'=18)\n"
        "tau1: (delta=8, K1=4, K2=5, C=19, C'=20)\n"
    ),
}


def test_table1_delta_3(capsys):
    code, out, _ = run(capsys, ["table1", "--delta", "3"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[0] == "rho: (delta=3, K1=1, K2=3, C=8, C'=9)"
    assert lines[1] == "rho-inv: (delta=3, K1=3, K2=3, C=10, C'=11)"
    assert "tau1: (delta=3, K1=inf, K2=0, C=7, C'=10)" in lines


def test_table1_delta_6_has_bipartite_tau0(capsys):
    _, out, _ = run(capsys, ["table1", "--delta", "6"])
    assert "tau0: (delta=6, K1=inf, K2=0, C=13, C'=14)" in out.splitlines()


@pytest.mark.parametrize("delta", sorted(TABLE1_STDOUT))
def test_table1_stdout_is_pinned(capsys, delta):
    assert run(capsys, ["table1", "--delta", str(delta)]) == (0, TABLE1_STDOUT[delta], "")


# ---------------------------------------------------------------------------
# determinism


def test_classify_csv_matches_the_golden_hash(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, [
        "classify", "--delta-min", "3", "--delta-max", "8",
        "--verify-table1", "--out", str(path),
    ])
    assert code == 0
    assert f"wrote 4296 rows to {path}" in out.splitlines()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CLASSIFY_3_8_SHA256


def test_classify_rejects_the_retired_jobs_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--delta-min", "3", "--delta-max", "3", "--jobs", "2"])
    assert info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mhg_twist", "twists", "--delta", "5"],
        capture_output=True, text=True, env=child_env(), cwd="/",
    )
    assert proc.returncode == 0
    assert proc.stdout == TWISTS_5
