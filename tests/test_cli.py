import json

import pytest

from reelab import cli, statefile
from reelab.cli import main
from reelab.errors import EigensolverError
from reelab.statefile import dumps_state, save_state
from reelab.states import maximally_mixed, random_density, singlet, werner


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def compute_lines(out: str) -> dict:
    pairs = (line.split(": ", 1) for line in out.strip().splitlines())
    return {key: value for key, value in pairs}


def test_compute_singlet(tmp_path, capsys):
    path = tmp_path / "singlet.json"
    save_state(singlet(), path)
    code, out, _ = run(capsys, "compute", str(path), "--ree")
    assert code == 0
    got = compute_lines(out)
    assert got["dims"] == "2x2"
    assert float(got["lemma2_bound_bits"]) == pytest.approx(1.0, abs=1e-12)
    assert got["ppt_holds"] == "false"
    assert float(got["ppt_witness"]) == pytest.approx(-0.5, abs=1e-12)
    assert got["reduction_holds"] == "false"
    assert float(got["reduction_witness"]) == pytest.approx(-0.5, abs=1e-12)
    assert float(got["ree_bits"]) == pytest.approx(1.0, abs=1e-3)
    assert got["ree_converged"] == "true"


def test_compute_maximally_mixed(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    save_state(maximally_mixed((2, 2)), path)
    code, out, _ = run(capsys, "compute", str(path), "--ree")
    assert code == 0
    got = compute_lines(out)
    assert got["ppt_holds"] == "true"
    assert got["reduction_holds"] == "true"
    assert float(got["ree_bits"]) == pytest.approx(0.0, abs=1e-9)
    assert float(got["entropy_joint_bits"]) == pytest.approx(2.0, abs=1e-12)


def test_compute_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"version": "1", "matrix": [[[1,\n')
    code, _, err = run(capsys, "compute", str(path))
    assert code == 2
    assert "line" in err and "column" in err


def test_compute_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "compute", str(tmp_path / "nope.json"))
    assert code == 2


def test_compute_invariant_violation_exits_3(tmp_path, capsys):
    path = tmp_path / "heavy.json"
    path.write_text(
        '{"version": "1", "matrix": [[[0.9, 0], [0, 0]], [[0, 0], [0.3, 0]]]}'
    )
    code, _, err = run(capsys, "compute", str(path))
    assert code == 3
    assert "invariant" in err


def test_compute_requires_dims(tmp_path, capsys):
    path = tmp_path / "untagged.json"
    save_state(random_density(4, 4, 3), path)
    code, _, err = run(capsys, "compute", str(path))
    assert code == 3
    assert "dims" in err


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_compute_invalid_tolerance_exits_64(tmp_path, capsys, tol):
    path = tmp_path / "werner.json"
    save_state(werner(0.3), path)
    code, out, err = run(capsys, "compute", str(path), "--tol-criteria", tol)
    assert code == 64
    assert out == ""
    assert err.startswith("reelab: ") and "tol" in err


def test_mkstate_singlet_round_trip(tmp_path, capsys):
    path = tmp_path / "s.json"
    code, _, _ = run(capsys, "mkstate", "singlet", "--out", str(path))
    assert code == 0
    assert path.read_text() == dumps_state(singlet())


def test_mkstate_random_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, "mkstate", "random", "--dims", "2x2", "--seed", "1", "--out", str(a))[0] == 0
    assert run(capsys, "mkstate", "random", "--dims", "2x2", "--seed", "1", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_mkstate_werner_ppt_threshold(tmp_path, capsys):
    low = tmp_path / "w25.json"
    high = tmp_path / "w75.json"
    run(capsys, "mkstate", "werner", "--F", "0.25", "--out", str(low))
    run(capsys, "mkstate", "werner", "--F", "0.75", "--out", str(high))
    assert compute_lines(run(capsys, "compute", str(low))[1])["ppt_holds"] == "true"
    assert compute_lines(run(capsys, "compute", str(high))[1])["ppt_holds"] == "false"


def test_mkstate_writes_to_stdout_without_out(capsys):
    code, out, _ = run(capsys, "mkstate", "singlet")
    assert code == 0
    assert out == dumps_state(singlet())


def test_mkstate_pure_schmidt(tmp_path, capsys):
    path = tmp_path / "p.json"
    code, _, _ = run(
        capsys, "mkstate", "pure_schmidt",
        "--alpha", "0.9486832980505138,0.31622776601683794",
        "--dims", "2x2", "--out", str(path),
    )
    assert code == 0
    got = compute_lines(run(capsys, "compute", str(path))[1])
    assert float(got["entropy_joint_bits"]) == pytest.approx(0.0, abs=1e-9)
    assert float(got["entropy_a_bits"]) == pytest.approx(0.4689955935892811, abs=1e-9)


def test_mkstate_rejects_bad_params(capsys):
    cases = [
        ("mkstate", "werner", "--F", "1.5"),
        ("mkstate", "werner"),
        ("mkstate", "unknown_family"),
        ("mkstate", "bell_diagonal", "--weights", "0.5,0.5"),
        ("mkstate", "bell_diagonal", "--weights", "a,b,c,d"),
        ("mkstate", "random", "--dims", "2x2"),
        ("mkstate", "random", "--dims", "2x2", "--seed", "-1"),
        ("mkstate", "random", "--dims", "twobytwo", "--seed", "1"),
        ("mkstate", "random", "--dims", "0x2", "--seed", "1"),
        ("mkstate", "pure_schmidt", "--alpha", "1,1", "--dims", "2x2"),
        ("mkstate", "singlet", "--F", "0.5"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
        assert err


def test_verify_unknown_suite_exits_64(capsys):
    code, _, err = run(capsys, "verify", "bogus", "--trials", "2")
    assert code == 64
    assert "usage" in err


def test_verify_monotone_passes(capsys):
    code, out, _ = run(capsys, "verify", "monotone", "--trials", "5", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    summary = json.loads(lines[-1])
    assert summary["passed"] == 5
    assert summary["failed"] == 0
    records = [json.loads(line) for line in lines[:-1]]
    assert [r["trial"] for r in records] == list(range(5))
    assert all(r["pass"] for r in records)


def test_verify_out_file_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    code, out, _ = run(
        capsys, "verify", "reduction", "--trials", "8", "--seed", "11", "--out", str(a)
    )
    assert code == 0
    # the summary is echoed to stdout when records go to a file
    assert json.loads(out.strip())["suite"] == "reduction"
    run(capsys, "verify", "reduction", "--trials", "8", "--seed", "11", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().strip().splitlines()) == 9


def test_verify_tolerance_override(capsys):
    code, out, _ = run(
        capsys, "verify", "corollary1", "--trials", "2", "--seed", "7",
        "--tol-corollary1", "1e-13",
    )
    assert code == 1
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["failed"] > 0


def test_verify_rejects_stray_tolerance_override(capsys):
    code, _, err = run(
        capsys, "verify", "monotone", "--trials", "2", "--tol-lemma2", "0.1"
    )
    assert code == 64
    assert "lemma2" in err


def test_verify_rejects_bad_dims(capsys):
    for dims in ("2by2", "0x2"):
        code, _, err = run(capsys, "verify", "theorem1", "--trials", "2", "--dims", dims)
        assert code == 64, dims
        assert err, dims


def test_verify_monotone_1x1_exits_64(capsys):
    code, out, err = run(capsys, "verify", "monotone", "--dims", "1x1", "--trials", "2")
    assert code == 64
    assert out == ""
    assert err == "reelab: monotone needs a total dimension of at least 2\n"


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as info:
        main(["compute"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["verify", "monotone", "--no-such-flag"])
    assert info.value.code == 64
    assert main([]) == 64

def _write_big_state(tmp_path):
    # d = 65, one past the solver's envelope
    path = tmp_path / "big.json"
    code = main(["mkstate", "random", "--dims", "5x13", "--seed", "1", "--rank", "2",
                 "--out", str(path)])
    assert code == 0
    return path


@pytest.mark.parametrize("case", ["mkstate_out", "verify_out", "compute_ree_big", "compute_binary"])
def test_former_crashes_exit_with_one_line(tmp_path, capsys, case):
    missing = tmp_path / "missing"
    if case == "mkstate_out":
        argv, expected = ("mkstate", "singlet", "--out", str(missing / "s.json")), 2
    elif case == "verify_out":
        argv = ("verify", "reduction", "--trials", "2", "--out", str(missing / "r.jsonl"))
        expected = 2
    elif case == "compute_binary":
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
        argv, expected = ("compute", str(tmp_path / "binary.json")), 2
    else:
        argv, expected = ("compute", str(_write_big_state(tmp_path)), "--ree"), 64
        capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out == ""
    assert err.startswith("reelab: ") and err.count("\n") == 1


def test_mkstate_seed_range(capsys):
    code, out, err = run(capsys, "mkstate", "random", "--dims", "2x2", "--seed", "-1")
    assert code == 64
    assert out == ""
    assert err == "reelab: seed must be nonnegative, got -1\n"
    # numpy takes seeds of any size, so the CLI does too
    code, out, _ = run(capsys, "mkstate", "random", "--dims", "2x2", "--seed", str(2**64))
    assert code == 0
    assert out == dumps_state(random_density(4, 4, 2**64).tagged(2, 2))


def test_untyped_failure_is_not_a_usage_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "werner.json"
    save_state(werner(0.3), path)

    def broken(state):
        raise ValueError("a bug, not a bad input")

    monkeypatch.setattr(cli, "ree_ppt", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["compute", str(path), "--ree"])
    assert capsys.readouterr().out == ""


def test_eigensolver_failure_exits_70(tmp_path, capsys, monkeypatch):
    path = tmp_path / "werner.json"
    save_state(werner(0.3), path)

    def broken(mat):
        raise EigensolverError("LAPACK did not converge")

    monkeypatch.setattr(statefile, "_eigh", broken)
    code, out, err = run(capsys, "compute", str(path))
    assert code == 70
    assert out == ""
    assert err == "reelab: eigensolver failure: LAPACK did not converge\n"


@pytest.mark.parametrize(
    "argv, stacked",
    [
        # trial 0's squaring check and the stacked log and square slacks
        (("verify", "monotone", "--trials", "3"), False),
        # the stacked PPT screen of the theorem1 sampler, and nothing else
        (("verify", "theorem1", "--dims", "2x3", "--trials", "3"), True),
    ],
)
def test_eigenvalue_only_failure_exits_70(capsys, monkeypatch, argv, stacked):
    import numpy as np

    inner = np.linalg.eigvalsh

    def broken(a, *args, **kwargs):
        if stacked and np.ndim(a) != 3:
            return inner(a, *args, **kwargs)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", broken)
    code, out, err = run(capsys, *argv)
    assert code == 70
    assert out == ""
    assert err.startswith("reelab: eigensolver failure: eigensolver failed on a ")
