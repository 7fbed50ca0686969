"""Command-line surface: envelopes, formats, exit codes."""

import csv
import dataclasses
import io
import json

import pytest

import foliationlab
from foliationlab.cli import run
from foliationlab.solver import RunConfig

ENVELOPE_KEYS = {"tool_version", "command", "params", "cfg", "payload", "warnings"}


def _json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_counts_json(capsys):
    code, doc = _json(capsys, ["counts", "--n", "3", "--d", "2"])
    assert code == 0
    assert set(doc) == ENVELOPE_KEYS
    assert doc["tool_version"] == foliationlab.__version__
    assert doc["command"] == "counts"
    assert doc["payload"] == {"N": 15, "M": 35, "K": 5}
    assert doc["cfg"]["seed"] == 123456789


def test_counts_csv(capsys):
    code = run(["counts", "--n", "2", "--d", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["n", "d", "N", "M", "K"]
    assert rows[1] == ["2", "2", "7", "14", "0"]


def test_sing_tracks_all_points(capsys):
    code, doc = _json(capsys, ["sing", "--n", "2", "--d", "2",
                               "--alpha", "0.01,0", "--alpha", "0,-0.02"])
    assert code == 0
    assert len(doc["payload"]) == 7
    assert all(p["converged"] for p in doc["payload"])
    assert doc["params"]["alpha"] == [[0.01, 0.0], [0.0, -0.02]]


def test_spectrum_single_point(capsys):
    code, doc = _json(capsys, ["spectrum", "--n", "2", "--d", "2", "--m", "7"])
    assert code == 0
    (rep,) = doc["payload"]
    assert rep["classification"] == "hyperbolic"
    lams = sorted(rep["eigenvalues"], key=lambda z: z[1])
    assert abs(lams[0][0] + 2) < 1e-10 and abs(lams[0][1] + 3 ** 0.5) < 1e-10


def test_submersion_payload(capsys):
    code, doc = _json(capsys, ["submersion", "--n", "2", "--d", "2", "--m", "7"])
    assert code == 0
    (rep,) = doc["payload"]
    assert rep["rel_error"] < 1e-4
    det = complex(rep["det"][0], rep["det"][1])
    assert abs(abs(det) - 64 / 7) < 1e-3


def test_derivs_csv_has_all_entries(capsys):
    code = run(["derivs", "--n", "2", "--d", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][:2] == ["i", "j"]
    assert len(rows) == 5  # header + n^2 entries


def test_align_census(capsys):
    code, doc = _json(capsys, ["align", "--n", "3", "--d", "2"])
    assert code == 0
    assert doc["payload"]["count"] == 5
    assert len(doc["payload"]["records"]) == 5
    assert sorted(doc["payload"]["records"][0]["indices"]) == [1, 6, 11]


def test_hyperplanes(capsys):
    code, doc = _json(capsys, ["hyperplanes", "--n", "3", "--d", "2"])
    assert code == 0
    assert doc["payload"]["element_powers"] == [0, 1, 2, 3, 4]


def test_hyperplanes_use_align_tol(capsys):
    code = run(["hyperplanes", "--n", "3", "--d", "2", "--align-tol", "1e-30"])
    assert code == 1
    assert "found 0 aligned patterns" in capsys.readouterr().err


def test_defect_warns_on_noise_level_rays(capsys):
    code, doc = _json(capsys, ["defect", "--n", "3", "--d", "2",
                               "--nu", "1,0", "--nu", "0,0", "--nu", "0,0"])
    assert code == 0
    assert any("rounding-noise" in w for w in doc["warnings"])


def test_defect_off_hyperplane_slope(capsys):
    code, doc = _json(capsys, ["defect", "--n", "3", "--d", "2",
                               "--nu", "0,0", "--nu", "1,0", "--nu", "0,0"])
    assert code == 0
    assert 0.8 < doc["payload"]["slope"] < 1.2
    assert not doc["warnings"]


def test_pushforward(capsys):
    code, doc = _json(capsys, ["pushforward", "--n", "2", "--d", "2", "--k", "1",
                               "--alpha", "0.03,0", "--alpha", "0,0.02"])
    assert code == 0
    assert doc["payload"]["residual"] < 1e-12


def test_sample_deterministic(capsys):
    argv = ["sample", "--n", "2", "--d", "2", "--samples", "40", "--max-order", "5"]
    code, doc = _json(capsys, argv)
    assert code == 0
    code2, doc2 = _json(capsys, argv + ["--jobs", "2"])
    assert code2 == 0
    assert doc["payload"] == doc2["payload"]
    assert doc["payload"]["frac_failures"] == 0.0


def test_bad_input_exits_two(capsys):
    assert run(["counts", "--n", "1", "--d", "2"]) == 2
    assert "error" in capsys.readouterr().err
    assert run(["sing", "--n", "2", "--d", "2", "--alpha", "0.01,0"]) == 2  # arity
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "2", "--d", "2", "--samples", "2", "--seed", "-1"],
    ["sing", "--n", "2", "--d", "2", "--delta", "-1"],
    ["sing", "--n", "2", "--d", "2", "--max-iters", "0"],
])
def test_invalid_run_config_exits_two(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_convergence_failure_exits_three(capsys):
    code = run(["sing", "--n", "2", "--d", "2", "--alpha", "0.04,0",
                "--alpha", "0,0.03", "--max-iters", "1", "--newton-tol", "1e-15"])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_argparse_errors_pass_through(capsys):
    assert run(["counts", "--n", "2"]) == 2          # missing --d
    assert run(["nonsense"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert foliationlab.__version__ in capsys.readouterr().out


def test_every_run_config_flag_reaches_cfg(capsys):
    values = {"newton_tol": 1e-10, "max_iters": 7, "continuation_steps": 3, "dedup_tol": 1e-5,
              "radius": 0.04, "fd_step": 1e-4, "tol_hyp": 1e-8, "tol_nd": 1e-7,
              "align_tol": 1e-9, "delta": 1.5, "max_order": 5, "seed": 7, "samples": 11}
    defaults = dataclasses.asdict(RunConfig())
    assert values.keys() == defaults.keys()
    assert all(values[name] != defaults[name] for name in values)
    argv = ["counts", "--n", "2", "--d", "2"]
    for name, value in values.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    code, doc = _json(capsys, argv)
    assert code == 0
    assert doc["cfg"] == values


ALPHA2 = ["--alpha", "0.01,0", "--alpha", "0,-0.02"]
# alpha_2 = 0: on the base hyperplane at (3,2), where the census stays nonempty
ALPHA3 = ["--alpha", "0.01,0", "--alpha", "0,0", "--alpha", "0.005,0.003"]
TEXT_COLUMNS = {"classification", "converged", "explicit", "resonant",
                "matches_diagonal_guess", "indices", "worst_m"}
CSV_CASES = [
    (["counts", "--n", "2", "--d", "2"], "n,d,N,M,K"),
    (["sing", "--n", "2", "--d", "2", *ALPHA2],
     "m,converged,newton_iters,residual,x1_re,x1_im,x2_re,x2_im"),
    (["spectrum", "--n", "2", "--d", "2", "--m", "7", *ALPHA2],
     "m,classification,resonant,c_min,worst_j,worst_m,sigma1_re,sigma1_im,sigma2_re,"
     "sigma2_im,lambda1_re,lambda1_im,lambda2_re,lambda2_im"),
    (["submersion", "--n", "2", "--d", "2", "--m", "7"],
     "m,abs_det,expected_modulus,rel_error,fd_step,sv_min,sv_max,jac11_re,jac11_im,"
     "jac12_re,jac12_im,jac21_re,jac21_im,jac22_re,jac22_im"),
    (["derivs", "--n", "3", "--d", "2"],
     "i,j,explicit,fd_re,fd_im,formula_re,formula_im,rel_error"),
    (["align", "--n", "3", "--d", "2", *ALPHA3], "record,size,indices,residual"),
    (["align", "--n", "2", "--d", "2"], "record,size,indices,residual"),
    (["hyperplanes", "--n", "3", "--d", "2"],
     "k,normal1_re,normal1_im,normal2_re,normal2_im,normal3_re,normal3_im"),
    (["defect", "--n", "3", "--d", "2", "--nu", "0,0", "--nu", "1,0", "--nu", "0,0"],
     "mu,defect,slope"),
    (["pushforward", "--n", "2", "--d", "2", "--k", "1", "--alpha", "0.03,0", "--alpha", "0,0.02"],
     "k,c_re,c_im,residual,matches_diagonal_guess,alpha_tilde1_re,alpha_tilde1_im,"
     "alpha_tilde2_re,alpha_tilde2_im"),
    (["sample", "--n", "2", "--d", "2", "--samples", "20", "--max-order", "4"],
     "n,d,samples,seed,radius,delta,max_order,n_failed,n_all_hyperbolic,n_any_resonant,"
     "frac_failures,frac_all_hyperbolic,frac_any_resonant"),
]


@pytest.mark.parametrize("argv,header", CSV_CASES, ids=[" ".join(a) for a, _ in CSV_CASES])
def test_csv_columns_and_numeric_cells(capsys, argv, header):
    assert run(argv + ["--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == header.split(",")
    if argv[:4] == ["align", "--n", "2", "--d"]:
        assert len(rows) == 1  # even n has no aligned subsets: header only
    else:
        assert len(rows) > 1
    for row in rows[1:]:
        assert len(row) == len(rows[0])
        for column, cell in zip(rows[0], row):
            if column not in TEXT_COLUMNS and cell:
                float(cell)


def test_defect_json_is_strict_on_exact_rays(capsys):
    # an exactly aligned ray has no defect slope; strict JSON writes it as null
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    argv = ["defect", "--n", "3", "--d", "2", "--nu", "0,0", "--nu", "0,0", "--nu", "1,0"]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert doc["payload"]["slope"] is None
