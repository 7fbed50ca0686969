"""Command-line surface: envelopes, formats, exit codes."""

import csv
import dataclasses
import io
import json
import re

import numpy as np
import pytest

import foliationlab
from foliationlab import cli, coeff_derivative_table, defect_experiment, genericity, submersion_all
from foliationlab.cli import _jsonable, run
from foliationlab.errors import InputError, VerificationError
from foliationlab.jouanolou import FoliationParams, counts
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


def test_submersion_all_payload(capsys):
    code, doc = _json(capsys, ["submersion", "--n", "2", "--d", "2", "--m", "all"])
    assert code == 0 and not doc["warnings"]
    expected = json.loads(json.dumps(_jsonable(submersion_all(2, 2, RunConfig()))))
    assert doc["payload"] == expected and [rep["m"] for rep in expected] == list(range(1, 8))


def test_submersion_warns_and_exits_one_on_a_small_modulus_miss(capsys, monkeypatch):
    # 1.2751e-04 is above SUBMERSION_RTOL, the one modulus tolerance: the library
    # refuses it, and the CLI prints the error and its envelope with the report
    certified = genericity.expected_det_modulus
    monkeypatch.setattr(genericity, "expected_det_modulus",
                        lambda n, d: certified(n, d) / (1 - 1.2751e-04))
    assert run(["submersion", "--n", "2", "--d", "2", "--m", "7"]) == 1
    captured = capsys.readouterr()
    error = "determinant modulus 9.14286 misses certified value 9.14402 (rel error 1.275e-04) at m=7"
    assert captured.err == f"error: {error}\n"
    doc = json.loads(captured.out)
    assert doc["warnings"] == [error]
    assert doc["payload"]["m"] == 7
    assert doc["payload"]["rel_error"] == pytest.approx(1.2751e-04, rel=1e-4)


def test_submersion_refuses_an_overflowing_determinant_without_a_numpy_warning(capsys, monkeypatch):
    # second partials scaled by 1e200 put |det| near 1e400 at (2, 2), and numpy's
    # det comes out inf + nan j, which the modulus check refuses (at d = 1 the
    # true determinant overflows from (66, 1) on); under the suite's
    # filterwarnings = error a numpy warning would raise here instead
    real = genericity._evaluate

    def scaled(field, x, which, width):
        out = real(field, x, which, width)
        return out * 1e200 if which == 2 else out

    monkeypatch.setattr(genericity, "_evaluate", scaled)
    assert run(["submersion", "--n", "2", "--d", "2", "--m", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: determinant modulus inf misses certified value 9.14286 "
                            "(rel error inf) at m=7\n")
    assert json.loads(captured.out)["payload"]["rel_error"] is None


def test_submersion_warns_and_exits_one_on_a_failed_rank_certificate(capsys, monkeypatch):
    # sv_min <= RANK_GAP sv_max for every report once the gap is 1
    monkeypatch.setattr(cli, "RANK_GAP", 1.0)
    code, doc = _json(capsys, ["submersion", "--n", "2", "--d", "2", "--m", "all"])
    assert code == 1
    assert doc["warnings"] == [f"m={m}: rank certificate failed (singular value gap)"
                               for m in range(1, 8)]
    assert doc["payload"] == json.loads(json.dumps(_jsonable(submersion_all(2, 2, RunConfig()))))


def test_spectrum_warns_on_nearly_repeated_eigenvalues(capsys, monkeypatch):
    seen = []

    def close(lams):
        seen.append(len(lams))
        return 2.5e-7

    monkeypatch.setattr(cli, "min_separation", close)
    code, doc = _json(capsys, ["spectrum", "--n", "2", "--d", "2", "--m", "3"])
    assert (code, seen) == (0, [2])
    assert doc["warnings"] == ["m=3: eigenvalues nearly repeated (separation 2.500e-07); "
                               "root conditioning is poor near the discriminant"]
    assert [rep["m"] for rep in doc["payload"]] == [3]


def test_derivs_mismatch_exits_one_with_the_table(capsys, monkeypatch):
    # sigma_2 = 7 moved by 5e-5 relative: the closed (2, 1) entry moves by 2e-4
    monkeypatch.setattr(genericity, "sigma_at_ones", lambda n, d: np.array([4.0, 7.0 + 3.5e-4]))
    with pytest.raises(VerificationError) as info:
        coeff_derivative_table(2, 2, RunConfig())
    code, doc = _json(capsys, ["derivs", "--n", "2", "--d", "2"])
    assert code == 1
    assert doc["warnings"] == [str(info.value)]
    assert doc["payload"] == json.loads(json.dumps(_jsonable(info.value.payload)))
    assert [(e["i"], e["j"]) for e in doc["payload"]] == [(1, 1), (1, 2), (2, 1), (2, 2)]


@pytest.mark.parametrize("command", ["spectrum", "submersion"])
@pytest.mark.parametrize("m", ["99", "0", "-1"])
def test_index_outside_the_member_is_refused_before_tracking(capsys, monkeypatch, command, m):
    calls = []
    monkeypatch.setattr(cli, "track_singularities", lambda *args: calls.append(args))
    assert run([command, "--n", "2", "--d", "2", "--m", m]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: index m must lie in [1, 7], got {m}\n")
    assert calls == []


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


def test_pushforward_builds_only_its_element(capsys, monkeypatch):
    # the whole group is N elements; one k needs one of them
    big_n = 15
    base = ["pushforward", "--n", "3", "--d", "2", "--alpha", "0.03,0.01",
            "--alpha", "0,0.02", "--alpha=-0.01,0"]
    argvs = [base + ["--k", str(k), "--format", fmt]
             for k in (0, 1, big_n, -1, 2 * big_n + 3) for fmt in ("json", "csv")]
    want = []
    for argv in argvs:
        assert run(argv) == 0
        want.append(capsys.readouterr().out)

    def refuse(*args):
        raise AssertionError("pushforward built the whole group")

    monkeypatch.setattr(foliationlab.cli, "group_elements", refuse, raising=False)
    for argv, out in zip(argvs, want):
        assert run(argv) == 0
        assert capsys.readouterr().out == out
    assert want[0] == want[4]  # k = N is the identity, as k = 0


def test_sample_deterministic(capsys):
    argv = ["sample", "--n", "2", "--d", "2", "--samples", "40", "--max-order", "5"]
    code, doc = _json(capsys, argv)
    assert code == 0
    code2, doc2 = _json(capsys, argv + ["--jobs", "2"])
    assert code2 == 0
    assert doc["payload"] == doc2["payload"]
    assert doc["payload"]["frac_failures"] == 0.0


@pytest.mark.parametrize("head,values", [
    (["sing", "--n", "2", "--d", "2"], ["--alpha", "-0.03,0", "--alpha", "-.01,-0.02"]),
    (["spectrum", "--n", "2", "--d", "2", "--format", "csv"],
     ["--alpha", "-0.03,0", "--alpha", "0,-0.02"]),
    (["defect", "--n", "3", "--d", "2"], ["--nu", "-1,0", "--nu", "0,0", "--nu", "-.5,0.25"]),
], ids=["sing", "spectrum", "defect"])
def test_signed_complex_value_may_follow_its_option(capsys, head, values):
    # argparse alone reads "-0.03,0" as an unknown option and exits 2
    joined = [f"{option}={value}" for option, value in zip(values[::2], values[1::2])]
    assert run(head + values) == 0
    spaced = capsys.readouterr().out
    assert run(head + joined) == 0
    assert capsys.readouterr().out == spaced


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


@pytest.mark.parametrize("argv", [
    ["sing", "--n", "2", "--d", "2", "--radius", "nan"],
    ["align", "--n", "3", "--d", "2", "--align-tol", "inf"],
])
def test_non_finite_run_config_exits_two(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.endswith("must be finite\n")


def test_sample_rejects_zero_jobs(capsys):
    assert run(["sample", "--n", "2", "--d", "2", "--samples", "2", "--jobs", "0"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: jobs must be at least 1\n")


NU3 = ["--nu", "0,0", "--nu", "1,0", "--nu", "0,0"]


@pytest.mark.parametrize("argv", [
    ["sing", "--n", "2", "--d", "2", "--alpha", "nan,0", "--alpha", "0,0"],
    ["pushforward", "--n", "2", "--d", "2", "--alpha", "nan,0", "--alpha", "0,0"],
    ["sample", "--n", "-1", "--d", "2", "--samples", "2"],
    ["spectrum", "--n", "2", "--d", "2", "--m", "x"],
    ["submersion", "--n", "2", "--d", "2", "--m", "x"],
    ["defect", "--n", "3", "--d", "2", *NU3, "--coord-pair", "a,b"],
    # the parameter Jacobian is exact: no stencil and no step to choose
    ["submersion", "--n", "2", "--d", "2", "--stencil", "cauchy4"],
    ["derivs", "--n", "2", "--d", "2", "--fd-step", "1e-5"],
    # N would print with more digits than Python's int-to-str limit
    ["counts", "--n", "15000", "--d", "2"],
    ["counts", "--n", "100000", "--d", "2"],
], ids=" ".join)
def test_malformed_input_exits_two_without_traceback(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the library's "error: ..." line or argparse's "foliationlab <command>: error: ..."
    assert any(line.startswith("error: ") or ": error: " in line
               for line in captured.err.splitlines())
    assert "Traceback" not in captured.err


STILL_INVALID = [
    (["hyperplanes", "--n", "4", "--d", "2"], "error: aligned patterns need odd n and d >= 2"),
    (["defect", "--n", "4", "--d", "2", *NU3, "--nu", "0,0"],
     "error: aligned patterns need odd n and d >= 2"),
    (["defect", "--n", "3", "--d", "2"], "error: the following arguments are required: --nu"),
    (["defect", "--n", "3", "--d", "2", "--nu", "1,0"], "error: nu has 1 entries, expected 3"),
    (["sing", "--n", "2", "--d", "2", "--alpha", "0.01,0"], "error: alpha has 1 entries, expected 2"),
    (["defect", "--n", "3", "--d", "2", *NU3, "--coord-pair", "1,2,3"],
     "error: argument --coord-pair: expected 'i,j'"),
    (["defect", "--n", "3", "--d", "2", *NU3, "--mu-grid", "1e-2,1e-2"],
     "error: need at least two distinct mu values to fit a slope"),
    (["defect", "--n", "3", "--d", "2", *NU3, "--mu-grid", "1e-2,abc"],
     "error: argument --mu-grid: could not convert string to float: 'abc'"),
    (["sing", "--n", "2", "--d", "2", "--alpha", "1,2,3", "--alpha", "0,0"],
     "error: argument --alpha: expected 're,im' with two comma-separated reals, got '1,2,3'"),
    (["sing", "--n", "2", "--d", "2", "--alpha", "a,b", "--alpha", "0,0"],
     "error: argument --alpha: could not convert string to float: 'a'"),
    (["counts", "--n", "2", "--d", "0"], "error: degree must be an integer >= 1, got 0"),
    (["defect", "--n", "3", "--d", "2", "--nu", "inf,0", "--nu", "1,0", "--nu", "0,0"],
     "error: nu entries must be finite"),
    (["defect", "--n", "3", "--d", "2", "--nu", "0,0", "--nu", "nan,0", "--nu", "1,0"],
     "error: nu entries must be finite"),
]


@pytest.mark.parametrize("argv,message", STILL_INVALID, ids=[" ".join(a) for a, _ in STILL_INVALID])
def test_invalid_input_still_exits_two(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err and "Traceback" not in captured.err


def test_defect_takes_a_mu_grid(capsys):
    code, doc = _json(capsys, ["defect", "--n", "3", "--d", "2", *NU3, "--mu-grid", "1e-2,1e-3"])
    assert code == 0
    assert doc["payload"]["mus"] == [1e-2, 1e-3]
    assert doc["payload"] == json.loads(json.dumps(_jsonable(
        defect_experiment(3, 2, (0, 1, 0), (1e-2, 1e-3), RunConfig()))))


def test_defect_takes_a_coord_pair(capsys):
    code, doc = _json(capsys, ["defect", "--n", "3", "--d", "2", *NU3, "--coord-pair", "1,2"])
    assert code == 0
    assert doc["payload"]["coord_pair"] == [1, 2]
    assert doc["payload"] == json.loads(json.dumps(_jsonable(
        defect_experiment(3, 2, (0, 1, 0), (1e-2, 3e-3, 1e-3, 3e-4), RunConfig(), coord_pair=(1, 2)))))


OVERSIZED = [(["sing", "--n", "12", "--d", "4"], "MEMBER_MAX_ENTRIES"),
             (["sing", "--n", "2000", "--d", "1"], "MEMBER_MAX_ENTRIES"),
             (["pushforward", "--n", "12", "--d", "4"], "MEMBER_MAX_ENTRIES"),
             (["counts", "--n", "15000", "--d", "2"], "sys.get_int_max_str_digits()"),
             (["counts", "--n", "100000", "--d", "2"], "sys.get_int_max_str_digits()")]


@pytest.mark.parametrize("argv,limit", OVERSIZED, ids=[" ".join(argv) for argv, _ in OVERSIZED])
def test_oversized_member_exits_two(capsys, argv, limit):
    # the library refuses the input first, so a missing limit fails before the CLI runs
    with pytest.raises(InputError, match=re.escape(limit)):
        (counts if argv[0] == "counts" else FoliationParams)(int(argv[2]), int(argv[4]))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and limit in captured.err


def test_defect_usage_shows_nu_as_required(capsys):
    assert run(["defect", "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert " --nu RE,IM" in usage and "[--nu RE,IM]" not in usage


def test_convergence_failure_exits_three(capsys):
    code = run(["sing", "--n", "2", "--d", "2", "--alpha", "0.04,0",
                "--alpha", "0,0.03", "--max-iters", "1", "--newton-tol", "1e-15"])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_root_gate_fails_before_the_scan_limit_from_n_29(capsys):
    # the roots are computed before the divisor scan: at n = 29 they fail the
    # gate (exit 3) although the order-8 scan is above SCAN_MAX_BYTES, which
    # stops n = 17 (exit 2)
    argv = ["spectrum", "--n", "29", "--d", "1", "--alpha", "0.01,0"] + ["--alpha", "0,0"] * 28
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "relative residual 1.590e-10" in captured.err
    assert run(["spectrum", "--n", "17", "--d", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "SCAN_MAX_BYTES" in captured.err


def test_argparse_errors_pass_through(capsys):
    assert run(["counts", "--n", "2"]) == 2          # missing --d
    assert run(["nonsense"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert foliationlab.__version__ in capsys.readouterr().out


def test_every_run_config_flag_reaches_cfg(capsys):
    values = {"newton_tol": 1e-10, "max_iters": 7, "continuation_steps": 3, "dedup_tol": 1e-5,
              "radius": 0.04, "tol_hyp": 1e-8, "tol_nd": 1e-7,
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
     "m,abs_det,expected_modulus,rel_error,sv_min,sv_max,jac11_re,jac11_im,"
     "jac12_re,jac12_im,jac21_re,jac21_im,jac22_re,jac22_im"),
    (["derivs", "--n", "3", "--d", "2"],
     "i,j,explicit,value_re,value_im,formula_re,formula_im,rel_error"),
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
