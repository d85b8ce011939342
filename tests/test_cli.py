import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import belltest
from belltest import inequalities, lhv, montecarlo, optimizer, qm
from belltest.cli import main
from belltest.core import SinglesProbabilities, cos_double_angle
from belltest.inequalities import (
    FORMS,
    SettingsQuad,
    bell_1965,
    chsh,
    detection_inequality,
    detection_inequality_symmetric,
    ternary_inequality,
    ternary_inequality_symmetric,
)
from test_optimizer import surface_reference


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, f"stderr: {err}"
    return json.loads(out)


class TestVerifyTheorem:
    def test_exit_zero_and_payload(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-theorem"])
        assert code == 0
        payload = json.loads(out)
        assert payload["min_functional_value"] == -1
        assert payload["all_satisfied"] is True
        assert payload["n_assignments"] == 81
        assert len(payload["functional_values"]) == 81
        case_iii = payload["case_bounds"][2]
        assert case_iii == {
            "a_prime": "+", "b_prime": "-", "min_three_term": -3, "expected": -3,
        }

    def test_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, ["verify-theorem"])
        _, second, _ = run_cli(capsys, ["verify-theorem"])
        assert first == second


class TestEval:
    def test_detection_sym_undamped(self, capsys):
        payload = run_json(capsys, [
            "eval", "--ineq", "detection-sym", "--source", "qm-real",
            "--eta", "0.2", "--phi", "30", "--force-F", "1",
        ])
        assert payload["lhs"] == pytest.approx(-1.5, abs=1e-12)
        assert payload["violation_factor"] == pytest.approx(1.5, abs=1e-12)
        assert payload["violated"] is True
        assert payload["inputs"]["eta"] == 0.2

    def test_detection_undamped(self, capsys):
        payload = run_json(capsys, [
            "eval", "--ineq", "detection", "--source", "qm-real", "--force-F", "1",
        ])
        assert payload["lhs"] == pytest.approx(-1.5, abs=1e-12)

    def test_bell65_diffs(self, capsys):
        payload = run_json(capsys, [
            "eval", "--ineq", "bell65", "--source", "qm-ideal",
            "--diffs", "120,120,120",
        ])
        assert payload["lhs"] == pytest.approx(-1.5, abs=1e-12)

    def test_ternary_default_quad(self, capsys):
        payload = run_json(capsys, ["eval", "--ineq", "ternary"])
        assert payload["lhs"] == pytest.approx(-1.5, abs=1e-12)

    def test_chsh_optimal(self, capsys):
        payload = run_json(capsys, [
            "eval", "--ineq", "chsh", "--source", "qm-ideal",
            "--diffs", "22.5,22.5,22.5,67.5",
        ])
        assert payload["violation_factor"] == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, [
            "eval", "--ineq", "ternary", "--format", "csv",
        ])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "name,lhs,bound,margin,violation_factor,violated"
        assert lines[1].startswith("ternary,")

    def test_angles_and_diffs_conflict(self, capsys):
        code, _, err = run_cli(capsys, [
            "eval", "--ineq", "ternary", "--angles", "0,1,2,3", "--diffs", "1,2,3",
        ])
        assert code == 1
        assert "mutually exclusive" in err

    def test_source_mismatch(self, capsys):
        code, _, err = run_cli(capsys, [
            "eval", "--ineq", "detection", "--source", "qm-ideal",
        ])
        assert code == 1
        assert "qm-real" in err

    def test_bad_ineq_flag(self, capsys):
        code, _, _ = run_cli(capsys, ["eval", "--ineq", "nope"])
        assert code == 1

    def test_asymmetric_quad_rejected_for_symmetric_form(self, capsys):
        code, _, err = run_cli(capsys, [
            "eval", "--ineq", "ternary-sym", "--angles", "0,120,30,30",
        ])
        assert code == 1
        assert "shared cross difference" in err


def _ideal_reference(name, quad):
    a, b, ap, bp = quad.axes_degrees()
    e = (cos_double_angle(a - b), cos_double_angle(bp - a), cos_double_angle(b - ap))
    pair = qm.ideal_pair_probabilities(ap - bp)
    half = SinglesProbabilities(p_plus=0.5, p_zero=0.0, p_minus=0.5)
    if name == "ternary":
        return ternary_inequality(*e, pair, half, half)
    if name == "ternary-sym":
        return ternary_inequality_symmetric(e[0], pair.pp, pair.mm, (0.5, 0.5, 0.5, 0.5))
    if name == "bell65":
        return bell_1965(*e)
    return chsh(*e, cos_double_angle(ap - bp))


def _real_reference(name, quad, geom):
    a, b, ap, bp = quad.axes_degrees()
    s = geom.single_rate
    if name == "detection":
        return detection_inequality(
            qm.detection_rates(a, b, geom), qm.detection_rates(a, bp, geom),
            qm.detection_rates(ap, b, geom), qm.detection_rates(ap, bp, geom),
            (s, s), (s, s),
        )
    cross = qm.detection_rates(a, b, geom)
    primed = qm.detection_rates(ap, bp, geom)
    return detection_inequality_symmetric(
        cross.d_pp - cross.d_pm - cross.d_mp + cross.d_mm, math.fsum(cross.doubles()),
        primed.d_pp, primed.d_mm, math.fsum(primed.doubles()), s, s, 2.0 * s,
    )


REQUIRED_SOURCE = {
    "ternary": "qm-ideal", "ternary-sym": "qm-ideal", "bell65": "qm-ideal",
    "chsh": "qm-ideal", "detection": "qm-real", "detection-sym": "qm-real",
}


class TestFormRegistry:
    """Every (form, source) pair through the CLI, against the formulas called
    directly: the matching source evaluates, the other one is refused."""

    GEOMETRY = ["--eta", "0.3", "--phi", "40"]

    def test_table_names_every_form_once(self):
        assert tuple(FORMS) == tuple(REQUIRED_SOURCE)
        for name, form in FORMS.items():
            assert form.source.kind == REQUIRED_SOURCE[name]
        assert optimizer.INEQUALITIES == ("ternary", "detection")

    @pytest.mark.parametrize("diffs", ["120,120,120,0", "22.5,22.5,22.5,67.5"])
    @pytest.mark.parametrize("name", list(REQUIRED_SOURCE))
    def test_matching_source(self, capsys, name, diffs):
        source = REQUIRED_SOURCE[name]
        payload = run_json(capsys, [
            "eval", "--ineq", name, "--source", source, "--diffs", diffs, *self.GEOMETRY,
        ])
        echo = payload["inputs"]["quad"]
        quad = SettingsQuad.of(echo["a"], echo["b"], echo["a_prime"], echo["b_prime"])
        if source == "qm-ideal":
            expected = _ideal_reference(name, quad)
        else:
            expected = _real_reference(name, quad, qm.CascadeGeometry(eta=0.3, phi_deg=40.0))
        assert payload["name"] == name
        assert payload["lhs"] == expected.lhs

    @pytest.mark.parametrize("name", list(REQUIRED_SOURCE))
    def test_mismatched_source(self, capsys, name):
        required = REQUIRED_SOURCE[name]
        other = "qm-real" if required == "qm-ideal" else "qm-ideal"
        code, out, err = run_cli(capsys, ["eval", "--ineq", name, "--source", other])
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert required in json.loads(lines[0])["error"]

    @pytest.mark.parametrize("name", optimizer.INEQUALITIES)
    def test_scan_objective_is_the_table_evaluator(self, name):
        source = (
            qm.IdealSource() if REQUIRED_SOURCE[name] == "qm-ideal"
            else qm.RealSource(qm.CascadeGeometry(eta=0.3, phi_deg=40.0))
        )
        for axes in [(0, 0, 0, 0), (0, 120, 240, 120), (10.5, 77.25, 133, 133), (5, 50, 95, 140)]:
            quad = SettingsQuad.of(*axes)
            assert optimizer.objective(quad, name, source) == FORMS[name].evaluate(quad, source).lhs


class TestMc:
    COMMON = [
        "mc", "--pairs", "200000", "--seed", "7",
        "--eta", "0.2", "--phi", "30", "--force-F", "1",
    ]

    def test_runs_and_reports(self, capsys):
        payload = run_json(capsys, self.COMMON)
        assert payload["name"] == "detection-sym"
        assert payload["std_error"] > 0
        assert abs(payload["lhs"] - (-1.5)) < 5 * payload["std_error"]
        assert payload["inputs"]["seed"] == 7

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, self.COMMON)
        _, second, _ = run_cli(capsys, self.COMMON)
        assert first == second

    def test_workers_do_not_change_output(self, capsys):
        _, first, _ = run_cli(capsys, self.COMMON)
        _, second, _ = run_cli(capsys, self.COMMON + ["--workers", "4"])
        first_payload = json.loads(first)
        second_payload = json.loads(second)
        assert first_payload["lhs"] == second_payload["lhs"]

    def test_counter_and_manifest_files(self, capsys, tmp_path):
        counters = tmp_path / "counts.csv"
        manifest = tmp_path / "run.txt"
        argv = self.COMMON + ["--counters", str(counters), "--manifest", str(manifest)]
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        lines = counters.read_text().strip().split("\n")
        assert lines[0] == "pair,cell,count"
        assert len(lines) == 1 + 36
        first_bytes = counters.read_bytes()
        run_cli(capsys, argv)
        assert counters.read_bytes() == first_bytes
        assert manifest.read_text().startswith("belltest run manifest\n")

    def test_pairs_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["mc", "--pairs", "0"])
        assert code == 1
        assert "--pairs" in err

    def test_pairs_above_budget_rejected(self, capsys):
        pairs = str(montecarlo.MAX_PAIRS_PER_SETTING + 1)
        code, out, err = run_cli(capsys, ["mc", "--pairs", pairs])
        assert code == 1
        assert out == ""
        assert "--pairs" in err

    def test_env_seed_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLTEST_SEED", "7")
        no_seed_argv = [
            "mc", "--pairs", "200000", "--eta", "0.2", "--phi", "30", "--force-F", "1",
        ]
        env_payload = run_json(capsys, no_seed_argv)
        explicit_payload = run_json(capsys, self.COMMON)
        assert env_payload["lhs"] == explicit_payload["lhs"]
        assert env_payload["inputs"]["seed"] == 7

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLTEST_SEED", "99")
        payload = run_json(capsys, self.COMMON)
        assert payload["inputs"]["seed"] == 7

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLTEST_SEED", "not-a-number")
        code, _, err = run_cli(capsys, ["mc", "--pairs", "1000"])
        assert code == 1
        assert "BELLTEST_SEED" in err

    def test_ideal_source(self, capsys):
        payload = run_json(capsys, [
            "mc", "--pairs", "100000", "--seed", "3", "--source", "qm-ideal",
        ])
        assert abs(payload["lhs"] - (-1.5)) < 5 * max(payload["std_error"], 1e-9)

    def test_lhv_source(self, capsys, tmp_path):
        path = tmp_path / "uniform.lhv"
        lhv.save_model(lhv.FourAxisModel.uniform(), path)
        payload = run_json(capsys, [
            "mc", "--pairs", "100000", "--seed", "3", "--source", "lhv",
            "--model", str(path),
        ])
        assert payload["margin"] >= -3 * payload["std_error"]

    def test_lhv_source_requires_model(self, capsys):
        code, _, err = run_cli(capsys, ["mc", "--source", "lhv", "--pairs", "10"])
        assert code == 1
        assert "--model" in err

    def test_corrupt_model_file(self, capsys, tmp_path):
        path = tmp_path / "bad.lhv"
        path.write_text("++++ 1.0\n")
        code, _, err = run_cli(capsys, [
            "mc", "--source", "lhv", "--model", str(path), "--pairs", "10",
        ])
        assert code == 1
        assert "missing" in err

    def test_infinite_sigma_distance_is_json_null(self, capsys):
        # Zero spread at margin 4 puts sigma_distance at +infinity.
        code, out, _ = run_cli(capsys, [
            "mc", "--source", "qm-ideal", "--diffs", "0,0,0", "--pairs", "1000",
        ])
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(out, parse_constant=reject)
        assert payload["std_error"] == 0.0
        assert payload["margin"] == 4.0
        assert payload["sigma_distance"] is None

    def test_infinite_sigma_distance_stays_inf_in_csv(self, capsys):
        code, out, _ = run_cli(capsys, [
            "mc", "--source", "qm-ideal", "--diffs", "0,0,0", "--pairs", "1000",
            "--format", "csv",
        ])
        assert code == 0
        header, row = out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["sigma_distance"] == "inf"


class TestScan:
    def test_coarse_scan(self, capsys):
        payload = run_json(capsys, ["scan", "--step", "15", "--rounds", "3"])
        assert payload["best_lhs"] == pytest.approx(-1.5, abs=1e-4)
        assert payload["best_factor"] >= 1.4999

    def test_surface_csv(self, capsys, tmp_path):
        surface = tmp_path / "surface.csv"
        code, _, _ = run_cli(capsys, [
            "scan", "--step", "45", "--rounds", "0", "--surface", str(surface),
        ])
        assert code == 0
        lines = surface.read_text().strip().split("\n")
        assert lines[0] == "a,b,a_prime,b_prime,lhs"
        assert len(lines) == 1 + 4 ** 3

    def test_step_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, ["scan", "--step", "60"])
        assert code == 1
        assert "--step" in err

    @pytest.mark.parametrize("rounds", ["-1", str(optimizer.MAX_REFINE_ROUNDS + 1), "100000000"])
    def test_rounds_out_of_range(self, capsys, rounds):
        code, out, err = run_cli(capsys, ["scan", "--step", "45", "--rounds", rounds])
        assert code == 1
        assert out == ""
        assert "--rounds" in err

    def test_most_rounds_still_run(self, capsys):
        payload = run_json(capsys, [
            "scan", "--step", "45", "--rounds", str(optimizer.MAX_REFINE_ROUNDS),
        ])
        assert payload["best_lhs"] == pytest.approx(-1.5, abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ["--ineq", "ternary"],
        ["--ineq", "detection", "--source", "qm-real", "--eta", "0.3", "--phi", "40"],
    ])
    def test_surface_rows_match_collected_surface(self, capsys, tmp_path, argv):
        surface = tmp_path / "surface.csv"
        code, _, _ = run_cli(capsys, [
            "scan", "--step", "22.5", "--rounds", "0", "--surface", str(surface), *argv,
        ])
        assert code == 0
        source = (
            qm.IdealSource() if argv[1] == "ternary"
            else qm.RealSource(qm.CascadeGeometry(eta=0.3, phi_deg=40.0))
        )
        axes, planes = optimizer.lhs_planes(argv[1], source, 22.5)
        assert surface.read_bytes() == surface_reference(np.asarray(axes).tolist(), planes)

    def test_detection_scan(self, capsys):
        payload = run_json(capsys, [
            "scan", "--ineq", "detection", "--source", "qm-real",
            "--step", "15", "--rounds", "3", "--force-F", "1",
        ])
        assert payload["best_lhs"] == pytest.approx(-1.5, abs=1e-4)

    # SHA-256 of scan stdout (JSON, CSV) and of the --surface file, taken from
    # the output before the scanned forms' plane formulas moved into FORMS.
    # 13 degrees does not divide 180, so the a = 0 plane is an open step.
    @pytest.mark.parametrize("ineq,source,step,rounds,json_sha,csv_sha,surface_sha", [
        ("ternary", "qm-ideal", "15", "0",
         "df78b90b530d897deee335e0a81d71c5f05d118509dde96a2003e02b950d70ae",
         "7e38084863b101fd65de5b2882d126184efbe72d81df372ca6e26fb5f973abdb",
         "1d06785900bf3754edfdcae0991b2728112c34346ba5baea6b8c32696de840d2"),
        ("ternary", "qm-ideal", "15", "2",
         "c8c24b7ffa95d37778e79b94724f1301462700e16ac4c97addee72ad47aab33f",
         "7e38084863b101fd65de5b2882d126184efbe72d81df372ca6e26fb5f973abdb",
         "1d06785900bf3754edfdcae0991b2728112c34346ba5baea6b8c32696de840d2"),
        ("ternary", "qm-ideal", "13", "0",
         "ff81aaf0ee44c3624b0fd53e14ad16c0a9acc9288c5b832226d672401f7e0dec",
         "5e997312ee61dd52ddbc9fd4ad4335859b5bd687139264661dc25241046b83e9",
         "9dc0aa462f39a84336d78db3c118d083e30f632e0d8bb25a16b0cc2ddb9b08fd"),
        ("ternary", "qm-ideal", "13", "2",
         "46f05f171f4422e1161418cc38dadfaf78d7dfcf5ba5837d09ee1d479fa06ff8",
         "167515e535c03a87cad63ff4e56e777d4be4d9fdd47b5a049ecb4baef83db429",
         "9dc0aa462f39a84336d78db3c118d083e30f632e0d8bb25a16b0cc2ddb9b08fd"),
        ("detection", "qm-real", "15", "0",
         "e206f023f1f0c08e565365054da118b7937d21930e8adf5c246847a1da2eb00e",
         "bf61a930dd4714fe942bf2ce9fa65ae7ea8c17112c74db3d3ba7d4e08961eebe",
         "4f805b01f05c80076d5cad7862e63c94b5f14db4f753243550bcbb5fb607ebcd"),
        ("detection", "qm-real", "15", "2",
         "f86d16fb59e38ee7a0e1dea31c018c24d19257086aa0f0e3b68fd5afd0a0f40c",
         "bf61a930dd4714fe942bf2ce9fa65ae7ea8c17112c74db3d3ba7d4e08961eebe",
         "4f805b01f05c80076d5cad7862e63c94b5f14db4f753243550bcbb5fb607ebcd"),
        ("detection", "qm-real", "13", "0",
         "c818fbba5f07ae20dc301f76537a017ba5f1dcbbae083396256af6f1f33904b1",
         "2deb52771f78ca7b2b4debd696a0587a56b64f56b37789e637fee49a828861a4",
         "d27447484863d150f774bf617c41ed81f35722cc6ea33904a4f443f3706e5b47"),
        ("detection", "qm-real", "13", "2",
         "d7737c8b08b55ea46a3c2f1abe715ee0e164421431dadb283eeecd85fd516aab",
         "6918d40e3f0cdab7d57f1c225dcd2b70b31e123b2cae50183c733adb6430c2b3",
         "d27447484863d150f774bf617c41ed81f35722cc6ea33904a4f443f3706e5b47"),
    ])
    def test_scan_bytes_are_pinned(self, capsys, tmp_path, ineq, source, step, rounds,
                                   json_sha, csv_sha, surface_sha):
        surface = tmp_path / "surface.csv"
        argv = ["scan", "--ineq", ineq, "--source", source, "--step", step, "--rounds", rounds]
        code, out, _ = run_cli(capsys, [*argv, "--surface", str(surface)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == json_sha
        assert hashlib.sha256(surface.read_bytes()).hexdigest() == surface_sha
        code, out, _ = run_cli(capsys, [*argv, "--format", "csv"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == csv_sha

    # SHA-256 of the --surface file, taken from the output of the per-row repr
    # writer: step 2 is the benchmark surface; 7 and 11 do not divide 180.
    @pytest.mark.parametrize("ineq,source,step,surface_sha", [
        ("ternary", "qm-ideal", "2",
         "02c74caa84efe38c7eb20454deaa8a2625e65ff1871fc4f450a204d41df7a5ba"),
        ("ternary", "qm-ideal", "3",
         "ce5311d7812798e772cbe33842459113345ae01fb04a9347fc551756858ab588"),
        ("ternary", "qm-ideal", "7",
         "b9d4dacaa56a956243b8ce0ead731cd7d3612a5311bfe4f6e1f5f8c8015f4c54"),
        ("ternary", "qm-ideal", "11",
         "701134cd32b4e08700a68741b1ab2ef3d72d56830159c8090a31e52e3bb630dd"),
        ("detection", "qm-real", "2",
         "fe82775004c38305304a822e7942c38eefd75d445ffbdcdf2fdc3e4fcd908404"),
        ("detection", "qm-real", "3",
         "b2d7f0d66b1164652519491855a28ef9b02b61265a4ccad077ebd39d9503072b"),
        ("detection", "qm-real", "7",
         "c1e090bbb22eb7bc9ae82694ce63d57aff74f2dc7078d3df373b2957f73b3654"),
        ("detection", "qm-real", "11",
         "331ee325b1f128a09131c248f2d47f1b3c03800d4ec4c13c12dc68d2491084bd"),
    ])
    def test_surface_bytes_are_pinned(self, capsys, tmp_path, ineq, source, step, surface_sha):
        surface = tmp_path / "surface.csv"
        code, _, _ = run_cli(capsys, [
            "scan", "--ineq", ineq, "--source", source, "--step", step, "--rounds", "0",
            "--surface", str(surface),
        ])
        assert code == 0
        assert hashlib.sha256(surface.read_bytes()).hexdigest() == surface_sha

    @pytest.mark.parametrize("step", [
        "0.1", "0.5", repr(inequalities.MIN_SURFACE_STEP_DEG * (1.0 - 1e-9)),
    ])
    def test_surface_step_below_budget_rejected(self, capsys, tmp_path, step):
        surface = tmp_path / "surface.csv"
        code, out, err = run_cli(capsys, ["scan", "--step", step, "--surface", str(surface)])
        assert code == 1
        assert out == ""
        assert "--surface" in json.loads(err)["error"]
        assert not surface.exists()

    def test_surface_budget(self):
        assert inequalities.MAX_SURFACE_AXIS_POINTS ** 3 == 2 ** 24
        # The smallest accepted step gives exactly the budgeted axis.
        axis = np.arange(0.0, 180.0, inequalities.MIN_SURFACE_STEP_DEG)
        assert axis.size == inequalities.MAX_SURFACE_AXIS_POINTS


class TestErrorContract:
    @pytest.mark.parametrize("argv", [
        ["eval", "--ineq", "ternary", "--angles", "inf,0,0,0"],
        ["eval", "--ineq", "ternary-sym", "--diffs", "inf,120,120,0"],
        ["scan", "--step", "1e-300"],
        ["scan", "--step", "0.01"],
        ["eval", "--ineq", "nope"],
        ["mc", "--pairs", "abc"],
        ["eval", "--ineq", "ternary", "--bogus"],
        [],
        ["mc", "--pairs", str(montecarlo.MAX_PAIRS_PER_SETTING + 1)],
        ["scan", "--step", "45", "--rounds", "100000000"],
        ["eval", "--ineq", "ternary", "--diffs", "1e308,120,120"],
        ["mc", "--diffs", "1e308,120,120"],
        ["eval", "--ineq", "ternary", "--diffs=1,1,1,1e308"],
        ["eval", "--ineq", "ternary", "--angles", "1,2,x,4"],
        ["eval", "--ineq", "ternary", "--diffs", "1,2"],
        ["eval", "--ineq", "ternary", "--diffs", "1,2,3,4,5"],
        ["mc", "--workers", "0"],
        ["mc", "--source", "qm-ideal", "--pairs", "10",
         "--counters", str(Path(__file__).parent / "no-such-dir" / "c.csv")],
    ])
    def test_bad_input_gives_one_json_error(self, argv):
        self.assert_one_json_error(argv)

    @pytest.mark.parametrize("argv, stderr", [
        (["mc", "--pairs", "0"],
         '{"error": "--pairs must be in [1, 1099511627776], got 0"}\n'),
        (["mc", "--pairs", str(2**40 + 1)],
         '{"error": "--pairs must be in [1, 1099511627776], got 1099511627777"}\n'),
        (["mc", "--pairs", "-5"],
         '{"error": "--pairs must be in [1, 1099511627776], got -5"}\n'),
        (["scan", "--step", "60"],
         '{"error": "--step must be in [0.087890625, 45.0], got 60.0"}\n'),
        (["scan", "--step", "0.01"],
         '{"error": "--step must be in [0.087890625, 45.0], got 0.01"}\n'),
        (["scan", "--step", "nan"],
         '{"error": "--step must be in [0.087890625, 45.0], got nan"}\n'),
        (["scan", "--step", "inf"],
         '{"error": "--step must be in [0.087890625, 45.0], got inf"}\n'),
        (["scan", "--step", "-1"],
         '{"error": "--step must be in [0.087890625, 45.0], got -1.0"}\n'),
        (["scan", "--rounds", "65"],
         '{"error": "--rounds must be in [0, 64], got 65"}\n'),
        (["scan", "--rounds", "-1"],
         '{"error": "--rounds must be in [0, 64], got -1"}\n'),
        (["scan", "--rounds", str(10**8)],
         '{"error": "--rounds must be in [0, 64], got 100000000"}\n'),
        (["eval", "--ineq", "detection", "--source", "qm-real", "--eta", "0"],
         '{"error": "eta must be in (0, 1], got 0.0"}\n'),
        (["eval", "--ineq", "detection", "--source", "qm-real", "--eta", "1.5"],
         '{"error": "eta must be in (0, 1], got 1.5"}\n'),
        (["eval", "--ineq", "detection", "--source", "qm-real", "--eta", "nan"],
         '{"error": "eta must be in (0, 1], got nan"}\n'),
        (["eval", "--ineq", "detection", "--source", "qm-real", "--phi", "0"],
         '{"error": "phi_deg must be in (0, 90], got 0.0"}\n'),
        (["eval", "--ineq", "detection", "--source", "qm-real", "--phi", "90.5"],
         '{"error": "phi_deg must be in (0, 90], got 90.5"}\n'),
        (["eval", "--ineq", "detection", "--source", "qm-real", "--force-F", "1.5"],
         '{"error": "f_override must be in [0, 1], got 1.5"}\n'),
        (["eval", "--ineq", "detection", "--source", "qm-real", "--force-F", "-0.1"],
         '{"error": "f_override must be in [0, 1], got -0.1"}\n'),
        (["eval", "--ineq", "detection", "--source", "qm-real", "--force-F", "nan"],
         '{"error": "f_override must be in [0, 1], got nan"}\n'),
        (["eval", "--ineq", "ternary", "--diffs", "1e308,1,1e308"],
         '{"error": "differences (1e+308, 1.0, 1e+308, 0.0) are too large to realize"}\n'),
        (["eval", "--ineq", "bell65", "--diffs", "1e308,1,1e308"],
         '{"error": "differences (1e+308, 1.0, 1e+308, 0.0) are too large to realize"}\n'),
    ])
    def test_out_of_range_error_text(self, capsys, argv, stderr):
        assert run_cli(capsys, argv) == (1, "", stderr)

    @pytest.mark.parametrize("argv", [
        ["eval", "--ineq", "detection", "--source", "qm-real", "--eta", "1"],
        ["eval", "--ineq", "detection", "--source", "qm-real", "--phi", "90"],
        ["eval", "--ineq", "detection", "--source", "qm-real", "--force-F", "0"],
        ["eval", "--ineq", "detection", "--source", "qm-real", "--force-F", "1"],
        ["scan", "--step", repr(optimizer.MIN_STEP_DEG), "--rounds", "0"],
        ["scan", "--step", "45", "--rounds", "64"],
        ["mc", "--pairs", "1", "--source", "qm-ideal", "--seed", "0"],
    ])
    def test_range_boundaries_still_run(self, capsys, argv):
        run_json(capsys, argv)

    def test_non_utf8_model_file_gives_one_json_error(self, tmp_path):
        path = tmp_path / "latin1.lhv"
        path.write_bytes(b"\xff\xfe++++ 1.0\n")
        message = self.assert_one_json_error(
            ["mc", "--source", "lhv", "--model", str(path), "--pairs", "10"]
        )
        assert "UTF-8" in message

    @pytest.mark.parametrize("text, needle", [
        ("++++ 1.0 extra\n", "line 1: expected '<key> <weight>'"),
        ("++++ abc\n", "line 1: bad weight 'abc'"),
    ])
    def test_malformed_model_line_gives_one_json_error(self, tmp_path, text, needle):
        path = tmp_path / "bad.lhv"
        path.write_text(text, encoding="utf-8")
        message = self.assert_one_json_error(
            ["mc", "--source", "lhv", "--model", str(path), "--pairs", "10"]
        )
        assert needle in message

    def test_oversized_model_file_gives_one_json_error(self, tmp_path):
        path = tmp_path / "big.lhv"
        path.write_bytes(b"#" * (lhv.MAX_MODEL_BYTES + 1))
        message = self.assert_one_json_error(
            ["mc", "--source", "lhv", "--model", str(path), "--pairs", "10"]
        )
        assert str(lhv.MAX_MODEL_BYTES) in message

    @staticmethod
    def assert_one_json_error(argv):
        env = {**os.environ, "PYTHONPATH": str(Path(belltest.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "belltest", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert set(payload) == {"error"}
        return payload["error"]


class TestParsing:
    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, ["frobnicate"])
        assert code == 1

    @pytest.mark.parametrize("argv, needle", [
        (["eval", "--ineq", "nope"], "--ineq"),
        (["mc", "--pairs", "abc"], "--pairs"),
        (["eval", "--ineq", "ternary", "--bogus"], "--bogus"),
        ([], "command"),
        (["frobnicate"], "frobnicate"),
        (["eval", "--ineq", "ternary", "--angles", "--format", "csv"],
         "--angles: expected one argument"),
    ])
    def test_usage_error_is_one_json_line(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["error"]
        assert needle in message

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["--help"])
        assert code == 0
        assert "belltest" in out

    def test_bad_angles_count(self, capsys):
        code, _, err = run_cli(capsys, ["eval", "--ineq", "ternary", "--angles", "1,2"])
        assert code == 1
        assert "--angles" in err

    def test_value_list_may_start_with_minus(self, capsys):
        spaced = run_cli(capsys, ["eval", "--ineq", "ternary", "--diffs", "-120,-120,-120"])
        joined = run_cli(capsys, ["eval", "--ineq", "ternary", "--diffs=-120,-120,-120"])
        assert spaced == joined
        assert spaced[0] == 0
        assert json.loads(spaced[1])["inputs"]["quad"]["b"] == 60.0

    def test_eval_and_scan_byte_stable(self, capsys):
        for argv in (
            ["eval", "--ineq", "detection", "--source", "qm-real"],
            ["scan", "--step", "20", "--rounds", "2"],
        ):
            _, first, _ = run_cli(capsys, argv)
            _, second, _ = run_cli(capsys, argv)
            assert first == second

    def test_module_entry_point(self):
        pythonpath = [str(Path(belltest.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
        result = subprocess.run(
            [sys.executable, "-m", "belltest", "verify-theorem"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert '"min_functional_value": -1' in result.stdout
