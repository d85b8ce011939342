import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import belltest
from belltest import inequalities, lhv, montecarlo, optimizer, qm
from belltest.cli import main
from belltest.core import SinglesProbabilities, ValidationError, cos_double_angle
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
from test_optimizer import _numpy_planes, surface_reference

ENTRY_POINTS = Path(__file__).with_name("entry_points.txt")
"""One argv per line, shell-split: the commands CI also runs through the console script."""


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
        assert payload["inputs"]["f_factor"] == 1.0

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
            f, expected = 1.0, _ideal_reference(name, quad)
        else:
            geom = qm.CascadeGeometry(eta=0.3, phi_deg=40.0)
            f, expected = geom.f_factor, _real_reference(name, quad, geom)
        assert payload["name"] == name
        if name in ("bell65", "chsh"):
            assert payload["lhs"] == expected.lhs
            return
        # Every ternary form at a qm source is F S + 1: one fsum of the
        # F-scaled correlations and the 1, a few ulps from the term rule.
        e1, e2, e3, e4 = (cos_double_angle(x1 - x2) for x1, x2 in quad.pair_axes())
        assert payload["lhs"] == math.fsum((f * e1, f * e2, f * e3, -f * e4, 1.0))
        assert abs(payload["lhs"] - expected.lhs) <= 1e-14

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

    @pytest.mark.parametrize("name", ["ternary-sym", "detection-sym"])
    def test_symmetric_form_rejects_asymmetric_quad_itself(self, capsys, name):
        # The form's own evaluate holds the symmetry rule; eval only reports it.
        source = (
            qm.IdealSource() if REQUIRED_SOURCE[name] == "qm-ideal"
            else qm.RealSource(qm.CascadeGeometry(eta=0.3, phi_deg=40.0))
        )
        with pytest.raises(ValidationError) as raised:
            FORMS[name].evaluate(SettingsQuad(0, 30, 100, 50), source)
        code, out, err = run_cli(capsys, [
            "eval", "--ineq", name, "--source", REQUIRED_SOURCE[name],
            "--angles", "0,30,100,50", *self.GEOMETRY,
        ])
        assert (code, out) == (1, "")
        assert str(raised.value) == json.loads(err)["error"] == (
            f"--ineq {name} assumes one shared cross difference; use --diffs d,d,d[,d4]"
        )

    @pytest.mark.parametrize("name", optimizer.INEQUALITIES)
    def test_scan_objective_is_the_table_evaluator(self, name):
        source = (
            qm.IdealSource() if REQUIRED_SOURCE[name] == "qm-ideal"
            else qm.RealSource(qm.CascadeGeometry(eta=0.3, phi_deg=40.0))
        )
        for axes in [(0, 0, 0, 0), (0, 120, 240, 120), (10.5, 77.25, 133, 133), (5, 50, 95, 140)]:
            quad = SettingsQuad.of(*axes)
            assert optimizer.objective(quad, name, source) == FORMS[name].evaluate(quad, source).lhs


@pytest.mark.parametrize("command", [
    "eval --ineq detection --source qm-real --eta 1e-160 --phi 30",
    "eval --ineq detection-sym --source qm-real --eta 1e-300",
    "scan --ineq detection --source qm-real --eta 1e-200 --step 15",
])
def test_underflowing_rates_read_as_at_eta_1(capsys, command):
    # The rates carry eta^2 and underflow here; the lhs is F S + 1 all the same.
    tiny = shlex.split(command)
    at_one = list(tiny)
    at_one[tiny.index("--eta") + 1] = "1"
    payloads = [run_json(capsys, argv) for argv in (tiny, at_one)]
    for payload in payloads:
        del payload["inputs"]["eta"]
    assert payloads[0] == payloads[1]


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

    def test_manifest_records_the_normalized_axes(self, capsys, tmp_path):
        # -360 normalizes to -0.0; 480, -300 and -600 to 120, 60 and 120.
        manifest = tmp_path / "manifest.txt"
        code, _, _ = run_cli(capsys, [
            "mc", "--source", "qm-ideal", "--angles=-360,480,-300,-600", "--pairs", "1000",
            "--manifest", str(manifest),
        ])
        assert code == 0
        assert manifest.read_text(encoding="utf-8").splitlines()[1:5] == [
            "quad_a=-0.0", "quad_b=120.0", "quad_a_prime=60.0", "quad_b_prime=120.0",
        ]

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

    # An integer once set the seed; a non-integer once failed with exit 1.
    @pytest.mark.parametrize("value", ["7", "not-a-number"])
    def test_environment_seed_is_ignored(self, capsys, monkeypatch, value):
        argv = ["mc", "--pairs", "1000", "--source", "qm-ideal"]
        monkeypatch.delenv("BELLTEST_SEED", raising=False)
        code, expected, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(expected)["inputs"]["seed"] == 0
        monkeypatch.setenv("BELLTEST_SEED", value)
        assert run_cli(capsys, argv) == (0, expected, "")

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
        axes = np.arange(0.0, 180.0, 22.5).tolist()
        planes = _numpy_planes(*FORMS[argv[1]].plane(source), 22.5)
        assert surface.read_bytes() == surface_reference(axes, planes)

    def test_detection_scan(self, capsys):
        payload = run_json(capsys, [
            "scan", "--ineq", "detection", "--source", "qm-real",
            "--step", "15", "--rounds", "3", "--force-F", "1",
        ])
        assert payload["best_lhs"] == pytest.approx(-1.5, abs=1e-4)

    REAL_SCAN = [
        "scan", "--ineq", "detection", "--source", "qm-real",
        "--step", "15", "--rounds", "0", "--eta", "0.37", "--phi", "41.3",
    ]

    @pytest.mark.parametrize("force", [[], ["--force-F", "1"]], ids=["F", "force-F"])
    def test_real_scan_echoes_geometry(self, capsys, force):
        inputs = run_json(capsys, self.REAL_SCAN + force)["inputs"]
        assert inputs == {
            "ineq": "detection", "source": "qm-real", "step_deg": 15.0, "refine_rounds": 0,
            "eta": 0.37, "phi_deg": 41.3, "f_override": 1.0 if force else None,
            "f_factor": 1.0 if force else qm.depolarization_factor(41.3),
        }

    def test_ideal_scan_echoes_no_geometry(self, capsys):
        inputs = run_json(capsys, ["scan", "--step", "15", "--rounds", "0"])["inputs"]
        assert inputs == {
            "ineq": "ternary", "source": "qm-ideal", "step_deg": 15.0, "refine_rounds": 0,
        }

    def test_json_fields_are_the_csv_columns(self, capsys):
        payload = run_json(capsys, self.REAL_SCAN)
        _, out, _ = run_cli(capsys, self.REAL_SCAN + ["--format", "csv"])
        header, row = out.splitlines()
        assert list(payload) == header.split(",") + ["inputs"]
        assert [repr(payload[name]) for name in header.split(",")] == row.split(",")

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

    # CI runs the commands of entry_points.txt through the installed console
    # script and through `python -m belltest` and compares what they print and
    # write; here the module entry point is compared with cli.main run in process.
    @pytest.mark.parametrize("argv", [
        shlex.split(line) for line in ENTRY_POINTS.read_text(encoding="utf-8").splitlines()
    ], ids=" ".join)
    def test_module_entry_point_matches_main(self, capsys, tmp_path, monkeypatch, argv):
        module, in_process = tmp_path / "module", tmp_path / "main"
        module.mkdir()
        in_process.mkdir()
        pythonpath = [str(Path(belltest.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
        result = subprocess.run(
            [sys.executable, "-m", "belltest", *argv],
            capture_output=True, text=True, env=env, timeout=60, cwd=module,
        )
        monkeypatch.chdir(in_process)
        assert (result.returncode, result.stdout, result.stderr) == run_cli(capsys, argv)
        written = [{path.name: path.read_bytes() for path in root.iterdir()}
                   for root in (module, in_process)]
        assert written[0] == written[1]
