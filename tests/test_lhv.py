import itertools
import math

import numpy as np
import pytest

from belltest import core, inequalities, lhv
from belltest.core import Outcome, ValidationError
from belltest.lhv import (
    DeterministicAssignment,
    FourAxisModel,
    ModelFileError,
    bell_functional,
    enumerate_assignments,
    mixture_functional,
    pair_probabilities,
    random_model,
    verify_theorem,
)

P, Z, M = Outcome.PLUS, Outcome.ZERO, Outcome.MINUS


def ternary_lhs_from_model(model):
    """Independent path to the mixture value: marginalized probabilities."""
    e = lambda s1, s2: core.expectation(pair_probabilities(model, s1, s2))
    pair = pair_probabilities(model, "a_prime", "b_prime")
    singles_ap, _ = core.marginals(pair)
    _, singles_bp = core.marginals(pair)
    report = inequalities.ternary_inequality(
        e("a", "b"), e("a", "b_prime"), e("a_prime", "b"),
        pair, singles_ap, singles_bp,
    )
    return report.lhs


class TestEnumeration:
    def test_count_and_distinct(self):
        assignments = enumerate_assignments()
        assert len(assignments) == 81
        assert len(set(assignments)) == 81

    def test_first_and_last(self):
        assignments = enumerate_assignments()
        assert assignments[0].key() == "++++"
        assert assignments[-1].key() == "----"

    def test_index_round_trip(self):
        for i, assignment in enumerate(enumerate_assignments()):
            assert lhv.assignment_index(assignment) == i

    def test_index_is_base_three_over_the_key(self):
        # (+, 0, -) are the digits 0, 1, 2, with a as the most significant.
        for assignment in enumerate_assignments():
            key = assignment.key()
            digits = ["+0-".index(ch) for ch in key]
            expected = 27 * digits[0] + 9 * digits[1] + 3 * digits[2] + digits[3]
            assert lhv.assignment_index(DeterministicAssignment.from_key(key)) == expected

    def test_key_round_trip(self):
        for assignment in enumerate_assignments():
            assert DeterministicAssignment.from_key(assignment.key()) == assignment

    def test_short_key_rejected(self):
        with pytest.raises(ValidationError, match="assignment key must have 4 characters"):
            DeterministicAssignment.from_key("+0")


class TestFourAxisModel:
    def test_validation(self):
        with pytest.raises(ValidationError):
            FourAxisModel(tuple([0.0] * 81))
        with pytest.raises(ValidationError):
            FourAxisModel(tuple([1.0 / 80.0] * 80))
        with pytest.raises(ValidationError):
            FourAxisModel((-0.01,) + tuple([1.01 / 80] * 80))

    def test_point_mass(self):
        target = DeterministicAssignment(P, P, M, M)
        model = FourAxisModel.point_mass(target)
        assert model.weight(target) == 1.0
        assert math.fsum(model.weights) == 1.0

    @pytest.mark.parametrize("value", [-1e-13, math.nan, math.inf])
    def test_bad_weight_text(self, value):
        weights = (value,) + (1.0 / 80.0,) * 80
        with pytest.raises(ValidationError) as info:
            FourAxisModel(weights)
        assert str(info.value) == f"weights must be finite and >= 0, got {value!r}"

    def test_sum_message_is_unchanged(self):
        with pytest.raises(ValidationError) as info:
            FourAxisModel((0.5,) * 81)
        assert str(info.value) == "weights sum to 40.5, expected 1"

    def test_sum_within_tolerance_marginalizes(self):
        # A model summing to 1 + 5e-10 is valid, and so is each pair cell and
        # marginal built from it, though one cell reads 1.0000000005.
        model = FourAxisModel.point_mass(DeterministicAssignment(P, P, P, P))
        model = FourAxisModel(tuple(w * (1.0 + 5e-10) for w in model.weights))
        for side1, side2 in core.PAIRS.values():
            pair = pair_probabilities(model, side1, side2)
            assert pair.pp == 1.0 + 5e-10
            for singles in core.marginals(pair):
                assert singles.p_plus == 1.0 + 5e-10

    def test_random_model_deterministic(self):
        assert random_model(123).weights == random_model(123).weights
        assert random_model(123).weights != random_model(124).weights

    def test_random_model_normalized(self):
        for seed in range(20):
            assert math.fsum(random_model(seed).weights) == pytest.approx(1.0, abs=1e-12)


class TestPairProbabilities:
    def test_point_mass_ab(self):
        model = FourAxisModel.point_mass(DeterministicAssignment(P, P, M, M))
        pair = pair_probabilities(model, "a", "b")
        assert pair.pm == 1.0

    def test_point_mass_primed(self):
        model = FourAxisModel.point_mass(DeterministicAssignment(P, P, M, M))
        pair = pair_probabilities(model, "a_prime", "b_prime")
        assert pair.pm == 1.0

    def test_uniform_every_cell(self):
        model = FourAxisModel.uniform()
        for side1, side2 in itertools.product(("a", "a_prime"), ("b", "b_prime")):
            pair = pair_probabilities(model, side1, side2)
            for cell in pair.cells():
                assert cell == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_bad_selector(self):
        # Only the core.PAIRS axis pairs exist: a same-side or swapped pair is
        # rejected like an unknown axis name.
        for side1, side2 in (("c", "b"), ("a", "a_prime"), ("b", "a")):
            with pytest.raises(ValidationError, match="unknown setting pair"):
                pair_probabilities(FourAxisModel.uniform(), side1, side2)

    def test_no_signaling(self):
        model = random_model(5)
        side1_b, _ = core.marginals(pair_probabilities(model, "a", "b"))
        side1_bp, _ = core.marginals(pair_probabilities(model, "a", "b_prime"))
        assert side1_b.p_plus == pytest.approx(side1_bp.p_plus, abs=1e-12)
        assert side1_b.p_minus == pytest.approx(side1_bp.p_minus, abs=1e-12)


class TestBellFunctional:
    def test_all_zero(self):
        assert bell_functional(DeterministicAssignment(Z, Z, Z, Z)) == 0

    def test_tight_examples(self):
        assert bell_functional(DeterministicAssignment(P, P, M, P)) == -1
        assert bell_functional(DeterministicAssignment(P, P, M, M)) == -1

    def test_matches_direct_formula(self):
        for s in enumerate_assignments():
            a, ap, b, bp = int(s.a), int(s.a_prime), int(s.b), int(s.b_prime)
            direct = (
                a * b + a * bp + ap * b
                - 2 * (ap == 1 and bp == 1)
                - 2 * (ap == -1 and bp == -1)
                + (ap != 0)
                + (bp != 0)
            )
            assert bell_functional(s) == direct


class TestVerifyTheorem:
    def test_minimum_is_exactly_minus_one(self):
        report = verify_theorem()
        assert report.min_functional_value == -1
        assert report.all_satisfied

    def test_no_assignment_below_bound(self):
        assert all(bell_functional(s) >= -1 for s in enumerate_assignments())

    def test_argmins_achieve_minimum(self):
        report = verify_theorem()
        assert report.argmin_assignments
        for s in report.argmin_assignments:
            assert bell_functional(s) == -1

    def test_case_bounds_match_expected_table(self):
        report = verify_theorem()
        assert tuple(c.min_three_term for c in report.case_bounds) == (
            -1, -1, -3, -3, -2, -2, -2, -2, -1,
        )
        assert report.cases_match_expected

    def test_report_and_functional_values_share_one_computation(self, monkeypatch):
        calls = []

        def counted(assignment):
            calls.append(assignment)
            return bell_functional(assignment)

        monkeypatch.setattr(lhv, "bell_functional", counted)
        lhv.functional_values.cache_clear()
        try:
            report = verify_theorem()
            values = lhv.functional_values()
        finally:
            lhv.functional_values.cache_clear()
        assert len(calls) == 81
        assert report.min_functional_value == min(values)
        assert report.argmin_assignments == tuple(
            s for s, v in zip(enumerate_assignments(), values) if v == min(values)
        )

    def test_specific_cases(self):
        report = verify_theorem()
        by_setting = {(c.a_prime, c.b_prime): c.min_three_term for c in report.case_bounds}
        assert by_setting[(P, M)] == -3
        assert by_setting[(Z, Z)] == -1


def form_values_at_vertices():
    """Each form's lhs at every point-mass model, keyed by assignment key."""
    values = {"ternary": {}, "bell65": {}, "chsh": {}}
    for assignment in enumerate_assignments():
        model = FourAxisModel.point_mass(assignment)
        pairs = {label: pair_probabilities(model, *axes) for label, axes in core.PAIRS.items()}
        e = {label: core.expectation(pair) for label, pair in pairs.items()}
        singles_ap, _ = core.marginals(pairs["apbp"])
        _, singles_bp = core.marginals(pairs["apbp"])
        key = assignment.key()
        values["ternary"][key] = inequalities.ternary_inequality(
            e["ab"], e["bpa"], e["bap"], pairs["apbp"], singles_ap, singles_bp
        ).lhs
        values["bell65"][key] = inequalities.bell_1965(e["ab"], e["bpa"], e["bap"]).lhs
        values["chsh"][key] = inequalities.chsh(e["ab"], e["bpa"], e["bap"], e["apbp"]).lhs
    return values


class TestFormsAtVertices:
    """Each form over the 81 local vertices: which bounds are local bounds."""

    VALUES = form_values_at_vertices()

    def test_ternary_minimum_is_its_bound(self):
        ternary = self.VALUES["ternary"]
        assert min(ternary.values()) == -1.0
        tight = [key for key, value in ternary.items() if value == -1.0]
        assert len(tight) == 18
        assert tight == [s.key() for s in verify_theorem().argmin_assignments]

    def test_ternary_is_the_enumerated_functional(self):
        """The evaluators' term rule and the proof's functional agree at every vertex."""
        ternary = self.VALUES["ternary"]
        assert len(ternary) == 81
        for assignment in enumerate_assignments():
            assert ternary[assignment.key()] == bell_functional(assignment), assignment.key()

    def test_bell65_minimum_is_below_its_bound(self):
        bell65 = self.VALUES["bell65"]
        assert min(bell65.values()) == -3.0
        assert [key for key, value in bell65.items() if value == -3.0] == ["++--", "--++"]
        assert inequalities.bell_1965(-1.0, -1.0, -1.0).violated

    def test_chsh_maximum_is_its_bound(self):
        assert max(self.VALUES["chsh"].values()) == 2.0


class TestMixtureFunctional:
    def test_point_mass_on_minimizer(self):
        report = verify_theorem()
        model = FourAxisModel.point_mass(report.argmin_assignments[0])
        assert mixture_functional(model) == pytest.approx(-1.0, abs=1e-15)

    def test_uniform_is_brute_force_mean(self):
        mean = math.fsum(bell_functional(s) for s in enumerate_assignments()) / 81.0
        assert mixture_functional(FourAxisModel.uniform()) == pytest.approx(mean, abs=1e-13)
        assert mean == pytest.approx(8.0 / 9.0, abs=1e-13)

    def test_point_mass_all_zero(self):
        model = FourAxisModel.point_mass(DeterministicAssignment(Z, Z, Z, Z))
        assert mixture_functional(model) == 0.0

    def test_convexity_over_random_models(self):
        for seed in range(300):
            assert mixture_functional(random_model(seed)) >= -1.0 - 1e-12

    def test_mixture_equals_marginalized_inequality(self):
        for seed in range(25):
            model = random_model(seed)
            assert mixture_functional(model) == pytest.approx(
                ternary_lhs_from_model(model), abs=1e-12
            )


class TestLinearProgram:
    def test_simplex_minimum_is_the_enumerated_bound(self):
        """Second proof of the -1 bound: minimize the ternary lhs, built from
        marginals rather than bell_functional, over all mixtures by LP."""
        optimize = pytest.importorskip("scipy.optimize")
        assignments = enumerate_assignments()
        costs = [
            ternary_lhs_from_model(FourAxisModel.point_mass(s)) for s in assignments
        ]
        result = optimize.linprog(
            costs, A_eq=[[1.0] * 81], b_eq=[1.0], bounds=(0.0, None), method="highs",
        )
        assert result.status == 0
        assert result.fun == pytest.approx(-1.0, abs=1e-9)
        # The optimal face of the simplex is spanned by the vertices at the optimum.
        vertices = tuple(s for s, c in zip(assignments, costs) if c <= result.fun + 1e-9)
        assert vertices == verify_theorem().argmin_assignments
        support = {s for s, w in zip(assignments, result.x) if w > 1e-9}
        assert support <= set(vertices)


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        model = random_model(31)
        path = tmp_path / "model.lhv"
        lhv.save_model(model, path)
        loaded = lhv.load_model(path)
        for original, reloaded in zip(model.weights, loaded.weights):
            assert reloaded == pytest.approx(original, abs=1e-15)

    def test_numpy_built_model_round_trips(self, tmp_path):
        # Weights are stored as builtin floats, so each line reads
        # 0.012345679012345678, not np.float64(0.012345679012345678).
        model = FourAxisModel(tuple(np.full(81, 1 / 81)))
        path = tmp_path / "model.lhv"
        lhv.save_model(model, path)
        assert lhv.load_model(path) == model == FourAxisModel.uniform()

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\n" + lhv.save_model_text(FourAxisModel.uniform())
        loaded = lhv.load_model_text(text)
        assert loaded.weights[0] == pytest.approx(1.0 / 81.0, abs=1e-15)

    def test_rejects_missing_key(self):
        lines = lhv.save_model_text(FourAxisModel.uniform()).splitlines()[:-1]
        with pytest.raises(ModelFileError, match="missing"):
            lhv.load_model_text("\n".join(lines))

    def test_rejects_duplicate_key(self):
        text = lhv.save_model_text(FourAxisModel.uniform())
        with pytest.raises(ModelFileError, match="duplicate"):
            lhv.load_model_text(text + "++++ 0.0\n")

    def test_rejects_bad_key(self):
        text = lhv.save_model_text(FourAxisModel.uniform()).replace("++++", "+++x", 1)
        with pytest.raises(ModelFileError, match="key"):
            lhv.load_model_text(text)

    def test_rejects_negative_weight(self):
        text = lhv.save_model_text(FourAxisModel.uniform())
        rest = text.split("\n", 1)[1]
        with pytest.raises(ModelFileError, match=">= 0"):
            lhv.load_model_text("++++ -0.5\n" + rest)

    def test_rejects_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.lhv"
        path.write_bytes(lhv.save_model_text(FourAxisModel.uniform()).encode() + b"# \xe9\n")
        with pytest.raises(ModelFileError, match="UTF-8"):
            lhv.load_model(path)

    def test_rejects_file_above_size_cap(self, tmp_path):
        text = lhv.save_model_text(FourAxisModel.uniform())
        path = tmp_path / "big.lhv"
        path.write_bytes(text.encode() + b"#" * (lhv.MAX_MODEL_BYTES + 1 - len(text)))
        assert path.stat().st_size == lhv.MAX_MODEL_BYTES + 1
        with pytest.raises(ModelFileError, match="larger than"):
            lhv.load_model(path)

    def test_reads_file_at_size_cap(self, tmp_path):
        text = lhv.save_model_text(FourAxisModel.uniform())
        path = tmp_path / "padded.lhv"
        path.write_bytes(text.encode() + b"#" * (lhv.MAX_MODEL_BYTES - len(text)))
        assert path.stat().st_size == lhv.MAX_MODEL_BYTES
        assert lhv.load_model(path) == lhv.load_model_text(text)

    def test_rejects_bad_sum(self):
        text = "\n".join(f"{s.key()} 0.5" for s in enumerate_assignments())
        with pytest.raises(ModelFileError, match="sum"):
            lhv.load_model_text(text)

    def test_renormalizes_within_tolerance(self):
        scale = 1.0 + 5e-7
        text = "\n".join(
            f"{s.key()} {scale / 81.0!r}" for s in enumerate_assignments()
        )
        loaded = lhv.load_model_text(text)
        assert math.fsum(loaded.weights) == pytest.approx(1.0, abs=1e-12)
