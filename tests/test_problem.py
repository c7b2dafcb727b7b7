"""Problem parsing, candidate processes, and the assumption audits."""

import dataclasses
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_pmp
from pmpcheck.expressions import DomainError
from pmpcheck.integrate import InvalidGrid, solve_state
from pmpcheck.problem import (
    ActiveSet,
    CandidateProcess,
    ControlBox,
    DimensionMismatch,
    EmptyTube,
    InfeasibleState,
    ProblemSyntaxError,
    UnknownIdentifier,
    active_indices,
    audit_assumptions,
    candidate_from_functions,
    dynamics_residual,
    parse_problem,
    slater_check,
)

REGULATOR = """
[problem]
n = 1
m = 1
x0 = 2.0
sense = min
p = 2

[dynamics]
phi1 = u1

[objective]
f = x1^2 + u1^2
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0
"""

# the box parse_problem builds for one control without a bounds entry
UNBOUNDED = ControlBox(np.array([-np.inf]), np.array([np.inf]), np.array([True]), np.array([True]))

# the candidate minimizer of the regulator: feedback u = -(1+sqrt2-1) x
# integrates to x(t) = 2 exp((1-sqrt2) t)
_RATE = 1.0 - np.sqrt(2.0)


def regulator_candidate(t_max=50.0, points=1001):
    grid = np.linspace(0.0, t_max, points)
    return candidate_from_functions(
        grid,
        lambda t: 2.0 * np.exp(_RATE * t),
        lambda t: 2.0 * _RATE * np.exp(_RATE * t),
    )


class TestControlBox:
    def test_containment_respects_open_and_closed_ends(self):
        box = ControlBox([0.0], [1.0], [False], [True])
        assert box.contains([0.0])
        assert box.contains([0.999999])
        assert not box.contains([1.0])
        assert box.contains([-1e-12], tol=1e-8)  # closed end gets slack
        assert not box.contains([1.0], tol=1e-8)  # open end never does

    def test_containment_answers_per_row(self):
        box = ControlBox([0.0, -np.inf], [1.0, 2.0], [False, True], [True, True])
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0], [0.5, -1e300]])
        np.testing.assert_array_equal(box.contains(rows), [True, False, False, True])

    def test_projection_stays_strictly_inside_open_ends(self):
        box = ControlBox([0.0], [1.0], [False], [True])
        u = box.project([5.0])
        assert box.contains(u)
        assert u[0] < 1.0
        np.testing.assert_allclose(box.project([-3.0]), [0.0])

    def test_empty_boxes_are_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ControlBox([1.0], [0.0], [False], [False])
        with pytest.raises(ValueError, match="empty"):
            ControlBox([2.0], [2.0], [False], [True])
        # a degenerate closed point is legitimate
        assert ControlBox([2.0], [2.0], [False], [False]).contains([2.0])

    def test_nan_bounds_are_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ControlBox([np.nan], [1.0], [False], [False])
        with pytest.raises(ValueError, match="NaN"):
            ControlBox([0.0], [np.nan], [False], [True])


class TestParse:
    def test_regulator_roundtrip(self):
        prob = parse_problem(REGULATOR)
        assert (prob.n, prob.m, prob.l) == (1, 1, 0)
        np.testing.assert_allclose(prob.x0, [2.0])
        assert prob.p_exp == 2.0
        assert not prob.negated
        assert str(prob.f_x[0]) == "2.0 * x1"
        assert str(prob.f_u[0]) == "2.0 * u1"
        # dynamics jacobian of phi = u is identically zero
        np.testing.assert_allclose(prob.phi_jac_x(0.3, np.array([2.0]), np.array([0.1])),
                                   [[0.0]])
        assert not prob.U.bounded

    def test_maximisation_is_negated_at_parse(self):
        src = REGULATOR.replace("sense = min", "sense = max")
        prob = parse_problem(src)
        assert prob.negated
        assert prob.f_value(0.0, np.array([2.0]), np.array([1.0])) == -5.0

    def test_comments_and_blank_lines_are_ignored(self):
        src = "# header\n" + REGULATOR.replace("f = x1^2 + u1^2",
                                               "f = x1^2 + u1^2  # running cost")
        prob = parse_problem(src)
        assert prob.f_value(0.0, np.array([1.0]), np.array([1.0])) == 2.0

    def test_controls_and_constraints_sections(self):
        src = REGULATOR + """
[controls]
u1 = [0, 1)
convex = true

[constraints]
g1 = x1 - 2
"""
        prob = parse_problem(src)
        assert prob.U.contains([0.0]) and not prob.U.contains([1.0])
        assert prob.l == 1
        np.testing.assert_allclose(prob.g_value(0.0, np.array([2.0])), [0.0])
        np.testing.assert_allclose(prob.g_jac_x(0.0, np.array([2.0])), [[1.0]])

    def test_expression_weight_with_tail_and_pole(self):
        src = REGULATOR.replace(
            "omega = exp_decay 1.0",
            "omega = expr((1 + t)^-3) tail 0.5 * (1 + t)^-2 pole 0",
        )
        prob = parse_problem(src)
        np.testing.assert_allclose(prob.omega(1.0), 0.125)
        # declared tail matches the analytic remainder of (1+t)^-3
        np.testing.assert_allclose(prob.omega.tail_bound(9.0), 0.005)
        assert prob.omega.pole_exp == 0.0

    def test_unknown_section_reports_the_line(self):
        with pytest.raises(ProblemSyntaxError, match="line 2"):
            parse_problem("# intro\n[wrong]\n")

    def test_content_before_any_section(self):
        with pytest.raises(ProblemSyntaxError, match="before any"):
            parse_problem("n = 1\n")

    def test_duplicate_key(self):
        src = REGULATOR.replace("n = 1", "n = 1\nn = 2")
        with pytest.raises(ProblemSyntaxError, match="duplicate"):
            parse_problem(src)

    def test_missing_dynamics_component(self):
        src = REGULATOR.replace("n = 1", "n = 2").replace("x0 = 2.0", "x0 = 2.0 0.0")
        with pytest.raises(ProblemSyntaxError, match="phi2"):
            parse_problem(src)

    def test_initial_state_length_mismatch(self):
        src = REGULATOR.replace("x0 = 2.0", "x0 = 2.0, 1.0")
        with pytest.raises(DimensionMismatch):
            parse_problem(src)

    def test_control_variable_in_constraint(self):
        src = REGULATOR + "\n[constraints]\ng1 = x1 - u1\n"
        with pytest.raises(UnknownIdentifier, match="u1"):
            parse_problem(src)

    def test_undeclared_state_in_dynamics(self):
        src = REGULATOR.replace("phi1 = u1", "phi1 = u1 + x2")
        with pytest.raises(UnknownIdentifier, match="x2"):
            parse_problem(src)

    def test_empty_control_interval(self):
        src = REGULATOR + "\n[controls]\nu1 = [1, 1)\n"
        with pytest.raises(ProblemSyntaxError, match="empty"):
            parse_problem(src)

    def test_expression_error_carries_position(self):
        src = REGULATOR.replace("f = x1^2 + u1^2", "f = x1^2 + (u1")
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem(src)
        assert err.value.line == 13
        assert err.value.column is not None

    def test_constraints_must_be_consecutive(self):
        src = REGULATOR + "\n[constraints]\ng1 = x1 - 2\ng3 = x1 - 5\n"
        with pytest.raises(ProblemSyntaxError, match="consecutive"):
            parse_problem(src)

    def test_ten_or_more_constraints_keep_their_index_order(self):
        rows = "".join(f"g{j} = x1 - {j}\n" for j in range(1, 12))
        prob = parse_problem(REGULATOR + "\n[constraints]\n" + rows)
        assert prob.l == 11
        np.testing.assert_allclose(prob.g_value(0.0, np.array([0.0])),
                                   -np.arange(1.0, 12.0))

    @pytest.mark.parametrize("rows,bad", [
        ("".join(f"g{j} = x1\n" for j in (*range(1, 10), 11)), "g11"),
        ("g1 = x1\ng01 = x1\n", "g01"),
        ("g1 = x1\ngx = x1\n", "gx"),
    ], ids=["gap-at-g10", "leading-zero", "not-numbered"])
    def test_constraint_gaps_and_odd_keys_are_rejected(self, rows, bad):
        with pytest.raises(ProblemSyntaxError, match=f"found '{bad}'"):
            parse_problem(REGULATOR + "\n[constraints]\n" + rows)

    @pytest.mark.parametrize("src,line", [
        # a missing key is reported at its section header
        (REGULATOR.replace("x0 = 2.0\n", ""), 2),
        (REGULATOR.replace("omega = exp_decay 1.0\n", ""), 12),
        # a missing section is reported at the last line of the file
        (REGULATOR.replace("[space]\nnu = exp_decay 1.0\n", ""), 15),
        ("", 1),
        # an invalid control box is reported at the [controls] header
        (REGULATOR + "\n[controls]\nu1 = [1, 1)\n", 19),
    ], ids=["missing-x0", "missing-omega", "missing-section", "empty-file",
            "empty-box"])
    def test_structural_errors_carry_a_real_line(self, src, line):
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem(src)
        assert err.value.line == line

    def test_bare_required_header_names_the_missing_key(self):
        src = REGULATOR.replace("nu = exp_decay 1.0\n", "")
        with pytest.raises(ProblemSyntaxError,
                           match=r"missing key 'nu' in \[space\]") as err:
            parse_problem(src)
        assert err.value.line == 16  # the [space] header

    def test_unknown_weight_family(self):
        src = REGULATOR.replace("omega = exp_decay 1.0", "omega = gamma 1.0")
        with pytest.raises(ProblemSyntaxError, match="weight literal"):
            parse_problem(src)

    def test_weight_expression_may_not_use_state(self):
        src = REGULATOR.replace("omega = exp_decay 1.0", "omega = expr(x1)")
        with pytest.raises(ProblemSyntaxError, match="weight expression"):
            parse_problem(src)

    @pytest.mark.parametrize("old,bad,match", [
        ("omega = exp_decay 1.0", "omega =", "weight literal"),
        ("omega = exp_decay 1.0", "omega = exp_decay nan", "finite"),
        ("x0 = 2.0", "x0 = nan", "finite"),
        ("p = 2", "p = nan", "finite"),
        ("p = 2", "p_exp = 3", "unknown key"),
        (None, "convex = ture", "true or false"),
        (None, "u1 = [nan, 1]", "NaN"),
        ("f = x1^2 + u1^2", "f = 1e400 * x1 + u1^2", "overflows"),
        ("f = x1^2 + u1^2", "f = 1e200 * 1e200 * x1 + u1^2", "overflows"),
        ("omega = exp_decay 1.0", "omega = expr(1e400 * exp(-t))", "overflows"),
    ], ids=["empty-weight", "nan-family-parameter", "nan-x0", "nan-p", "p_exp-alias",
            "misspelt-convex", "nan-bound", "overflowing-literal", "overflowing-constant",
            "overflowing-weight-literal"])
    def test_malformed_values_are_rejected_at_their_line(self, old, bad, match):
        src = REGULATOR.replace(old, bad) if old else REGULATOR + "[controls]\n" + bad + "\n"
        with pytest.raises(ProblemSyntaxError, match=match) as err:
            parse_problem(src)
        assert err.value.line == src.splitlines().index(bad) + 1

    def test_expression_weight_options_split_on_their_keywords(self):
        src = REGULATOR.replace("omega = exp_decay 1.0",
                                "omega = expr(exp(-(t))) pole 0 tail exp(-t)")
        omega = parse_problem(src).omega
        assert (omega.label, omega.pole_exp, omega.tail_bound(2.0)) == ("exp(-(t))", 0.0,
                                                                       np.exp(-2.0))
        for bad in ("expr(1) tail", "expr(1) pole 0 pole 1", "expr(1) x", "expr(1)) pole 0"):
            with pytest.raises(ProblemSyntaxError):
                parse_problem(REGULATOR.replace("omega = exp_decay 1.0", f"omega = {bad}"))



# ---- fuzzing the file format: valid files that between them use every key

FULL_FORMAT = """
[problem]
n = 2
m = 2
x0 = 1.0, -0.5
sense = max
p = 3

[dynamics]
phi1 = x2 + u1
phi2 = -x1 + u2 * t

[objective]
f = ln(1 + x1^2) - u1^2 - abs(u2)
omega = expr((1 + t)^-3) tail 0.5 * (1 + t)^-2 pole 0

[space]
nu = power 2.5
eta = exp_decay 0.5

[controls]
u1 = (-1, 2]
u2 = [0, inf)
convex = false

[constraints]
g1 = x1 - 5
g2 = x2^2 - 9 - t
"""

_FUZZ_BASES = [FULL_FORMAT, REGULATOR, test_pmp.INVESTMENT, test_pmp.UNDISCOUNTED,
               test_pmp.CONSTRAINED, test_pmp.TWO_CONTROLS]


def _blocks(source):
    """The ``(section, [(key, value), ...])`` blocks of a well-formed file, in order."""
    blocks = []
    for raw in source.splitlines():
        text = raw.strip()
        if text.startswith("["):
            blocks.append((text[1:-1], []))
        elif text:
            key, value = text.split("=", 1)
            blocks[-1][1].append((key.strip(), value.strip()))
    return blocks


def _record(prob):
    """Everything a reformatting must keep, in comparable form."""
    box = prob.U
    weights = [None if w is None else (w.label, w.pole_exp)
               for w in (prob.omega, prob.nu, prob.eta)]
    return (prob.n, prob.m, prob.negated, str(prob.f), [str(e) for e in prob.phi],
            [str(e) for e in prob.g], prob.x0.tolist(), prob.p_exp, box.lo.tolist(),
            box.hi.tolist(), box.open_lo.tolist(), box.open_hi.tolist(), box.convex, weights)


_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_COMMENT = st.text(alphabet=string.ascii_letters + string.digits + " =[]()#", max_size=12)


@st.composite
def _reformatted(draw):
    """A base file and the same file with its sections and keys shuffled,
    comments and blank lines added, and spacing and key case changed."""
    base = draw(st.sampled_from(_FUZZ_BASES))
    lines = []
    for section, rows in draw(st.permutations(_blocks(base))):
        name = draw(st.sampled_from([section, section.upper(), section.title()]))
        lines.append(f"{draw(_SPACE)}[{draw(_SPACE)}{name}{draw(_SPACE)}]")
        for key, value in draw(st.permutations(rows)):
            lines += draw(st.lists(st.one_of(_SPACE, _COMMENT.map(lambda c: "#" + c)), max_size=2))
            key = draw(st.sampled_from([key, key.upper(), key.capitalize()]))
            comment = draw(st.one_of(st.just(""), _COMMENT.map(lambda c: " #" + c)))
            lines.append(f"{draw(_SPACE)}{key}{draw(_SPACE)}={draw(_SPACE)}{value}{comment}")
    return base, "\n".join(lines)


@given(case=_reformatted())
@settings(max_examples=150, deadline=None)
def test_reformatting_keeps_the_problem(case):
    base, text = case
    assert _record(parse_problem(text)) == _record(parse_problem(base))


# Replacement values, keys and lines that each probe one rule of the grammar.
# Random text leaves out m, so no mutation can declare a huge control count.
_VALUE_EDITS = ["", "nan", "inf", "-inf", "1e400", "-1", "0", "0.5", "1.5", "3", "x1", "x2",
                "u2", "t", "ln(x1", "[0, 1]", "(0, inf)", "[nan, 1]", "[1, 0]", "(1, 1]",
                "[0, 1", "true", "ture", "max", "exp_decay", "exp_decay nan", "power inf",
                "weibull 2", "expr(t)", "expr(x1)", "expr(1) tail", "expr(1) pole nan",
                "expr(1) pole 0 pole 1", "expr(exp(-t)) tail exp(-t) pole 0", "expr(1)) tail t"]
_KEY_EDITS = ["", "n", "m", "x0", "p", "p_exp", "sense", "phi1", "phi3", "phi01", "f", "omega",
              "nu", "eta", "u1", "u3", "convex", "g1", "g3", "g0", "bogus"]
_LINE_EDITS = ["[problem]", "[controls]", "[constraints]", "[bogus]", "[space", "= 1", "key", "#"]
_CHARS = "=[](),#.+-*/^ 0159eEtxupgnfia_\t"


@st.composite
def _mutated(draw):
    """A base file with one line edited."""
    lines = draw(st.sampled_from(_FUZZ_BASES)).splitlines()
    k = draw(st.sampled_from([k for k, line in enumerate(lines) if line]))
    line = lines[k]
    key, _, value = line.partition("=")
    at = draw(st.integers(0, len(line)))
    lines[k] = draw(st.one_of(
        st.sampled_from(_VALUE_EDITS).map(lambda v: f"{key}= {v}"),
        st.sampled_from(_KEY_EDITS).map(lambda v: f"{v} ={value}"),
        st.sampled_from(_CHARS).map(lambda c: line[:at] + c + line[at:]),
        st.just(line[:at] + line[at + 1:]),
        st.sampled_from(_LINE_EDITS),
        st.text(alphabet=_CHARS, max_size=24),
    ))
    return "\n".join(lines)


@given(text=_mutated())
@settings(max_examples=1000, deadline=None)
def test_a_mutated_line_parses_or_fails_with_a_real_line(text):
    try:
        parse_problem(text)
    except ProblemSyntaxError as err:
        assert 1 <= err.line <= len(text.splitlines())
    except (DimensionMismatch, UnknownIdentifier):
        pass


class TestCandidate:
    def test_closed_forms_bypass_interpolation(self):
        cand = regulator_candidate(points=41)  # deliberately coarse
        t = np.pi
        np.testing.assert_allclose(cand.state(t), [2.0 * np.exp(_RATE * t)],
                                   rtol=1e-12)

    def test_step_control_is_left_continuous(self):
        grid = np.array([0.0, 1.0, 2.0])
        u = np.array([[10.0], [20.0], [30.0]])
        cand = CandidateProcess(grid=grid, x=np.zeros((3, 1)), u=u)
        np.testing.assert_allclose(cand.control(0.5), [20.0])  # right knot owns cell
        np.testing.assert_allclose(cand.control(1.0), [20.0])
        np.testing.assert_allclose(cand.control(1.0 + 1e-12), [30.0])
        np.testing.assert_allclose(cand.control(np.array([0.0, 2.5])),
                                   [[10.0], [30.0]])

    def test_shape_mismatches_raise(self):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DimensionMismatch):
            CandidateProcess(grid=grid, x=np.zeros((4, 1)), u=np.zeros((5, 1)))
        with pytest.raises(InvalidGrid):
            CandidateProcess(grid=grid[::-1], x=np.zeros((5, 1)), u=np.zeros((5, 1)))

    def test_solve_state_output_plugs_into_the_audit(self):
        prob = parse_problem(REGULATOR)
        cand = solve_state(prob, lambda t: 2.0 * _RATE * np.exp(_RATE * t))
        assert isinstance(cand, CandidateProcess)
        # the integrated state should track the closed form
        np.testing.assert_allclose(
            cand.x[:, 0], 2.0 * np.exp(_RATE * cand.grid), rtol=1e-7, atol=1e-9
        )
        rep = audit_assumptions(prob, cand, gamma=0.5)
        assert rep.all_ok


class TestDynamicsResidual:
    def test_exact_candidate_has_negligible_residual(self):
        prob = parse_problem(REGULATOR)
        res = dynamics_residual(prob, regulator_candidate())
        assert res.max() < 1e-12

    def test_wrong_candidate_is_flagged(self):
        prob = parse_problem(REGULATOR)
        grid = np.linspace(0.0, 50.0, 1001)
        cand = candidate_from_functions(
            grid, lambda t: 2.0 * np.exp(-2.0 * t),
            lambda t: 2.0 * _RATE * np.exp(_RATE * t),
        )
        assert dynamics_residual(prob, cand).max() > 1e-3


DOMAIN_HOLE = """
[problem]
n = 1
m = 1
x0 = 1.0
[dynamics]
phi1 = -x1 + 0*u1
[objective]
f = ln(x1) + 0*u1
omega = power 2
[space]
nu = power 2
"""


class TestAudit:
    def test_regulator_passes_in_the_uniform_mode(self):
        prob = parse_problem(REGULATOR)
        rep = audit_assumptions(prob, regulator_candidate(), gamma=0.5)
        assert rep.verdicts == {
            "A0": "pass", "A1": "no counterexample", "A2": "pass", "A3": "vacuous",
        }
        assert rep.all_ok
        assert rep.L_verdict == "finite"
        assert rep.K_estimate == pytest.approx(1.0, rel=1e-6)
        # phi = u: the growth ratio |u*| / (1 + |x|) is largest near t = 0
        assert 0.0 < rep.C0 < 1.0
        assert np.all(np.isfinite(rep.L_values))

    def test_audit_is_deterministic(self):
        prob = parse_problem(REGULATOR)
        cand = regulator_candidate()
        r1 = audit_assumptions(prob, cand, gamma=0.5)
        r2 = audit_assumptions(prob, cand, gamma=0.5)
        assert r1.verdicts == r2.verdicts
        np.testing.assert_array_equal(r1.L_values, r2.L_values)
        assert r1.C0 == r2.C0

    def test_log_cost_fails_when_the_tube_leaves_the_domain(self):
        prob = parse_problem(DOMAIN_HOLE)
        grid = np.linspace(0.0, 50.0, 1001)
        cand = candidate_from_functions(grid, lambda t: np.exp(-t), lambda t: 0.0 * t)
        rep = audit_assumptions(prob, cand, gamma=0.1)
        assert rep.verdicts["A2"] == "fail"
        assert not rep.all_ok
        # witness sits where exp(-t) - 0.1 crosses zero, near t = ln 10
        t_w, x_w, _ = rep.witnesses["A2"]
        assert t_w == pytest.approx(np.log(10.0), abs=0.3)
        assert x_w[0] <= 1e-3
        assert any("left its domain" in note for note in rep.notes)
        assert not np.all(np.isfinite(rep.L_values))

    def test_domain_failures_are_monotone_in_the_tube_radius(self):
        src = REGULATOR.replace("f = x1^2 + u1^2", "f = sqrt(2 - x1) + u1^2")
        src = src.replace("x0 = 2.0", "x0 = 1.0")
        prob = parse_problem(src)
        grid = np.linspace(0.0, 50.0, 1001)
        cand = candidate_from_functions(grid, lambda t: np.exp(-t),
                                        lambda t: -np.exp(-t))
        verdicts = [audit_assumptions(prob, cand, gamma=g).verdicts["A2"]
                    for g in (0.25, 0.5, 0.9, 1.5)]
        assert verdicts == ["pass", "pass", "pass", "fail"]

    def test_candidate_control_outside_the_box_fails_the_base_verdict(self):
        src = REGULATOR + "\n[controls]\nu1 = [0, 1]\n"
        prob = parse_problem(src)
        rep = audit_assumptions(prob, regulator_candidate(), gamma=0.5)
        assert rep.verdicts["A0"] == "fail"  # u* is negative throughout
        t_w, _, u_w = rep.witnesses["A0"]
        assert t_w == 0.0
        assert u_w[0] < 0.0

    def test_initial_state_mismatch_fails_the_base_verdict(self):
        prob = parse_problem(REGULATOR)
        grid = np.linspace(0.0, 50.0, 1001)
        cand = candidate_from_functions(
            grid, lambda t: 3.0 * np.exp(_RATE * t),
            lambda t: 3.0 * _RATE * np.exp(_RATE * t),
        )
        rep = audit_assumptions(prob, cand, gamma=0.5)
        assert rep.verdicts["A0"] == "fail"
        assert any("initial state" in note for note in rep.notes)

    def test_nan_initial_state_fails_the_base_verdict(self):
        prob = dataclasses.replace(parse_problem(REGULATOR), x0=[np.nan])
        rep = audit_assumptions(prob, regulator_candidate(), gamma=0.5)
        assert rep.verdicts["A0"] == "fail"
        assert any("initial state" in note for note in rep.notes)

    def test_space_exponent_needs_a_conjugate(self):
        prob = parse_problem(REGULATOR.replace("p = 2", "p = 1"))
        rep = audit_assumptions(prob, regulator_candidate(), gamma=0.5)
        assert rep.verdicts["A0"] == "fail"
        assert any("conjugate" in note for note in rep.notes)

    def test_non_integrable_distribution_fails_the_base_verdict(self):
        prob = parse_problem(
            REGULATOR.replace("omega = exp_decay 1.0", "omega = expr(1) pole 0")
        )
        rep = audit_assumptions(prob, regulator_candidate(), gamma=0.5)
        assert rep.verdicts["A0"] == "fail"

    def test_failing_space_weight_property_is_named(self):
        # nu = (1+t)^-1 is not integrable (E3) and t nu(t) -> 1, not 0 (E5)
        prob = parse_problem(REGULATOR.replace("nu = exp_decay 1.0", "nu = power 1"))
        rep = audit_assumptions(prob, regulator_candidate(), gamma=0.5)
        assert rep.verdicts["A0"] == "fail"
        nu_verdicts = rep.weight_reports["nu"].verdicts
        assert nu_verdicts["E3"] == nu_verdicts["E5"] == "fail"
        assert {"A0: nu property E3 is fail", "A0: nu property E5 is fail"} <= set(rep.notes)

    def test_divergent_cost_gradient_fails_the_majorant(self):
        # f_x = 1 against a flat distribution: int omega |f_x . xi| diverges
        # for every direction with sup|xi| = 1, and the majorant sees it
        # because the tube's first offset is the candidate itself
        src = REGULATOR.replace("omega = exp_decay 1.0", "omega = expr(1) pole 0")
        prob = parse_problem(src.replace("f = x1^2 + u1^2", "f = x1 + u1^2"))
        rep = audit_assumptions(prob, regulator_candidate(), gamma=0.5)
        assert rep.verdicts["A2"] == "fail"
        assert any("A2: weighted majorant integral divergent" in n for n in rep.notes)
        assert np.all(rep.L_values >= 1.0)
        # omega = 1 and L >= 1, so the partials up to 0.5, 5 and 50 grow at
        # least as fast as the horizon
        p1, p2, p3 = rep.L_partials
        assert p2 - p1 >= 4.4 and p3 - p2 >= 44.9

    def test_weak_mode_uses_its_own_verdict_keys(self):
        src = REGULATOR.replace("nu = exp_decay 1.0",
                                "nu = exp_decay 1.0\neta = exp_decay 0.1")
        prob = parse_problem(src)
        rep = audit_assumptions(prob, regulator_candidate(), gamma=0.5, mode="weak")
        assert set(rep.verdicts) == {"B0", "B1", "B2"}
        assert rep.all_ok
        assert rep.mode == "weak"

    def test_weak_mode_clips_control_samples_into_a_half_open_box(self):
        src = """
[problem]
n = 1
m = 1
x0 = 1.0
[dynamics]
phi1 = -x1 * u1
[objective]
f = x1 / (1 - u1)
omega = exp_decay 1.0
[space]
nu = exp_decay 1.0
eta = exp_decay 0.5
[controls]
u1 = [0, 1)
"""
        prob = parse_problem(src)
        grid = np.linspace(0.0, 50.0, 1001)
        cand = candidate_from_functions(grid, lambda t: np.exp(-0.5 * t),
                                        lambda t: 0.5 + 0.0 * t)
        rep = audit_assumptions(prob, cand, gamma=0.4, mode="weak")
        # the cost has a pole at u = 1; clipping keeps every sample defined
        assert rep.verdicts["B2"] == "pass"
        assert rep.all_ok

    def test_weak_mode_requires_a_tube_scale(self):
        prob = parse_problem(REGULATOR)
        with pytest.raises(ValueError, match="eta"):
            audit_assumptions(prob, regulator_candidate(), gamma=0.5, mode="weak")

    def test_collapsed_tube_scale_raises(self):
        src = REGULATOR.replace("nu = exp_decay 1.0",
                                "nu = exp_decay 1.0\neta = exp_decay 20.0")
        prob = parse_problem(src)
        with pytest.raises(EmptyTube) as err:
            audit_assumptions(prob, regulator_candidate(), gamma=1.0, mode="weak")
        assert err.value.radius < 1e-12

    def test_parameter_validation(self):
        prob = parse_problem(REGULATOR)
        cand = regulator_candidate()
        with pytest.raises(ValueError, match="gamma"):
            audit_assumptions(prob, cand, gamma=0.0)
        with pytest.raises(ValueError, match="mode"):
            audit_assumptions(prob, cand, gamma=0.5, mode="both")

    def test_sign_jump_at_a_probed_point_fails_continuity(self):
        # sign() only exists as an internal node, so the jumpy integrand is
        # assembled directly; its surface x = 2 passes through the
        # candidate's start, which the probe always visits
        from pmpcheck.expressions import Call, Num, Sym, add, mul, powx, sub
        from pmpcheck.problem import ControlProblem
        from pmpcheck.weights import exp_decay

        x1, u1 = Sym("x1"), Sym("u1")
        f = add(add(powx(x1, Num(2.0)), powx(u1, Num(2.0))),
                Call("sign", (sub(x1, Num(2.0)),)))
        prob = ControlProblem(
            n=1, m=1, f=f, phi=(u1,), x0=np.array([2.0]),
            omega=exp_decay(1.0), nu=exp_decay(1.0), U=UNBOUNDED,
        )
        rep = audit_assumptions(prob, regulator_candidate(), gamma=0.5)
        assert rep.verdicts["A1"] == "fail"
        t_w, x_w, _ = rep.witnesses["A1"]
        assert t_w == 0.0
        assert x_w[0] == pytest.approx(2.0)

    def test_probe_skips_knots_outside_the_domain_and_names_the_first_jump(self):
        # ln(t - 10) leaves its domain up to t = 10, where the candidate sits
        # on the jump surface x = 2 of sign(x - 2); it leaves the surface
        # on (10, 20) and returns to it from t = 20 on.  The first probed
        # time from 20 on is grid index 412 (t = 20.6)
        from pmpcheck.expressions import Call, Num, Sym, add, sub
        from pmpcheck.problem import ControlProblem
        from pmpcheck.weights import exp_decay

        x1, t = Sym("x1"), Sym("t")
        f = add(Call("sign", (sub(x1, Num(2.0)),)), Call("ln", (sub(t, Num(10.0)),)))
        prob = ControlProblem(n=1, m=1, f=f, phi=(Sym("u1"),), x0=np.array([2.0]),
                              omega=exp_decay(1.0), nu=exp_decay(1.0), U=UNBOUNDED)
        bump = lambda t: 2.0 + np.clip(t - 10.0, 0, None) * np.clip(20.0 - t, 0, None)
        cand = candidate_from_functions(np.linspace(0.0, 50.0, 1001), bump,
                                        lambda t: 0.0 * t)
        rep = audit_assumptions(prob, cand, gamma=0.5)
        assert rep.verdicts["A1"] == "fail"
        assert rep.witnesses["A1"] == (20.6, (2.0,), (0.0,))

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_evaluator_calls_do_not_grow_with_the_grid(self, mode, monkeypatch):
        from pmpcheck.problem import ControlProblem

        calls = []
        for name in ("f_value", "f_grad_x", "f_grad_u", "phi_value",
                     "phi_jac_x", "phi_jac_u", "g_value", "g_jac_x"):
            original = getattr(ControlProblem, name)
            monkeypatch.setattr(ControlProblem, name,
                                lambda self, *a, _f=original, _n=name: calls.append(_n) or _f(self, *a))
        prob = parse_problem(REGULATOR.replace("nu = exp_decay 1.0",
                                               "nu = exp_decay 1.0\neta = exp_decay 0.1"))
        counts = []
        for cells in (257, 2049):
            calls.clear()
            audit_assumptions(prob, regulator_candidate(points=cells + 1), gamma=0.5, mode=mode)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert counts[0] <= 8  # cost, growth and probe: one call per evaluator

    def test_constraint_data_is_audited_in_the_uniform_mode(self):
        src = REGULATOR + "\n[constraints]\ng1 = x1 - 2\n"
        prob = parse_problem(src)
        rep = audit_assumptions(prob, regulator_candidate(), gamma=0.5)
        assert rep.verdicts["A3"] == "pass"
        assert any("Lipschitz" in note for note in rep.notes)


class TestJacobians:
    """Symbolic derivatives must agree with central differences."""

    SRC = """
[problem]
n = 2
m = 1
x0 = 1.0 0.0
[dynamics]
phi1 = x2
phi2 = -sin(x1) - 0.1 * x2 + u1
[objective]
f = x1^2 + 0.5 * u1^2 + exp(-x2)
omega = exp_decay 1.0
[space]
nu = exp_decay 1.0
[constraints]
g1 = x1 * x2 - 5
"""

    def test_against_central_differences_at_random_tube_points(self):
        prob = parse_problem(self.SRC)
        rng = np.random.default_rng(42)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            t = float(rng.uniform(0.0, 20.0))
            x = rng.uniform(-2.0, 2.0, size=2)
            u = rng.uniform(-2.0, 2.0, size=1)

            jac = prob.phi_jac_x(t, x, u)
            grad = prob.f_grad_x(t, x, u)
            gjac = prob.g_jac_x(t, x)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd_phi = (prob.phi_value(t, x + e, u) - prob.phi_value(t, x - e, u)) / (2 * h)
                fd_f = (prob.f_value(t, x + e, u) - prob.f_value(t, x - e, u)) / (2 * h)
                fd_g = (prob.g_value(t, x + e) - prob.g_value(t, x - e)) / (2 * h)
                worst = max(worst, np.max(np.abs(jac[:, i] - fd_phi) / (1 + np.abs(fd_phi))))
                worst = max(worst, abs(grad[i] - fd_f) / (1 + abs(fd_f)))
                worst = max(worst, np.max(np.abs(gjac[:, i] - fd_g) / (1 + np.abs(fd_g))))
            fd_u = (prob.phi_value(t, x, u + h) - prob.phi_value(t, x, u - h)) / (2 * h)
            ju = prob.phi_jac_u(t, x, u)
            worst = max(worst, np.max(np.abs(ju[:, 0] - fd_u) / (1 + np.abs(fd_u))))
            fdf_u = (prob.f_value(t, x, u + h) - prob.f_value(t, x, u - h)) / (2 * h)
            worst = max(worst, abs(prob.f_grad_u(t, x, u)[0] - fdf_u) / (1 + abs(fdf_u)))
        assert worst < 1e-6

    def test_batched_evaluation_matches_pointwise(self):
        prob = parse_problem(self.SRC)
        rng = np.random.default_rng(7)
        ts = rng.uniform(0.0, 10.0, size=17)
        xs = rng.uniform(-1.0, 1.0, size=(17, 2))
        us = rng.uniform(-1.0, 1.0, size=(17, 1))
        batch = prob.phi_jac_x(ts, xs, us)
        assert batch.shape == (17, 2, 2)
        for k in (0, 5, 16):
            np.testing.assert_allclose(
                batch[k], prob.phi_jac_x(ts[k], xs[k], us[k]), rtol=1e-14
            )


def _hand_written(name):
    """Each evaluator of a test_pmp problem as a numpy formula of (t, x1, u1)."""
    one = lambda t, x, u: np.ones_like(x)
    zero = lambda t, x, u: np.zeros_like(x)
    if name == "EXTRACTION":  # sense = max, stored negated
        return {
            "f_value": lambda t, x, u: -(u / (u + 0.25) - u),
            "f_grad_x": zero,
            "f_grad_u": lambda t, x, u: -(0.25 / (u + 0.25) ** 2 - 1.0),
            "phi_value": lambda t, x, u: x * (1.0 - np.log(x)) - u * x - 0.25 * x,
            "phi_jac_x": lambda t, x, u: -np.log(x) - u - 0.25,
            "phi_jac_u": lambda t, x, u: -x,
        }
    if name == "INVESTMENT":  # sense = max, stored negated
        return {
            "f_value": lambda t, x, u: -np.log((1.0 - u) * x),
            "f_grad_x": lambda t, x, u: -1.0 / x,
            "f_grad_u": lambda t, x, u: 1.0 / (1.0 - u),
            "phi_value": lambda t, x, u: u * x,
            "phi_jac_x": lambda t, x, u: u,
            "phi_jac_u": lambda t, x, u: x,
        }
    formulas = {  # REGULATOR and CONSTRAINED
        "f_value": lambda t, x, u: 0.5 * (x**2 + u**2),
        "f_grad_x": lambda t, x, u: x,
        "f_grad_u": lambda t, x, u: u,
        "phi_value": lambda t, x, u: 2.0 * x + u,
        "phi_jac_x": lambda t, x, u: 2.0 * one(t, x, u),
        "phi_jac_u": one,
    }
    if name == "CONSTRAINED":
        formulas.update(g_value=lambda t, x, u: x - 2.0, g_jac_x=one)
    return formulas


class TestGeneratedEvaluators:
    """Each evaluator is one generated function of (t, x, u)."""

    @pytest.mark.parametrize("name", ["REGULATOR", "INVESTMENT", "EXTRACTION", "CONSTRAINED"])
    @pytest.mark.parametrize("batch", [None, 5], ids=["scalar", "batched"])
    def test_every_evaluator_matches_a_numpy_formula(self, name, batch):
        text = getattr(test_pmp, name)
        prob = parse_problem(text.format(a=4.5) if name == "REGULATOR" else text)
        rng = np.random.default_rng(3)
        size = () if batch is None else (batch,)
        t = rng.uniform(0.0, 5.0, size)
        x = rng.uniform(0.2, 3.0, size + (1,))
        u = rng.uniform(0.1, 0.9, size + (1,))
        formulas = _hand_written(name)
        for ev, formula in formulas.items():
            want = formula(t, x[..., 0], u[..., 0])
            args = (t, x) if ev.startswith("g_") else (t, x, u)
            got = getattr(prob, ev)(*args)
            trail = {"f_value": (), "phi_jac_x": (1, 1), "phi_jac_u": (1, 1),
                     "g_jac_x": (1, 1)}.get(ev, (1,))
            assert got.shape == size + trail, ev
            np.testing.assert_allclose(got, np.reshape(want, size + trail),
                                       rtol=1e-14, atol=0, err_msg=ev)
        if "g_value" not in formulas:
            assert prob.g_value(t, x).shape == size + (0,)
            assert prob.g_jac_x(t, x).shape == size + (0, 1)

    def test_constant_component_broadcasts_over_the_times(self):
        prob = parse_problem(REGULATOR.replace("phi1 = u1", "phi1 = 1"))
        ts = np.linspace(0.0, 1.0, 4)
        out = prob.phi_value(ts, np.ones((4, 1)), np.zeros((4, 1)))
        assert out.shape == (4, 1)
        np.testing.assert_array_equal(out, 1.0)
        jac = prob.phi_jac_u(ts, np.ones((4, 1)), np.zeros((4, 1)))
        assert jac.shape == (4, 1, 1)
        np.testing.assert_array_equal(jac, 0.0)

    def test_domain_error_names_the_offending_row(self):
        prob = parse_problem(REGULATOR.replace("phi1 = u1", "phi1 = ln(x1) + u1"))
        ts = np.array([0.5, 1.5, 2.5])
        xs = np.array([[1.0], [-0.25], [-2.0]])
        us = np.array([[0.1], [0.2], [0.3]])
        with pytest.raises(DomainError, match="ln of non-positive") as err:
            prob.phi_value(ts, xs, us)
        assert err.value.point == {"t": 1.5, "x1": -0.25, "u1": 0.2}
        prob.phi_jac_x(ts, xs, us)  # 1/x1 is defined at every row


class TestActiveSetAndSeparation:
    SRC = REGULATOR + "\n[constraints]\ng1 = x1 - 2\ng2 = x1 - 5\n"

    def test_active_at_the_start_only(self):
        prob = parse_problem(self.SRC)
        act = active_indices(prob, regulator_candidate())
        assert act.I == (1,)
        np.testing.assert_allclose(act.times[1], [0.0])
        assert act.peak[1] == pytest.approx(0.0, abs=1e-12)
        assert act.peak[2] == pytest.approx(-3.0)

    def test_infeasible_candidate_raises_with_a_witness(self):
        src = REGULATOR + "\n[constraints]\ng1 = x1 - 1\n"
        prob = parse_problem(src)
        with pytest.raises(InfeasibleState) as err:
            active_indices(prob, regulator_candidate())
        assert err.value.j == 1
        assert err.value.t == 0.0
        assert err.value.value == pytest.approx(1.0)

    def test_no_constraints_means_empty_active_set(self):
        prob = parse_problem(REGULATOR)
        act = active_indices(prob, regulator_candidate())
        assert act.I == ()
        assert slater_check(prob, regulator_candidate(), act).passed

    def test_separation_witness_is_strictly_slack(self):
        prob = parse_problem(self.SRC)
        cand = regulator_candidate()
        act = active_indices(prob, cand)
        rep = slater_check(prob, cand, act)
        assert rep.verdicts == {1: "pass"}
        t_j, g_j = rep.witnesses[1]
        assert t_j > 0.0
        assert g_j < -1.0

    def test_identically_tight_constraint_fails_separation(self):
        src = REGULATOR + "\n[constraints]\ng1 = 0 * x1\n"
        prob = parse_problem(src)
        cand = regulator_candidate()
        act = active_indices(prob, cand)
        assert act.I == (1,)
        rep = slater_check(prob, cand, act)
        assert rep.verdicts == {1: "fail"}
        assert not rep.passed


def _per_knot_ball_offsets(dim, count, offset):
    """One grid time's tube offsets, built knot by knot as the reference the
    batched tube must reproduce: row 0 is zero, then golden-ratio points
    pulled into the ball."""
    x = 2.0
    for _ in range(64):
        x = (1.0 + x) ** (1.0 / (dim + 1))
    alpha = (1.0 / x) ** np.arange(1, dim + 1)
    idx = np.arange(offset, offset + count - 1, dtype=float)
    pts = 2.0 * np.mod(0.5 + idx[:, None] * alpha[None, :], 1.0) - 1.0
    pts = pts / np.maximum(1.0, np.linalg.norm(pts, axis=1, keepdims=True))
    return np.concatenate([np.zeros((1, dim)), pts], axis=0)


def _per_knot_tube(prob, cand, radii, weak, samples=32):
    nt = cand.grid.size
    dim = prob.n + prob.m if weak else prob.n
    X = np.empty((nt * samples, prob.n))
    U = np.empty((nt * samples, prob.m))
    for k in range(nt):
        offs = _per_knot_ball_offsets(dim, samples, offset=k * samples)
        rows = slice(k * samples, (k + 1) * samples)
        X[rows] = cand.x[k] + radii[k] * offs[:, :prob.n]
        if weak:
            u_pts = cand.u[k] + radii[k] * offs[:, prob.n:]
            U[rows] = np.stack([prob.U.project(up) for up in u_pts])
        else:
            U[rows] = cand.u[k]
    return np.repeat(cand.grid, samples), X, U


class TestTube:
    @pytest.mark.parametrize("mode", ["strong", "weak"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [1, 2])
    def test_samples_match_the_per_knot_construction_bitwise(self, mode, n, m):
        from pmpcheck.problem import _tube

        # u1 in (0, inf): an open finite face and an infinite one; u2 in [-1, 1)
        bounds = ["(0, inf)", "[-1, 1)"][:m]
        src = "\n".join([
            "[problem]", f"n = {n}", f"m = {m}", "x0 = " + ", ".join(["1.0"] * n),
            "[dynamics]", *(f"phi{i} = -x{i} + u1" for i in range(1, n + 1)),
            "[objective]", "f = x1^2 + u1^2", "omega = exp_decay 1.0",
            "[space]", "nu = exp_decay 1.0", "eta = exp_decay 0.1",
            "[controls]", *(f"u{i} = {b}" for i, b in enumerate(bounds, start=1)),
        ])
        prob = parse_problem(src)
        grid = np.linspace(0.0, 20.0, 301)
        x = np.exp(-grid)[:, None] * np.arange(1.0, n + 1.0)
        u = np.column_stack([0.01 + 0.0 * grid, 0.9 + 0.0 * grid][:m])
        cand = CandidateProcess(grid=grid, x=x, u=u)
        weak, radii, resolvable, samples = _tube(prob, cand, 0.5, mode)

        expected_radii = (0.5 * np.asarray(prob.eta(grid)) if mode == "weak"
                          else np.full(grid.size, 0.5))
        np.testing.assert_array_equal(radii, expected_radii)
        assert weak == (mode == "weak") and np.all(resolvable)
        for got, want in zip(samples(grid.size), _per_knot_tube(prob, cand, radii, weak)):
            np.testing.assert_array_equal(got, want)
        if weak:  # the box is reached, so the projection mattered
            assert np.min(samples(grid.size)[2][:, 0]) > 0.0
