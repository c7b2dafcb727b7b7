"""Problem parsing, candidate processes, and the assumption audits."""

import dataclasses
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_pmp
from pmpcheck.expressions import DomainError, parse_expression
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
    _evaluator,
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

    def test_control_index_out_of_range(self):
        src = REGULATOR + "\n[controls]\nu2 = [0, 1]\n"
        with pytest.raises(ProblemSyntaxError,
                           match=re.escape("control index 'u2' out of range (m=1)")):
            parse_problem(src)

    @pytest.mark.parametrize("change,message", [
        ({"n": 0}, "need n >= 1 states and m >= 1 controls"),
        ({"phi": ()}, "dynamics has 0 components, n=1"),
        ({"x0": np.zeros(2)}, "x0 has shape (2,), expected (1,)"),
        ({"m": 2}, "control box has 1 coordinates, m=2"),
    ], ids=["no-states", "dynamics", "x0", "control-box"])
    def test_a_problem_refuses_mismatched_dimensions(self, change, message):
        prob = parse_problem(REGULATOR)
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            dataclasses.replace(prob, **change)

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

    @pytest.mark.parametrize("name,shape", [
        ("x", (5, 1, 1)), ("u", (5, 2, 3)), ("x", ()),
    ], ids=["deep-state", "deep-control", "scalar-state"])
    def test_misshaped_samples_are_refused(self, name, shape):
        # these used to be accepted: a (5, 1, 1) state then failed in
        # state() with numpy's "object too deep for desired array", a
        # (5, 2, 3) control read as m = 2 with control(0.5) shaped (1, 2, 3),
        # and a scalar state raised a bare IndexError
        grid = np.linspace(0.0, 1.0, 5)
        samples = {"x": np.zeros((5, 1)), "u": np.zeros((5, 1)), name: np.zeros(shape)}
        width = "n" if name == "x" else "m"
        with pytest.raises(DimensionMismatch, match=re.escape(
                f"{name} samples have shape {shape}; expected (5,) or (5, {width})")):
            CandidateProcess(grid=grid, **samples)

    def test_solve_state_refuses_misshaped_control_samples(self):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DimensionMismatch, match=re.escape(
                "control samples have shape (5, 1, 1); expected (5,) or (5, m)")):
            solve_state(parse_problem(REGULATOR), np.zeros((5, 1, 1)), grid=grid)

    def test_misshaped_closed_forms_are_refused(self):
        # the Gauss rule asks for the state at times shaped (K, 7); a hook
        # answering (K, 1, 7) there broadcast without error and read
        # adjoint_residual 1.9e-3 on the exact regulator instead of 3.3e-8
        grid = test_pmp.default_grid(50.0, cells=2048, refine_zero=False)
        exact = test_pmp.regulator_candidate(grid)
        cand = dataclasses.replace(exact, closed_x=lambda t: (
            exact.closed_x(t)[..., None, :] if np.ndim(t) == 2 else exact.closed_x(t)))
        adj = test_pmp.adjoint_from_function(grid, test_pmp.regulator_p)
        with pytest.raises(DimensionMismatch, match=re.escape(
                "closed_x returned shape (2048, 1, 7) for times shaped (2048, 7); "
                "expected (2048, 7, 1)")):
            test_pmp.check_adjoint(test_pmp.regulator(), cand, adj)
        cand = dataclasses.replace(exact, closed_u=lambda t: np.zeros(np.shape(t) + (2,)))
        with pytest.raises(DimensionMismatch, match=re.escape(
                "closed_u returned shape (3, 2) for times shaped (3,); expected (3, 1)")):
            cand.control(np.zeros(3))
        # for one coordinate a bare t.shape is promoted
        assert exact.state(np.zeros((3, 7))).shape == (3, 7, 1)
        assert exact.state(0.5).shape == (1,)

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


# the cap case: f leaves its domain on the cap x1 > 0.1 - depth of the tube
# of radius 0.1 around x = 0
CAP = """
[problem]
n = 2
m = 1
x0 = 0, 0
[dynamics]
phi1 = -x1 + u1
phi2 = -x2
[objective]
f = x1^2 + x2^2 + u1^2 + 0.001*sqrt(0.1 - {depth!r} - x1)
omega = exp_decay 1.0
[space]
nu = exp_decay 1.0
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
        # ln is steep near its domain edge but continuous: the fault is the
        # hole that A2 names, not a jump
        assert rep.verdicts["A1"] == "no counterexample"
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

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_a_gamma_that_is_not_finite_is_rejected(self, gamma):
        # NaN compares False with 0, so a sign test alone let it through
        with pytest.raises(ValueError, match="gamma must be finite"):
            audit_assumptions(parse_problem(REGULATOR), regulator_candidate(), gamma=gamma)

    def test_sign_jump_at_a_probed_point_fails_continuity(self):
        # sign() only exists as an internal node, so the jumpy integrand is
        # assembled directly; its surface x = 2 passes through the
        # candidate's start, the first tube sample
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

    def test_continuity_skips_knots_outside_the_domain_and_names_the_first_crossing(self):
        # ln(t - 10) leaves its domain up to t = 10, so no knot up to there
        # is judged.  At the next knot, t = 10.05, the candidate sits at
        # 2.4975 and the tube [1.9975, 2.9975] already holds the jump
        # surface x = 2 of sign(x - 2): that knot is the first crossing,
        # though the candidate itself returns onto the surface only at t = 20
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
        t_w, (x_w,), u_w = rep.witnesses["A1"]
        assert (t_w, x_w, u_w) == (cand.grid[201], cand.x[201, 0], (0.0,))
        assert t_w == pytest.approx(10.05) and x_w == pytest.approx(2.4975)

    @pytest.mark.parametrize("route", ["node", "derivative"])
    def test_sign_surface_anywhere_in_the_tube_fails_continuity(self, route):
        # the surface x = 2.3 lies inside the tube of radius 0.5 at t = 0,
        # but 0.3 from the candidate, beyond half the radius, where a probe
        # stepping from the candidate never reached it.  The parser refuses
        # sign, so the node is built directly or as the derivative of abs
        from pmpcheck.expressions import Call, Num, Sym, add, parse_expression, sub

        base = parse_problem(REGULATOR)
        jump = (Call("sign", (sub(Sym("x1"), Num(2.3)),)) if route == "node"
                else parse_expression("abs(x1 - 2.3)").diff("x1"))
        assert str(jump) == "sign(x1 - 2.3)"
        prob = dataclasses.replace(base, f=add(base.f, jump))
        rep = audit_assumptions(prob, regulator_candidate(), gamma=0.5)
        assert rep.verdicts["A1"] == "fail"
        assert rep.witnesses["A1"] == (0.0, (2.0,), (2.0 * _RATE,))

    def test_a_sign_of_the_control_counts_in_the_weak_mode_only(self):
        # the surface u = u*(0) passes through the candidate's control at
        # t = 0.  The weak tube moves u and fails there; the strong tube
        # keeps u at u*, so a jump in u alone is a matter of measurability
        # in t, which stays assumed
        from pmpcheck.expressions import Call, Num, Sym, add, sub

        src = REGULATOR.replace("nu = exp_decay 1.0", "nu = exp_decay 1.0\neta = exp_decay 0.1")
        base = parse_problem(src)
        prob = dataclasses.replace(
            base, f=add(base.f, Call("sign", (sub(Sym("u1"), Num(float(2.0 * _RATE))),))))
        weak = audit_assumptions(prob, regulator_candidate(), gamma=0.5, mode="weak")
        assert weak.verdicts["B1"] == "fail"
        assert weak.witnesses["B1"] == (0.0, (2.0,), (2.0 * _RATE,))
        strong = audit_assumptions(prob, regulator_candidate(), gamma=0.5)
        assert strong.verdicts["A1"] == "no counterexample"
        assert "A1" not in strong.witnesses

    def test_domain_witnesses_list_the_states_by_index(self):
        # with n = 11 the keys x1, x10, x11, x2, ... sort as strings; the
        # witnesses of A2 and A3 must read x1..x11 in order, so the
        # offending x2 <= 0 sits second
        n = 11
        src = (f"[problem]\nn = {n}\nm = 1\nx0 = {', '.join(str(i) for i in range(1, n + 1))}\n"
               "[dynamics]\n" + "".join(f"phi{i} = -x{i} + 0*u1\n" for i in range(1, n + 1))
               + "[objective]\nf = ln(x2) + u1^2\nomega = exp_decay 1.0\n"
               "[space]\nnu = exp_decay 1.0\n[constraints]\ng1 = ln(x2) - 10\n")
        prob = parse_problem(src)
        grid = np.linspace(0.0, 10.0, 65)
        scale = np.arange(1.0, n + 1)
        cand = candidate_from_functions(grid, lambda t: np.exp(-np.asarray(t))[..., None] * scale,
                                        lambda t: 0.0 * t)
        rep = audit_assumptions(prob, cand, gamma=5.0)
        assert rep.verdicts["A2"] == "fail"
        t_w, x_w, u_w = rep.witnesses["A2"]
        assert len(x_w) == n and u_w == (0.0,)
        assert x_w[1] <= 0.0
        # the witness is a tube point: every coordinate within the radius of x*
        x_star = scale * np.exp(-t_w)
        assert np.all(np.abs(np.array(x_w) - x_star) <= 5.0 * (1 + 1e-12))
        # the constraint's witness is read by the same rule, without a control
        assert rep.verdicts["A3"] == "fail"
        _, x_w, u_w = rep.witnesses["A3"]
        assert len(x_w) == n and u_w is None and x_w[1] <= 0.0

    @pytest.mark.parametrize("mode", ["strong", "weak"])
    def test_evaluator_calls_do_not_grow_with_the_grid(self, mode, monkeypatch):
        # every stage encloses all knots in one call of the interval
        # evaluator, and the growth and constraint bounds one more at the
        # ball centres; a per-knot loop would scale with the knots
        from pmpcheck import expressions, problem

        enclose, bisect, stages = expressions._enclose, expressions._bisect, []

        def counted(*args):
            stages[-1] += 1
            return enclose(*args)

        def stage(*args):
            stages.append(0)
            return bisect(*args)

        monkeypatch.setattr(expressions, "_enclose", counted)
        monkeypatch.setattr(problem, "_enclose", counted)
        monkeypatch.setattr(problem, "_bisect", stage)
        prob = parse_problem(REGULATOR.replace("nu = exp_decay 1.0",
                                               "nu = exp_decay 1.0\neta = exp_decay 0.1")
                             + "\n[constraints]\ng1 = x1 - 3\n")
        counts = []
        for cells in (257, 2049):
            stages.clear()
            audit_assumptions(prob, regulator_candidate(points=cells + 1), gamma=0.5, mode=mode)
            counts.append(list(stages))
        assert counts[0] == counts[1]
        # cost, growth, and in the uniform mode the constraints
        assert counts[0] == ([1, 2, 2] if mode == "strong" else [1, 2])

    @pytest.mark.parametrize("depth", [1e-2, 1e-4, 1e-6, 1e-9])
    def test_a_cap_of_the_tube_outside_the_domain_fails_A2(self, depth):
        # f is undefined on the cap x1 > 0.1 - depth of the tube of radius
        # 0.1 around x = 0, however thin the cap; the witness lies in it
        prob = parse_problem(CAP.format(depth=depth))
        grid = np.linspace(0.0, 50.0, 2049)
        cand = CandidateProcess(grid=grid, x=np.zeros((grid.size, 2)), u=np.zeros(grid.size))
        rep = audit_assumptions(prob, cand, gamma=0.1)
        assert rep.verdicts["A2"] == "fail"
        t_w, x_w, u_w = rep.witnesses["A2"]
        assert t_w == 0.0 and u_w == (0.0,)
        assert np.linalg.norm(x_w) <= 0.1 * (1 + 1e-12) and x_w[0] > 0.1 - depth
        assert "A2: cost data left its domain inside the tube" in rep.notes
        assert np.all(np.isinf(rep.L_values))

    def test_a_knot_the_budget_leaves_open_reads_undetermined(self, monkeypatch):
        # with too few boxes to reach the cap of depth 1e-9, no knot is
        # proved or failed: A2 is undetermined, which is not OK
        from pmpcheck import expressions

        monkeypatch.setattr(expressions, "_BOX_BUDGET", 2 ** 10)
        prob = parse_problem(CAP.format(depth=1e-9))
        grid = np.linspace(0.0, 50.0, 2049)
        cand = CandidateProcess(grid=grid, x=np.zeros((grid.size, 2)), u=np.zeros(grid.size))
        rep = audit_assumptions(prob, cand, gamma=0.1)
        assert rep.verdicts["A2"] == "undetermined" and not rep.all_ok
        assert "A2" not in rep.witnesses
        assert ("A2: cost data not proved defined on the tube at 2049 knot(s), the first at t=0"
                in rep.notes)

    def test_constraint_data_is_audited_in_the_uniform_mode(self):
        src = REGULATOR + "\n[constraints]\ng1 = x1 - 2\n"
        prob = parse_problem(src)
        rep = audit_assumptions(prob, regulator_candidate(), gamma=0.5)
        assert rep.verdicts["A3"] == "pass"
        assert any("Lipschitz" in note for note in rep.notes)

    def test_constraint_data_outside_its_domain_fails_A3(self):
        # x* decays to 0, so the tube of radius 0.5 reaches x1 <= 0, where
        # ln(x1) is undefined; the witness is a tube point there
        prob = parse_problem(REGULATOR + "\n[constraints]\ng1 = ln(x1)\n")
        rep = audit_assumptions(prob, regulator_candidate(), gamma=0.5)
        assert rep.verdicts["A3"] == "fail"
        t, (x,), u = rep.witnesses["A3"]
        assert x <= 0.0 and u is None
        assert abs(2.0 * np.exp(_RATE * t) - x) <= 0.5
        assert "A3: constraint data left its domain inside the tube" in rep.notes

    def test_constraint_constants_rising_at_the_horizon_fail_A3(self):
        # |g| / (1 + |x|) grows like e^{t/10} to the end of the grid
        prob = parse_problem(REGULATOR + "\n[constraints]\ng1 = x1 - exp(0.1*t)\n")
        rep = audit_assumptions(prob, regulator_candidate(), gamma=0.5)
        assert rep.verdicts["A3"] == "fail"
        assert rep.witnesses["A3"][0] == 50.0
        assert "A3: constraint constants still rising at the horizon" in rep.notes


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

    @pytest.mark.parametrize("t", [0.7, np.linspace(0.0, 1.0, 5), np.full((2, 3), 0.5)],
                             ids=["scalar", "vector", "matrix"])
    def test_constant_evaluators_return_read_only_stride_0_views(self, t):
        # phi = (x1, -x2), f = x2^2 and g = x1 + x2 - 9: phi_x, phi_u, f_u,
        # g_x and the control slopes hold constants only, f_x and the values
        # read the state.  The certificates of test_pmp read such views and
        # would raise on a write into one
        prob = parse_problem(test_pmp.TWO_STATE + "[constraints]\ng1 = x1 + x2 - 9\n")
        t = np.asarray(t)
        x = np.broadcast_to([0.5, 2.0], t.shape + (2,))
        u = np.full(t.shape + (1,), 0.25)
        constant = {
            "phi_jac_x": ((t, x, u), [[1.0, 0.0], [0.0, -1.0]]),
            "phi_jac_u": ((t, x, u), [[0.0], [0.0]]),
            "f_grad_u": ((t, x, u), [0.0]),
            "g_jac_x": ((t, x), [[1.0, 1.0]]),
        }
        for name, (args, want) in constant.items():
            out = getattr(prob, name)(*args)
            assert out.shape == t.shape + np.shape(want), name
            assert not out.flags.writeable, name
            assert out.strides[:t.ndim] == (0,) * t.ndim, name
            np.testing.assert_array_equal(out, np.broadcast_to(want, out.shape), err_msg=name)
        slopes = prob.u_slopes(0, t, x, u)
        assert slopes.shape == t.shape + (2, 3) and not slopes.flags.writeable
        np.testing.assert_array_equal(slopes, 0.0)
        # the single-expression form: a constant broadcasts the same way
        value = _evaluator([parse_expression("2 * 3")], (), 2, 1)(t, x, u)
        assert value.shape == t.shape and not value.flags.writeable
        assert value.strides == (0,) * t.ndim and np.all(value == 6.0)
        for name in ("f_value", "f_grad_x", "phi_value"):
            assert getattr(prob, name)(t, x, u).flags.writeable, name

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


class TestTube:
    @pytest.mark.parametrize("mode", ["strong", "weak"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [1, 2])
    def test_each_knot_box_holds_the_closed_ball(self, mode, n, m):
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
        weak, radii, resolvable, box = _tube(prob, cand, 0.5, mode)

        expected_radii = (0.5 * np.asarray(prob.eta(grid)) if mode == "weak"
                          else np.full(grid.size, 0.5))
        np.testing.assert_array_equal(radii, expected_radii)
        assert weak == (mode == "weak") and np.all(resolvable)
        assert box["t"][0] is box["t"][1] and np.array_equal(box["t"][0], grid)
        for i in range(n):  # rounded out: the closed ball's extreme points lie inside
            lo, hi = box[f"x{i + 1}"]
            assert np.all(lo < x[:, i] - radii) and np.all(hi > x[:, i] + radii)
        controls = np.stack([np.column_stack(box[f"u{j + 1}"]) for j in range(m)], axis=-1)
        if not weak:  # the control stays the candidate's, a point
            assert all(box[f"u{j + 1}"][0] is box[f"u{j + 1}"][1] for j in range(m))
            np.testing.assert_array_equal(controls[:, 0], u)
            return
        # weak: u* -+ r clipped as ControlBox.project clips, so no end
        # touches an open face, and every projected ball point lies inside
        np.testing.assert_array_equal(controls[:, 0], prob.U.project(u - radii[:, None]))
        np.testing.assert_array_equal(controls[:, 1], prob.U.project(u + radii[:, None]))
        assert np.all(controls[:, 0, 0] > 0.0) and (m == 1 or np.all(controls[:, 1, 1] < 1.0))
        rng = np.random.default_rng(5)
        ball = rng.normal(size=(grid.size, 64, n + m))
        ball *= (rng.random((grid.size, 64, 1)) ** (1 / (n + m))
                 / np.linalg.norm(ball, axis=-1, keepdims=True))
        moved = u[:, None] + radii[:, None, None] * ball[..., n:]
        projected = prob.U.project(moved.reshape(-1, m)).reshape(grid.size, 64, m)
        assert np.all(controls[:, None, 0] <= projected)
        assert np.all(projected <= controls[:, None, 1])


# the half-open weak problem of
# TestAudit::test_weak_mode_clips_control_samples_into_a_half_open_box
HALF_OPEN = """
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


def _bound_cases():
    """(problem, candidate, gamma) per case, on 256 cells over [0, 50]; eta =
    e^{-t/10} where none is declared."""
    from pmpcheck.weights import exp_decay

    grid = np.linspace(0.0, 50.0, 257)
    two_state = parse_problem(test_pmp.TWO_STATE.replace("x0 = 1.0, 1.0", "x0 = 0.0, 1.0"))
    cases = {
        "regulator": (test_pmp.regulator(), test_pmp.regulator_candidate(grid), 0.5),
        "extraction": (parse_problem(test_pmp.EXTRACTION),
                       test_pmp.extraction_candidate(grid), 0.5),
        "two-state": (two_state, CandidateProcess(
            grid=grid, x=np.column_stack([0.0 * grid, np.exp(-grid)]), u=0.0 * grid), 0.5),
        "half-open": (parse_problem(HALF_OPEN), candidate_from_functions(
            grid, lambda t: np.exp(-0.5 * t), lambda t: 0.5 + 0.0 * t), 0.4),
        # |phi| / (1 + |x|), not the Jacobian's norm, sets C0 here
        "drift": (parse_problem(REGULATOR.replace("phi1 = u1", "phi1 = 3 + 0.5*x1 + u1")),
                  regulator_candidate(points=257), 0.5),
    }
    return {name: (prob if prob.eta else dataclasses.replace(prob, eta=exp_decay(0.1)),
                   cand, gamma) for name, (prob, cand, gamma) in cases.items()}


_AUDITS = {}


def _audited(case: str, mode: str):
    if (case, mode) not in _AUDITS:
        prob, cand, gamma = _bound_cases()[case]
        _AUDITS[case, mode] = prob, cand, gamma, audit_assumptions(prob, cand, gamma, mode)
    return _AUDITS[case, mode]


class TestBoundsHold:
    @settings(max_examples=300, deadline=None)
    @given(case=st.sampled_from(["regulator", "extraction", "two-state", "half-open", "drift"]),
           mode=st.sampled_from(["strong", "weak"]),
           knot=st.integers(0, 256),
           direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           reach=st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]))
    def test_no_point_of_the_closed_ball_exceeds_the_bounds(self, case, mode, knot,
                                                            direction, reach):
        # L_values bounds sqrt(f^2 + |f_x|^2 (+ |f_u|^2)) at each knot, and C0
        # the growth ratio and the Jacobian's norm, at every point of the
        # closed ball, the boundary included; weak mode moves u and projects it
        prob, cand, gamma, rep = _audited(case, mode)
        assert rep.verdicts["B2" if mode == "weak" else "A2"] == "pass"
        weak = mode == "weak"
        dim = prob.n + prob.m if weak else prob.n
        step = np.array(direction[:dim])
        if not np.any(step):
            step[0] = 1.0
        step /= np.max(np.abs(step))  # so that squaring cannot underflow
        radius = gamma * (float(prob.eta(cand.grid[knot])) if weak else 1.0)
        step *= reach * radius / np.linalg.norm(step)
        t = cand.grid[knot]
        x = cand.x[knot] + step[:prob.n]
        u = prob.U.project(cand.u[knot] + step[prob.n:]) if weak else cand.u[knot]
        cost = [np.atleast_1d(prob.f_value(t, x, u)), prob.f_grad_x(t, x, u)]
        jac = [prob.phi_jac_x(t, x, u).ravel()]
        scale = 1.0 + np.linalg.norm(x)
        if weak:
            cost.append(prob.f_grad_u(t, x, u))
            jac.append(prob.phi_jac_u(t, x, u).ravel())
            scale += np.linalg.norm(u)
        assert np.linalg.norm(np.concatenate(cost)) <= rep.L_values[knot]
        assert np.linalg.norm(prob.phi_value(t, x, u)) / scale <= rep.C0
        assert np.linalg.norm(np.concatenate(jac)) <= rep.C0
