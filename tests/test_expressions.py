import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactmoc import fixtures
from contactmoc.expressions import ExpressionError, SmoothExpression, _number, parse_expression
from tests import expression_reference


def test_polynomial_derivatives_exact():
    f = SmoothExpression("1 + 0.5*x - 2*x**3")
    xs = np.linspace(-1, 2, 7)
    assert np.allclose(f(xs, 0), 1 + 0.5 * xs - 2 * xs**3)
    assert np.allclose(f(xs, 1), 0.5 - 6 * xs**2)
    assert np.allclose(f(xs, 2), -12 * xs)
    assert np.allclose(f(xs, 3), -12.0)


def test_trig_chain_rule():
    f = SmoothExpression("sin(pi * x) ** 2")
    xs = np.linspace(0, 1, 11)
    assert np.allclose(f(xs, 1), np.pi * np.sin(2 * np.pi * xs), atol=1e-12)
    assert np.allclose(f(xs, 2), 2 * np.pi**2 * np.cos(2 * np.pi * xs), atol=1e-12)


def test_exp_and_division():
    f = SmoothExpression("exp(x) / (1 + x)")
    h = 1e-5
    x0 = 0.7
    fd = (f(x0 + h) - f(x0 - h)) / (2 * h)
    assert f(x0, 1) == pytest.approx(fd, rel=1e-8)


def test_variable_name_respected():
    f = SmoothExpression("0.01 * sin(pi * y)", var="y")
    assert f(0.5) == pytest.approx(0.01)


def test_rejects_unknown_names_and_calls():
    with pytest.raises(ExpressionError):
        parse_expression("z + 1")
    with pytest.raises(ExpressionError):
        parse_expression("__import__('os')")
    with pytest.raises(ExpressionError):
        parse_expression("x ** x")
    with pytest.raises(ExpressionError):
        parse_expression("tan(x)")


# ---------------------------------------------------------------------------
# The compiled program against the recursive walker (tests/expression_reference.py)

_, _GEOM, _ = fixtures.perturbed_inputs(1e-3, nxi=140, neta=35)
_BLOWUP = dict(ln.split(" = ", 1) for ln in fixtures.BLOWUP_FIXTURE.format(
    delta=0.06, ny=400, x_max=200.0, grad_factor=15.0).splitlines() if ln.startswith(("u0 ", "v0 ")))
EXPRESSIONS = {
    "wall-minus": (_GEOM.g_minus.serialization()[1], "x"),   # the fixture walls
    "wall-plus": (_GEOM.g_plus.serialization()[1], "x"),
    "blowup-u0": (_BLOWUP["u0"], "y"),                        # the blow-up profile
    "blowup-v0": (_BLOWUP["v0"], "y"),
    "mixed": ("exp(x) / (1 + x) - cos(x) ** 0.5 + 2 ** 3 * x ** 2 / x ** 0.5", "x"),
    "constant": ("2.5", "x"),                                 # constant-only
    "negated-constant": ("-(3)", "x"),
    "negative-zero": ("-0.0", "x"),
    "constant-functions": ("sin(1) * pi ** 2", "x"),
    "signed-zeros": ("(-(2) - x * x) * (2 - x * x)", "x"),    # order 1 holds 0.0 and -0.0
    "variable": ("x", "x"),                                   # bare variable
    "negated-variable": ("-x", "x"),
}
SPECIAL = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -2.2250738585072014e-308,
           1.7976931348623157e308, 1.0, -1.0, 0.5]
_floats = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True, width=64)
_inputs = st.one_of(
    _floats,                                                           # Python floats
    _floats.map(np.array),                                             # 0-d arrays
    hnp.arrays(np.float64, st.integers(0, 6), elements=_floats),       # (n,)
    hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 4)), elements=_floats),
)


def _assert_same(got, ref):
    assert type(got) is type(ref)
    assert np.shape(got) == np.shape(ref)
    assert np.asarray(got).dtype == np.asarray(ref).dtype
    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def _check_against_walker(text, var, order, x):
    f = SmoothExpression(text, var=var)
    with np.errstate(all="ignore"):
        ref = expression_reference.evaluate(f._trees[order], x)
        got, again = f(x, order), f(x, order)
    _assert_same(got, ref)
    _assert_same(again, ref)
    if isinstance(x, np.ndarray):
        assert (got is x) == (ref is x)        # only a bare variable returns its input
    if isinstance(got, np.ndarray) and got is not x:
        assert got.flags.writeable
        assert not np.shares_memory(got, again)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(list(EXPRESSIONS.values())), order=st.integers(0, 3), x=_inputs)
def test_compiled_program_matches_the_recursive_walker_bit_for_bit(case, order, x):
    _check_against_walker(*case, order, x)


@pytest.mark.parametrize("case", EXPRESSIONS.values(), ids=EXPRESSIONS.keys())
@pytest.mark.parametrize("order", range(4))
def test_compiled_program_matches_the_walker_on_every_special_value(case, order):
    for v in SPECIAL:
        _check_against_walker(*case, order, v)
        _check_against_walker(*case, order, np.array(v))
    _check_against_walker(*case, order, np.array(SPECIAL))
    _check_against_walker(*case, order, np.array(SPECIAL[:10]).reshape(2, 5))


def test_each_distinct_subtree_is_one_operation():
    f = SmoothExpression(EXPRESSIONS["wall-plus"][0])
    f(0.5, 3)
    tree = f._trees[3]

    def subtrees(e):
        yield e
        for c in e[1:]:
            if isinstance(c, tuple):
                yield from subtrees(c)

    nodes = list(subtrees(tree))
    operations = [step for step in f._programs[3]._steps if step[0] is not _number]
    assert len(operations) == len({e for e in nodes if e[0] not in ("var", "num")})
    assert len(operations) < len(nodes) / 6
