"""Unit tests for the expression AST and canonicalising constructors."""

import math

import pytest

from repro.symbolic import (
    Add,
    BoolOp,
    Call,
    Const,
    Der,
    ITE,
    Mul,
    Pow,
    Rel,
    Sym,
    add,
    as_expr,
    count_nodes,
    div,
    free_symbols,
    mul,
    neg,
    postorder,
    pow_,
    preorder,
    sub,
    symbols,
)

x, y, z = symbols("x y z")


class TestConst:
    def test_int_kept_exact(self):
        assert Const(3).value == 3
        assert isinstance(Const(3).value, int)

    def test_float_canonicalised_to_int(self):
        assert Const(2.0).value == 2
        assert isinstance(Const(2.0).value, int)

    def test_non_integral_float_kept(self):
        assert Const(2.5).value == 2.5

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            Const(True)

    def test_string_rejected(self):
        with pytest.raises(TypeError):
            Const("3")  # type: ignore[arg-type]

    def test_equality_across_int_float(self):
        assert Const(2) == Const(2.0)
        assert hash(Const(2)) == hash(Const(2.0))


class TestSym:
    def test_name(self):
        assert Sym("foo").name == "foo"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Sym("")

    def test_equality_and_hash(self):
        assert Sym("a") == Sym("a")
        assert Sym("a") != Sym("b")
        assert hash(Sym("a")) == hash(Sym("a"))

    def test_not_equal_to_const(self):
        assert Sym("a") != Const(1)


class TestAdd:
    def test_flattening(self):
        e = add(x, add(y, z))
        assert isinstance(e, Add)
        assert len(e.args) == 3

    def test_constant_folding(self):
        assert add(Const(2), Const(3)) == Const(5)

    def test_zero_identity(self):
        assert add(x, Const(0)) == x

    def test_like_terms_collected(self):
        assert add(x, x) == mul(Const(2), x)
        assert add(x, mul(Const(2), x)) == mul(Const(3), x)

    def test_cancellation(self):
        assert add(x, neg(x)) == Const(0)

    def test_empty_sum_is_zero(self):
        assert add() == Const(0)

    def test_single_term_unwrapped(self):
        assert add(x) is x

    def test_deterministic_order(self):
        assert add(x, y) == add(y, x)
        assert hash(add(x, y)) == hash(add(y, x))

    def test_coefficient_zero_removed(self):
        e = add(mul(Const(2), x), mul(Const(-2), x), y)
        assert e == y

    def test_mixed_constants_collected(self):
        e = add(Const(1), x, Const(2))
        assert isinstance(e, Add)
        assert Const(3) in e.args


class TestMul:
    def test_flattening(self):
        e = mul(x, mul(y, z))
        assert isinstance(e, Mul)
        assert len(e.args) == 3

    def test_constant_folding(self):
        assert mul(Const(2), Const(3)) == Const(6)

    def test_zero_annihilates(self):
        assert mul(x, Const(0)) == Const(0)

    def test_one_identity(self):
        assert mul(x, Const(1)) == x

    def test_powers_merged(self):
        assert mul(x, x) == pow_(x, Const(2))
        assert mul(x, pow_(x, Const(2))) == pow_(x, Const(3))

    def test_power_cancellation(self):
        assert mul(x, pow_(x, Const(-1))) == Const(1)

    def test_empty_product_is_one(self):
        assert mul() == Const(1)

    def test_deterministic_order(self):
        assert mul(x, y) == mul(y, x)


class TestPow:
    def test_zero_exponent(self):
        assert pow_(x, Const(0)) == Const(1)

    def test_one_exponent(self):
        assert pow_(x, Const(1)) is x

    def test_one_base(self):
        assert pow_(Const(1), x) == Const(1)

    def test_zero_base_positive_exponent(self):
        assert pow_(Const(0), Const(3)) == Const(0)

    def test_zero_base_symbolic_exponent_kept(self):
        e = pow_(Const(0), x)
        assert isinstance(e, Pow)

    def test_constant_folding(self):
        assert pow_(Const(2), Const(10)) == Const(1024)

    def test_negative_base_fractional_exponent_kept_symbolic(self):
        e = pow_(Const(-2), Const(0.5))
        assert isinstance(e, Pow)

    def test_nested_power_combined(self):
        e = pow_(pow_(x, Const(2)), Const(3))
        assert e == pow_(x, Const(6))

    def test_huge_integer_power_becomes_float(self):
        e = pow_(Const(10), Const(30))
        assert isinstance(e, Const)
        assert isinstance(e.value, float)


class TestDivNeg:
    def test_div_by_constant_becomes_multiplication(self):
        e = div(x, Const(4))
        assert e == mul(Const(0.25), x)

    def test_div_by_symbol(self):
        e = div(x, y)
        assert e == mul(x, pow_(y, Const(-1)))

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            div(x, Const(0))

    def test_neg(self):
        assert neg(x) == mul(Const(-1), x)
        assert neg(Const(3)) == Const(-3)

    def test_sub(self):
        assert sub(x, x) == Const(0)


class TestOperators:
    def test_python_operators(self):
        assert (x + y) == add(x, y)
        assert (x - y) == sub(x, y)
        assert (x * y) == mul(x, y)
        assert (x / y) == div(x, y)
        assert (x**2) == pow_(x, Const(2))
        assert (-x) == neg(x)
        assert (+x) is x

    def test_reflected_operators(self):
        assert (2 + x) == add(Const(2), x)
        assert (2 - x) == sub(Const(2), x)
        assert (2 * x) == mul(Const(2), x)
        assert (2 / x) == div(Const(2), x)
        assert (2**x) == pow_(Const(2), x)

    def test_relational_builders(self):
        assert x.lt(y) == Rel("<", x, y)
        assert x.le(0) == Rel("<=", x, Const(0))
        assert x.gt(y) == Rel(">", x, y)
        assert x.ge(y) == Rel(">=", x, y)


class TestOtherNodes:
    def test_call_arity_preserved(self):
        e = Call("atan2", (x, y))
        assert e.fn == "atan2"
        assert e.args == (x, y)

    def test_der(self):
        d = Der(x)
        assert d.expr is x
        assert Der(x) == Der(x)

    def test_rel_bad_op(self):
        with pytest.raises(ValueError):
            Rel("<>", x, y)

    def test_boolop_validation(self):
        with pytest.raises(ValueError):
            BoolOp("xor", [x, y])
        with pytest.raises(ValueError):
            BoolOp("not", [x, y])
        with pytest.raises(ValueError):
            BoolOp("and", [x])

    def test_ite_args(self):
        e = ITE(Rel("<", x, y), x, y)
        assert e.cond == Rel("<", x, y)
        assert e.then is x
        assert e.orelse is y


class TestTraversal:
    def test_preorder_parent_first(self):
        e = add(x, mul(y, z))
        nodes = list(preorder(e))
        assert nodes[0] is e
        assert len(nodes) == count_nodes(e)

    def test_count_nodes_repeated_and_shared(self):
        shared = mul(add(x, y), Call("sin", (z,)))
        e = ITE(Rel("<", shared, z), shared, Call("cos", (shared,)))
        want = len(list(preorder(e)))
        assert count_nodes(e) == want
        assert count_nodes(e) == want  # memoised: same answer again
        # a subtree already sized as part of ``e`` keeps its own count,
        # and a new tree reusing it still counts the subtree each time
        assert count_nodes(shared) == len(list(preorder(shared)))
        wrapper = add(shared, Call("exp", (e,)))
        assert count_nodes(wrapper) == len(list(preorder(wrapper)))
        leaf = Sym("fresh_leaf")
        assert count_nodes(leaf) == 1 == len(list(preorder(leaf)))

    def test_postorder_children_first(self):
        e = add(x, mul(y, z))
        nodes = list(postorder(e))
        assert nodes[-1] is e

    def test_free_symbols(self):
        e = add(x, mul(y, Const(2)), Call("sin", (x,)))
        assert free_symbols(e) == frozenset({x, y})

    def test_free_symbols_of_leaf(self):
        assert free_symbols(x) == frozenset({x})
        assert free_symbols(Const(1)) == frozenset()


class TestWithArgs:
    def test_add_rebuild(self):
        e = add(x, y)
        rebuilt = e.with_args((x, x))
        assert rebuilt == mul(Const(2), x)

    def test_pow_rebuild(self):
        e = pow_(x, Const(2))
        assert e.with_args((y, Const(3))) == pow_(y, Const(3))

    def test_leaf_rejects_children(self):
        with pytest.raises(ValueError):
            Sym("a").with_args((x,))


def test_as_expr():
    assert as_expr(3) == Const(3)
    assert as_expr(2.5) == Const(2.5)
    assert as_expr(x) is x
    with pytest.raises(TypeError):
        as_expr("oops")  # type: ignore[arg-type]


def test_internal_constructors_guarded():
    with pytest.raises(RuntimeError):
        Add((x, y))
    with pytest.raises(RuntimeError):
        Mul((x, y))
    with pytest.raises(RuntimeError):
        Pow(x, y)
