"""Refusals of the library API that no other test reaches: each bad call raises
its exception type with its one-line message, word for word."""

from fractions import Fraction

import pytest

from hyperforms.classical import sylvester_resultant
from hyperforms.errors import DomainError
from hyperforms.hyperdet import binary_form_disc, cayley_hyperdet_222, det_rows
from hyperforms.parser import parse_poly
from hyperforms.polarisation import hyperresultant, jacobi_form, polarize
from hyperforms.poly import MultiPoly
from hyperforms.scalars import scalar_pow, zeta
from hyperforms.tensor import Tensor, multi_indices

T = Tensor((2, 2), [1, 2, 3, 4])
T23 = Tensor((2, 3), range(6))
X = MultiPoly.variable("x", ("x", "y"))

REFUSALS = [
    ("det_rows_ragged", lambda: det_rows([[1, 2], [3]]),
     DomainError, "determinant needs a square matrix"),
    ("cayley_of_a_matrix", lambda: cayley_hyperdet_222(T),
     DomainError, "expected shape 2x2x2, got 2x2"),
    ("jacobi_form_of_no_forms", lambda: jacobi_form([], (1,), ("x", "y")),
     DomainError, "empty system of forms"),
    ("hyperresultant_of_no_forms", lambda: hyperresultant([], ("x", "y")),
     DomainError, "empty system of forms"),
    ("multi_indices_of_no_variables", lambda: multi_indices(0, 2),
     DomainError, "need at least one variable"),
    ("multi_indices_of_negative_degree", lambda: multi_indices(2, -1),
     DomainError, "degree must be >= 0"),
    ("flat_index_arity", lambda: T.flat_index((0,)),
     IndexError, "index (0,) has wrong arity for shape (2, 2)"),
    ("flat_index_bounds", lambda: T.flat_index((0, 2)),
     IndexError, "index (0, 2) out of bounds for shape (2, 2)"),
    ("unflatten_past_the_end", lambda: T23.unflatten(6),
     IndexError, "index 6 out of bounds for shape (2, 3)"),
    ("unflatten_negative", lambda: T23.unflatten(-1),
     IndexError, "index -1 out of bounds for shape (2, 3)"),
    ("unflatten_float", lambda: T23.unflatten(2.0),
     TypeError, "'float' object cannot be interpreted as an integer"),
    ("transpose_not_a_permutation", lambda: T.transpose((0, 0)),
     ValueError, "(0, 0) is not a permutation of axes"),
    ("tensor_plus_scalar", lambda: T + 1,
     TypeError, "unsupported operand type(s) for +: 'Tensor' and 'int'"),
    ("tensor_shape_mismatch", lambda: T + Tensor((2,), [1, 2]),
     DomainError, "shape mismatch: (2, 2) vs (2,)"),
    ("apply_gl_axis", lambda: T.apply_gl(2, [[1, 0], [0, 1]]),
     DomainError, "axis 2 out of range for shape (2, 2)"),
    ("apply_gl_matrix_size", lambda: T.apply_gl(0, [[1, 0]]),
     DomainError, "matrix must be 2x2 for axis 0"),
    ("contract_axis_axis", lambda: T.contract_axis(-1, ("u", "v")),
     DomainError, "axis -1 out of range for shape (2, 2)"),
    ("contract_axis_name_count", lambda: T.contract_axis(0, ("u",)),
     DomainError, "need 2 contraction variables, got 1"),
    ("exponent_length", lambda: MultiPoly(("x", "y"), {(1,): 1}),
     ValueError, "exponent vector (1,) has wrong length for ('x', 'y')"),
    ("variable_not_among_variables", lambda: MultiPoly.variable("z", ("x",)),
     ValueError, "'z' not among variables ('x',)"),
    ("as_scalar_of_a_polynomial", lambda: X.as_scalar(),
     DomainError, "not a constant polynomial: x"),
    ("polynomial_over_zero", lambda: X / 0,
     ZeroDivisionError, "division of polynomial by zero scalar"),
    ("exact_div_by_a_string", lambda: X.exact_div("x"),
     TypeError, "divisor must be a polynomial or scalar"),
    ("binary_coefficients_of_zero", lambda: MultiPoly.zero(("x", "y")).binary_coefficients(("x", "y")),
     DomainError, "zero polynomial needs an explicit degree"),
    ("cyclotomic_minus_other_order", lambda: zeta(6) - zeta(4),
     ValueError, "mixed cyclotomic orders 6 and 4"),
    # a reflected operator names its own operation, the operands in their order
    ("float_minus_cyclotomic", lambda: 0.5 - zeta(6),
     TypeError, "unsupported operand type(s) for -: 'float' and 'Cyclotomic'"),
    ("float_over_cyclotomic", lambda: 0.5 / zeta(6),
     TypeError, "unsupported operand type(s) for /: 'float' and 'Cyclotomic'"),
    # an exponent is an integer, read with operator.index
    ("scalar_pow_float_exponent", lambda: scalar_pow(4, 0.5),
     TypeError, "'float' object cannot be interpreted as an integer"),
    ("scalar_pow_fraction_exponent", lambda: scalar_pow(Fraction(4), Fraction(1, 2)),
     TypeError, "'Fraction' object cannot be interpreted as an integer"),
    ("scalar_pow_str_exponent", lambda: scalar_pow(zeta(6), "2"),
     TypeError, "'str' object cannot be interpreted as an integer"),
    ("cyclotomic_float_power", lambda: zeta(6) ** 2.0,
     TypeError, "'float' object cannot be interpreted as an integer"),
    ("cyclotomic_fraction_power", lambda: zeta(6) ** Fraction(2),
     TypeError, "'Fraction' object cannot be interpreted as an integer"),
    ("cyclotomic_str_power", lambda: zeta(6) ** "2",
     TypeError, "'str' object cannot be interpreted as an integer"),
    # a variable name must read back from printed text and tensor JSON
    ("empty_variable_name", lambda: MultiPoly.variable("", ("",)),
     ValueError, "variable name '' is not an ASCII identifier"),
    ("variable_name_with_a_space", lambda: MultiPoly.variable("x y", ("x y", "z")),
     ValueError, "variable name 'x y' is not an ASCII identifier"),
    ("non_ascii_variable_name", lambda: MultiPoly.variable("é"),
     ValueError, "variable name 'é' is not an ASCII identifier"),
    ("dotted_variable_name", lambda: MultiPoly(("a.b",), {(1,): 1}),
     ValueError, "variable name 'a.b' is not an ASCII identifier"),
    ("root_of_unity_as_variable", lambda: MultiPoly.variable("zeta6"),
     ValueError, "variable name 'zeta6' is reserved for roots of unity"),
    ("root_of_unity_among_variables", lambda: MultiPoly(("x", "zeta12"), {}),
     ValueError, "variable name 'zeta12' is reserved for roots of unity"),
    ("variable_name_not_a_string", lambda: MultiPoly.variable(1, (1, 2)),
     ValueError, "variable name 1 is not an ASCII identifier"),
    ("tensor_json_variable_name", lambda: Tensor.from_json(
        '{"shape": [1], "vars": ["a.b"], "entries": ["0"]}'),
     ValueError, "variable name 'a.b' is not an ASCII identifier"),
    # the same rule at every door that stores a variable tuple
    ("zero_on_an_unreadable_name", lambda: MultiPoly.zero(("x y",)),
     ValueError, "variable name 'x y' is not an ASCII identifier"),
    ("constant_on_a_root_of_unity", lambda: MultiPoly.constant(1, ("zeta6",)),
     ValueError, "variable name 'zeta6' is reserved for roots of unity"),
    ("dot_on_an_unreadable_name", lambda: MultiPoly.dot(("a.b",), [], []),
     ValueError, "variable name 'a.b' is not an ASCII identifier"),
    ("extend_vars_by_an_unreadable_name", lambda: MultiPoly.variable("x").extend_vars(["a b"]),
     ValueError, "variable name 'a b' is not an ASCII identifier"),
    ("tensor_on_an_unreadable_name", lambda: Tensor((1,), [1], ("x y",)),
     ValueError, "variable name 'x y' is not an ASCII identifier"),
    ("polarize_on_an_unreadable_form_variable", lambda: polarize(
        parse_poly("x^2+y^2", ("x", "y")), (1,), ("x", "y", "w z")),
     ValueError, "variable name 'w z' is not an ASCII identifier"),
    # a declared degree is an integer, read with operator.index, and not negative
    ("binary_coefficients_of_negative_degree",
     lambda: MultiPoly.zero(("x", "y")).binary_coefficients(("x", "y"), -1),
     DomainError, "degree must be >= 0, got -1"),
    ("binary_coefficients_of_float_degree", lambda: X.binary_coefficients(("x", "y"), 1.0),
     TypeError, "'float' object cannot be interpreted as an integer"),
    ("binary_coefficients_of_bool_degree",
     lambda: (X * X * X).binary_coefficients(("x", "y"), True),
     DomainError, "expected a binary form of degree 1, got degree 3"),
    ("binary_form_disc_of_float_degree", lambda: binary_form_disc(X * X * X, ("x", "y"), 3.0),
     TypeError, "'float' object cannot be interpreted as an integer"),
    ("binary_form_disc_of_bool_degree", lambda: binary_form_disc(X * X, ("x", "y"), True),
     DomainError, "discriminant needs degree >= 2, limited to degree 32; got 1"),
    # names given once as an iterator are read once, and the message still names them
    ("homogeneous_degree_in_names_iterator", lambda: (X * X + MultiPoly.variable("y", ("x", "y")))
     .homogeneous_degree_in(iter(("x", "y"))),
     DomainError, "polynomial is not homogeneous in ('x', 'y'): degrees [1, 2]"),
    # a binary form's degree is bounded as the parser bounds it, before a list of
    # degree + 1 coefficients is built, whether it is declared or read off the terms
    ("binary_coefficients_above_the_degree_limit",
     lambda: MultiPoly.zero(("x", "y")).binary_coefficients(("x", "y"), 65),
     DomainError, "degree must be <= 64, got 65"),
    ("binary_coefficients_of_a_huge_declared_degree",
     lambda: MultiPoly.zero(("x", "y")).binary_coefficients(("x", "y"), 10**9),
     DomainError, "degree must be <= 64, got 1000000000"),
    ("binary_coefficients_of_a_term_above_the_degree_limit",
     lambda: MultiPoly(("x", "y"), {(65, 0): 1}).binary_coefficients(("x", "y")),
     DomainError, "degree must be <= 64, got 65"),
    ("binary_form_disc_of_a_term_above_the_degree_limit",
     lambda: binary_form_disc(MultiPoly(("x", "y"), {(3, 10**9): 1})),
     DomainError, "degree must be <= 64, got 1000000003"),
    ("sylvester_resultant_of_a_term_above_the_degree_limit",
     lambda: sylvester_resultant(MultiPoly(("x", "y"), {(0, 65): 1}), X),
     DomainError, "degree must be <= 64, got 65"),
]


@pytest.mark.parametrize("call, kind, message",
                         [pytest.param(*row[1:], id=row[0]) for row in REFUSALS])
def test_refusal(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == message
