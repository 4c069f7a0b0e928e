"""Unit tests for the two-input boolean function algebra."""

import pytest

from repro.core.boolfunc import (
    NUM_FUNCTIONS,
    TT_NAND,
    TT_NOR,
    TT_NOT_X,
    TT_NOT_Y,
    TT_ONE,
    TT_X,
    TT_XNOR,
    TT_XOR,
    TT_Y,
    TT_ZERO,
    BoolFunc,
    all_functions,
    dual,
)


class TestTruthTables:
    def test_sixteen_functions(self):
        assert len(list(all_functions())) == NUM_FUNCTIONS == 16

    def test_identity_returns_x(self):
        f = BoolFunc(TT_X)
        for x in (0, 1):
            for y in (0, 1):
                assert f(x, y) == x

    def test_inversion_returns_not_x(self):
        f = BoolFunc(TT_NOT_X)
        for x in (0, 1):
            for y in (0, 1):
                assert f(x, y) == 1 - x

    def test_history_functions(self):
        y_func = BoolFunc(TT_Y)
        ny_func = BoolFunc(TT_NOT_Y)
        for x in (0, 1):
            for y in (0, 1):
                assert y_func(x, y) == y
                assert ny_func(x, y) == 1 - y

    def test_xor_xnor(self):
        xor = BoolFunc(TT_XOR)
        xnor = BoolFunc(TT_XNOR)
        for x in (0, 1):
            for y in (0, 1):
                assert xor(x, y) == (x ^ y)
                assert xnor(x, y) == 1 - (x ^ y)

    def test_nor_nand(self):
        nor = BoolFunc(TT_NOR)
        nand = BoolFunc(TT_NAND)
        for x in (0, 1):
            for y in (0, 1):
                assert nor(x, y) == (1 - (x | y))
                assert nand(x, y) == (1 - (x & y))

    def test_constants(self):
        zero = BoolFunc(TT_ZERO)
        one = BoolFunc(TT_ONE)
        for x in (0, 1):
            for y in (0, 1):
                assert zero(x, y) == 0
                assert one(x, y) == 1

    def test_out_of_range_truth_table_rejected(self):
        with pytest.raises(ValueError):
            BoolFunc(16)
        with pytest.raises(ValueError):
            BoolFunc(-1)

    def test_names_roundtrip(self):
        for f in all_functions():
            assert BoolFunc.from_name(f.name) == f

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            BoolFunc.from_name("frobnicate")


class TestSolveX:
    def test_identity_forces_x(self):
        f = BoolFunc(TT_X)
        assert f.solve_x(1, 0) == (1,)
        assert f.solve_x(0, 1) == (0,)

    def test_history_function_leaves_x_free_or_impossible(self):
        f = BoolFunc(TT_NOT_Y)
        # ~y with y=0 produces 1 regardless of x.
        assert f.solve_x(1, 0) == (0, 1)
        assert f.solve_x(0, 0) == ()

    def test_xor_forces_unique_x(self):
        f = BoolFunc(TT_XOR)
        for result in (0, 1):
            for y in (0, 1):
                options = f.solve_x(result, y)
                assert len(options) == 1
                assert f(options[0], y) == result

    def test_solve_x_consistency_all_functions(self):
        for f in all_functions():
            for result in (0, 1):
                for y in (0, 1):
                    for x in f.solve_x(result, y):
                        assert f(x, y) == result
                    # No valid x outside the returned options.
                    excluded = set((0, 1)) - set(f.solve_x(result, y))
                    for x in excluded:
                        assert f(x, y) != result


class TestDuality:
    def test_dual_is_involution(self):
        for f in all_functions():
            assert dual(dual(f)) == f

    def test_paper_symmetry_pairs(self):
        # Section 5.2: XOR <-> XNOR, NOR <-> NAND, identity and
        # inversion self-dual.
        assert dual(BoolFunc(TT_XOR)) == BoolFunc(TT_XNOR)
        assert dual(BoolFunc(TT_NOR)) == BoolFunc(TT_NAND)
        assert dual(BoolFunc(TT_X)) == BoolFunc(TT_X)
        assert dual(BoolFunc(TT_NOT_X)) == BoolFunc(TT_NOT_X)

    def test_history_inversion_self_dual(self):
        assert dual(BoolFunc(TT_NOT_Y)) == BoolFunc(TT_NOT_Y)
        assert dual(BoolFunc(TT_Y)) == BoolFunc(TT_Y)

    def test_dual_semantics(self):
        for f in all_functions():
            g = dual(f)
            for x in (0, 1):
                for y in (0, 1):
                    assert g(x, y) == 1 - f(1 - x, 1 - y)


class TestDependencePredicates:
    def test_identity_depends_only_on_x(self):
        f = BoolFunc(TT_X)
        assert f.depends_on_x()
        assert not f.depends_on_y()

    def test_history_depends_only_on_y(self):
        f = BoolFunc(TT_Y)
        assert not f.depends_on_x()
        assert f.depends_on_y()

    def test_constants_depend_on_nothing(self):
        for tt in (TT_ZERO, TT_ONE):
            f = BoolFunc(tt)
            assert not f.depends_on_x()
            assert not f.depends_on_y()

    def test_always_decodable_functions(self):
        decodable = {f.name for f in all_functions() if f.is_decodable()}
        # x, ~x, xor, xnor are bijections in x for every history value.
        assert decodable == {"x", "~x", "xor", "xnor"}
