"""Codes and complexes derived from a checked code skip its commutation
product: each equals the checked object built from the same matrices, and
every code built from outside input is still checked."""

import random

import pytest

from qwr.cli import format_matrix, main
from qwr.codes import (
    ChainComplex, CssCode, css_to_complex, logical_basis, repetition_code, steane_code, surface_code_2x3,
)
from qwr.cone import build_cone_parts, cellulate, cone_code, thicken_cone, thicken_cone_detail
from qwr.f2la import BinMatrix, transpose
from qwr.hgp import hgp
from qwr.reduce import balance_z, choose_heights, greedy_heights, kept_z_rows, thicken

from helpers import load_script, reference_commutes


def transform_build_input() -> CssCode:
    """The transform_build benchmark's seed-0 input: the hgp of two seeded
    5 x 8 classical codes of row weight 4 (n = 89)."""
    layers = load_script("gf2_layers")
    rng = random.Random(0)
    return hgp(layers.regular_classical(rng, 8, 5, 4), layers.regular_classical(rng, 8, 5, 4))


R3 = repetition_code(3)
CODES = {
    "steane": steane_code,
    "surface_2x3": surface_code_2x3,
    "hgp_rep3_rep3": lambda: hgp(R3, R3),
    "transform_build": transform_build_input,
}


@pytest.fixture(params=list(CODES))
def code(request) -> CssCode:
    """A freshly built code: its matrices carry no transpose, and it caches no pivots."""
    q = CODES[request.param]()
    return CssCode(BinMatrix(q.h_x.rows, q.n), BinMatrix(q.h_z.rows, q.n))


def pivot_state(p):
    return dict(p.rows), p.mask


def assert_same_as_checked(derived: CssCode) -> None:
    """derived has the rows, k and pivots of the checked code on its matrices,
    and commutes under the reference count."""
    checked = CssCode(BinMatrix(derived.h_x.rows, derived.n), BinMatrix(derived.h_z.rows, derived.n))
    assert derived == checked and derived.n == checked.n
    assert derived.k == checked.k
    assert pivot_state(derived.x_pivots) == pivot_state(checked.x_pivots)
    assert pivot_state(derived.z_pivots) == pivot_state(checked.z_pivots)
    assert reference_commutes(derived.h_x, derived.h_z)


class TestDerivedCodes:
    def test_transposed(self, code):
        assert_same_as_checked(code.transposed())
        code.k  # caches both parent echelons, which the transposed code then shares
        t = code.transposed()
        assert t.x_pivots is code.z_pivots and t.z_pivots is code.x_pivots
        before = pivot_state(code.x_pivots), pivot_state(code.z_pivots)
        logical_basis(t, "X"), logical_basis(t, "Z")  # copies the pivots it extends
        assert (pivot_state(code.x_pivots), pivot_state(code.z_pivots)) == before
        assert_same_as_checked(t)
        assert t.transposed() == code

    @pytest.mark.parametrize("pivots_cached", [False, True])
    def test_choose_heights(self, code, pivots_cached):
        thick, bm = thicken(code, 2)
        if pivots_cached:
            thick.k
        heights = greedy_heights(thick, bm, 1).heights
        chosen = choose_heights(thick, bm, heights)
        assert chosen.h_x is thick.h_x
        assert chosen.h_z.rows == tuple(thick.h_z.rows[r] for r in kept_z_rows(bm, heights))
        assert ("x_pivots" in vars(chosen)) == pivots_cached and "z_pivots" not in vars(chosen)
        if pivots_cached:
            assert chosen.x_pivots is thick.x_pivots
        assert_same_as_checked(chosen)

    def test_balance_z(self, code):
        balanced, _ = balance_z(code, R3)
        assert_same_as_checked(balanced)
        assert balanced.k == code.k

    def test_thicken_cone(self, code):
        parts, f, _ = build_cone_parts(code, 3)
        coned = cone_code(code, cellulate(parts), f)
        thick = thicken_cone(coned, 2)
        assert_same_as_checked(thick)
        assert thick.k == code.k
        detailed, _, _ = thicken_cone_detail(coned, 2)
        assert detailed == thick

    def test_css_to_complex(self, code):
        c = css_to_complex(code)
        checked = ChainComplex((transpose(code.h_z), code.h_x))
        assert c == checked
        assert c.boundaries == checked.boundaries and c.dims == checked.dims == (code.n_x, code.n, code.n_z)
        assert c.boundary(1) is code.h_x and c.boundary(2) == transpose(code.h_z)


class TestOutsideInputStaysChecked:
    """Steane's h_x with a Z row on qubit 0 alone: of the X rows, only row 0 holds qubit 0."""

    BAD_Z = BinMatrix([0b1], 7)

    def test_constructors_raise(self):
        h_x = steane_code().h_x
        with pytest.raises(ValueError, match="^stabilizers anticommute: X row 0 vs Z row 0$"):
            CssCode(h_x, self.BAD_Z)
        with pytest.raises(ValueError, match="^stabilizers anticommute: X row 0 vs Z row 0$"):
            CssCode(self.BAD_Z, h_x)
        with pytest.raises(ValueError, match="^boundary composition is nonzero$"):
            ChainComplex((transpose(self.BAD_Z), h_x))

    @pytest.mark.parametrize("transforms", [["thicken"], ["balance_z", "--classical"], ["cone", "--cone-ell", "2"]])
    def test_cli_exits_two(self, tmp_path, capsys, transforms):
        hx, hz, rep = tmp_path / "hx.mtxf2", tmp_path / "hz.mtxf2", tmp_path / "rep.mtxf2"
        hx.write_text(format_matrix(steane_code().h_x))
        hz.write_text(format_matrix(self.BAD_Z))
        rep.write_text(format_matrix(R3.h))
        argv = ["transform", *transforms, *([str(rep)] if transforms[-1] == "--classical" else [])]
        assert main(argv + ["--hx", str(hx), "--hz", str(hz)]) == 2
        assert capsys.readouterr().err == "audit failure: stabilizers anticommute: X row 0 vs Z row 0\n"
