import numpy as np
import pytest

from tensorbss.core import mode_n_rank
from tensorbss.tables import (
    GENERIC_RANK,
    MANIFOLD_DIM,
    generic_rank,
    manifold_dim,
    orbit_class,
    orbit_representative,
)

# frozen copies of the reference tables, written out independently so any
# accidental edit of the embedded data fails loudly
RANK_REFERENCE = {
    3: {2: 2, 3: 4, 4: 5, 5: 8, 6: 10, 7: 12, 8: 15},
    4: {2: 3, 3: 6, 4: 10, 5: 15, 6: 22, 7: 30, 8: 42},
}
DIM_REFERENCE = {
    3: {2: 0, 3: 2, 4: 0, 5: 5, 6: 4, 7: 0, 8: 0},
    4: {2: 1, 3: 3, 4: 5, 5: 5, 6: 6, 7: 0, 8: 6},
}


class TestLookups:
    def test_generic_rank_cells(self):
        assert generic_rank(3, 4) == 5
        assert generic_rank(4, 4) == 10
        assert generic_rank(3, 2) == 2

    def test_manifold_cells(self):
        assert manifold_dim(3, 4) == 0
        assert manifold_dim(4, 2) == 1
        assert manifold_dim(4, 7) == 0

    def test_full_tables_match_reference(self):
        for d, row in RANK_REFERENCE.items():
            for n, omega in row.items():
                assert GENERIC_RANK[(d, n)] == omega
        for d, row in DIM_REFERENCE.items():
            for n, dim in row.items():
                assert MANIFOLD_DIM[(d, n)] == dim
        assert len(GENERIC_RANK) == 14 and len(MANIFOLD_DIM) == 14

    def test_out_of_range(self):
        with pytest.raises(KeyError, match="not tabulated"):
            generic_rank(5, 2)
        with pytest.raises(KeyError, match="not tabulated"):
            manifold_dim(3, 9)


class TestOrbits:
    def test_x2y_pattern(self):
        t = orbit_representative("x^2y").expand().array
        assert t.shape == (2, 2, 2)  # the binary class wins an ambiguous label
        nz = {idx for idx in np.ndindex(*t.shape) if t[idx] != 0.0}
        assert nz == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}
        assert all(t[idx] == t[(0, 0, 1)] for idx in nz)

    def test_binary_vs_ternary_disambiguation(self):
        assert orbit_representative("x^2y", nvars=3).dim == 3
        assert orbit_class("x^2y", nvars=2).nvars == 2
        with pytest.raises(KeyError, match="not tabulated"):
            orbit_class("x^2y+xz^2", nvars=2)

    def test_x2y_unicode_label(self):
        a = orbit_representative("x²y")
        b = orbit_representative("x^2y")
        np.testing.assert_array_equal(a.packed, b.packed)

    def test_sum_of_cubes(self):
        t = orbit_representative("x^3+y^3").expand().array
        assert t[0, 0, 0] == 1.0 and t[1, 1, 1] == 1.0
        assert np.sum(np.abs(t)) == 2.0

    def test_ternary_max_rank_pattern(self):
        t = orbit_representative("x^2y+xz^2").expand().array
        nz = [idx for idx in np.ndindex(*t.shape) if t[idx] != 0.0]
        assert len(nz) == 6
        vals = {t[idx] for idx in nz}
        assert len(vals) == 1
        # three positions from each monomial
        counts = {tuple(np.bincount(idx, minlength=3).tolist()) for idx in nz}
        assert counts == {(2, 1, 0), (1, 0, 2)}

    def test_mode_ranks_sit_below_tensor_rank(self):
        t = orbit_representative("x^2y")
        assert [mode_n_rank(t, n) for n in (1, 2, 3)] == [2, 2, 2]
        assert orbit_class("x^2y").rank == 3

    def test_unknown_label(self):
        with pytest.raises(KeyError, match="unknown orbit"):
            orbit_representative("x^4")

    def test_binary_ranks(self):
        for label, rank in {"x^3": 1, "x^3+y^3": 2, "x^2y": 3}.items():
            assert orbit_class(label, nvars=2).rank == rank, label

    def test_ternary_ranks(self):
        expected = {
            "x^3": 1,
            "x^3+y^3": 2,
            "x^2y": 3,
            "x^3+3y^2z": 4,
            "x^3+y^3+6xyz": 4,
            "x^3+6xyz": 4,
            "x^3+y^3+z^3+6xyz": 4,
            "x^2y+xz^2": 5,
        }
        for label, rank in expected.items():
            o = orbit_class(label, nvars=3)
            assert o.rank == rank, label

    def test_mode_rank_bounded_by_generic_rank(self):
        r = np.random.default_rng(5)
        for d, n in [(3, 2), (3, 4), (4, 3)]:
            from tensorbss.core import symmetrize

            t = symmetrize(r.standard_normal((n,) * d))
            for mode in range(1, d + 1):
                assert mode_n_rank(t, mode) <= generic_rank(d, n)
