"""The frozen CSR ``Kernel`` against a scipy oracle, and fail-closed kernel input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from wflow import jump_process
from wflow.jump_process import JumpGeneratorSpec, Kernel, _as_kernel


def canonical_oracle(matrix):
    """scipy's canonical CSR of a dense array or a scipy matrix."""
    oracle = sparse.csr_array(matrix, dtype=float, copy=True)
    oracle.sum_duplicates()
    oracle.eliminate_zeros()
    return oracle


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


@st.composite
def kernel_inputs(draw):
    """A nonnegative matrix with row-stochastic and empty rows, as dense and as COO.

    Every position is listed in the COO triplets, so the zeros are explicit;
    a drawn subset of entries is split into two terms, so entries repeat;
    and the triplets come shuffled.  At most two terms share an entry, so
    their sum does not depend on the order they are added in.
    """
    n = draw(st.integers(1, 9))
    mass = draw(arrays(float, (n, n), elements=st.floats(0.0, 1.0)))
    mass[mass < 0.3] = 0.0
    sums = mass.sum(axis=1, keepdims=True)
    dense = np.divide(mass, sums, out=np.zeros_like(mass), where=sums > 0)
    rows, cols = np.indices((n, n)).reshape(2, -1)
    vals = dense.ravel()
    split = np.asarray(draw(arrays(bool, n * n)), dtype=bool) & (vals > 0)
    share = draw(st.floats(0.05, 0.95))
    first = np.where(split, vals * share, vals)
    rows = np.concatenate([rows, rows[split]])
    cols = np.concatenate([cols, cols[split]])
    vals = np.concatenate([first, vals[split] - first[split]])
    order = np.asarray(draw(st.permutations(range(vals.size))), dtype=np.intp)
    return dense, rows[order], cols[order], vals[order]


def raw_csr(rows, cols, vals, n):
    """A scipy CSR that keeps the triplets' duplicates, zeros and column order."""
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sparse.csr_array((vals[order], cols[order], indptr), shape=(n, n))


class TestKernelAgainstScipy:
    @settings(max_examples=150, deadline=None)
    @given(kernel_inputs(), st.data())
    def test_canonical_form_and_products_match_scipy(self, inputs, data):
        dense, rows, cols, vals = inputs
        n = dense.shape[0]
        coo = sparse.coo_array((vals, (rows, cols)), shape=(n, n))
        raw = raw_csr(rows, cols, vals, n)
        triplet_oracle = canonical_oracle(coo)
        cases = [
            (_as_kernel(dense, n), canonical_oracle(dense)),
            (Kernel.from_coo(rows, cols, vals, n), triplet_oracle),
            (_as_kernel(coo, n), triplet_oracle),
            (_as_kernel(raw, n), triplet_oracle),
        ]
        f = data.draw(arrays(float, n, elements=st.floats(-1e3, 1e3)))
        block = data.draw(arrays(float, (3, n), elements=st.floats(-1e3, 1e3)))
        for kernel, oracle in cases:
            np.testing.assert_array_equal(kernel.indptr, oracle.indptr)
            np.testing.assert_array_equal(kernel.indices, oracle.indices)
            assert bits(kernel.data) == bits(oracle.data)
            assert bits(kernel.toarray()) == bits(oracle.toarray())
            transpose = oracle.T.tocsr()
            assert bits(kernel.apply(f)) == bits(oracle @ f)
            assert bits(kernel.apply(block)) == bits((oracle @ block.T).T)
            assert bits(kernel.apply_t(f)) == bits(transpose @ f)
            assert bits(kernel.apply_t(block)) == bits((transpose @ block.T).T)
            assert bits(kernel.diagonal()) == bits(oracle.diagonal())
        # the caller's triplets are left as they were
        assert raw.nnz == vals.size

    def test_tocsr_exposes_the_csr_arrays(self):
        kernel = _as_kernel(np.array([[0.0, 1.0], [0.25, 0.75]]), 2)
        csr = kernel.tocsr()
        assert csr is kernel
        np.testing.assert_array_equal(csr.indptr, [0, 1, 3])
        np.testing.assert_array_equal(csr.indices, [1, 0, 1])
        np.testing.assert_array_equal(csr.data, [1.0, 0.25, 0.75])
        with pytest.raises(ValueError):
            csr.data[0] = 0.5  # frozen: the arrays are read-only

    def test_transpose_on_a_mu_chain_matches_scipy(self):
        # the 4097-node speed-mu chain of the chain-approx benchmark shape
        from test_jump_process import mu_chain

        kernel = mu_chain(4097).kernel
        oracle = sparse.csr_array(
            (kernel.data, kernel.indices, kernel.indptr), shape=(kernel.n, kernel.n)
        )
        v = np.random.default_rng(5).random(kernel.n)
        assert bits(kernel.apply(v)) == bits(oracle @ v)
        assert bits(kernel.apply_t(v)) == bits(oracle.T.tocsr() @ v)

    def test_row_blocks_match_one_row_at_a_time(self, monkeypatch):
        # a block of rows runs in chunks of about _PRODUCT_CELLS stored
        # entries (one row at a time on the 4097-node mu-chain, every row at
        # once on a 31-state chain); any chunking sums in stored order
        from test_jump_process import mu_chain

        rng = np.random.default_rng(11)
        tridiagonal = np.eye(31, k=1) * 0.6 + np.eye(31, k=-1) * 0.4
        tridiagonal[0, 0], tridiagonal[-1, -1] = 0.4, 0.6
        cases = ((mu_chain(4097).kernel, 19), (_as_kernel(tridiagonal, 31), 102))
        for cells in (jump_process._PRODUCT_CELLS, 1, 10**9):
            monkeypatch.setattr(jump_process, "_PRODUCT_CELLS", cells)
            for kernel, rows in cases:
                block = rng.random((rows, kernel.n))
                for product in (kernel.apply, kernel.apply_t):
                    assert bits(product(block)) == bits(np.stack([product(v) for v in block]))

    def test_constructor_rejects_non_canonical_csr(self):
        for indptr, indices, data in (
            ([0, 2, 2], [1, 0], [0.5, 0.5]),  # columns out of order
            ([0, 2, 2], [1, 1], [0.5, 0.5]),  # a duplicate
            ([0, 1, 1], [1], [0.0]),  # a stored zero
            ([0, 1, 1], [2], [1.0]),  # a column out of range
            ([0, 1], [1], [1.0]),  # indptr of the wrong length
        ):
            with pytest.raises(ValueError):
                Kernel(indptr, indices, data, 2)
        with pytest.raises(ValueError, match="COO entries"):
            Kernel.from_coo([0], [2], [1.0], 2)


GOOD = np.array([[0.0, 0.7, 0.3], [0.5, 0.0, 0.5], [0.2, 0.8, 0.0]])
LAM = [1.3, 0.4, 2.1]
STATES = [-1.0, 0.5, 2.0]


def _with(i, j, value):
    bad = GOOD.copy()
    bad[i, j] = value
    return bad


BAD_KERNELS = {
    "nan entry": (_with(0, 1, np.nan), "finite"),
    "inf entry": (_with(2, 1, np.inf), "finite"),
    "negative entry": (
        np.array([[0.0, 1.2, -0.2], [0.5, 0.0, 0.5], [0.2, 0.8, 0.0]]),
        "nonnegative",
    ),
    "row sum off by 2e-12": (_with(1, 2, 0.5 + 2e-12), "sum to 1"),
    "self-jump at positive rate": (
        np.array([[0.5, 0.2, 0.3], [0.5, 0.0, 0.5], [0.2, 0.8, 0.0]]),
        "itself",
    ),
    "wrong shape": (GOOD[:2, :2] / GOOD[:2, :2].sum(axis=1, keepdims=True), "3x3"),
}

AS_INPUT = {
    "dense": lambda k: k,
    "scipy": sparse.csr_array,
    "Kernel": lambda k: Kernel.from_coo(*np.nonzero(k), k[np.nonzero(k)], k.shape[0]),
}


class TestGeneratorSpecFailsClosed:
    @pytest.mark.parametrize("form", sorted(AS_INPUT))
    @pytest.mark.parametrize("case", sorted(BAD_KERNELS))
    def test_bad_kernel_raises(self, case, form):
        bad, reason = BAD_KERNELS[case]
        with pytest.raises(ValueError, match=reason):
            JumpGeneratorSpec(STATES, LAM, AS_INPUT[form](bad))

    @pytest.mark.parametrize("form", sorted(AS_INPUT))
    def test_good_kernel_in_every_form_is_one_kernel(self, form):
        gen = JumpGeneratorSpec(STATES, LAM, AS_INPUT[form](GOOD))
        assert bits(gen.kernel.toarray()) == bits(GOOD)
        ok = _with(1, 2, 0.5 + 5e-13)  # inside the 1e-12 row tolerance
        JumpGeneratorSpec(STATES, LAM, AS_INPUT[form](ok))
