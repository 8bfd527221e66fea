from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildgraph import (
    AsymmetricMatrixError,
    Cell,
    ExplicitAugmentation,
    FactorizationState,
    FactorizerOptions,
    SpectralError,
    TheoryVariant,
    eigendecompose,
    embed,
    GraphWeights,
    Membership,
    Population,
    build_graph,
    build_toy_population,
    lowrank_factorize,
    matrix_loss,
    reconstruction_gap,
)
from wildgraph.spectral import (
    RANK_TOLERANCE,
    EigensolverError,
    FactorizationError,
    _decompose,
    _exact_step,
    _quartic_argmin,
    write_trace_csv,
)
from conftest import STANDARD_WEIGHTS, random_symmetric, toy_bundle
from test_graph import graph_inputs


def symmetric_matrices(max_n=8):
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.integers(min_value=0, max_value=2**32 - 1).map(
            lambda seed: random_symmetric(n, seed)
        )
    )


def _sign_fixed(vec):
    pivot = int(np.argmax(np.abs(vec)))
    return -vec if vec[pivot] < 0 else vec


def reference_canonical(m):
    """The canonical order as a Python sort over the same eigh output."""
    lam, v = np.linalg.eigh(0.5 * (m + m.T))
    cols = [_sign_fixed(v[:, i]) for i in range(m.shape[0])]
    order = sorted(range(m.shape[0]), key=lambda i: (-lam[i], tuple(cols[i])))
    return np.array([lam[i] for i in order]), np.column_stack([cols[i] for i in order])


def tied_or_random_matrices():
    """Random symmetric matrices plus inputs with exactly tied eigenvalues."""
    identity = st.integers(1, 8).map(np.eye)
    blocks = st.tuples(st.integers(1, 3), st.integers(1, 4), st.sampled_from([1.0, 0.7, -2.5])).map(
        lambda t: t[2] * np.kron(np.eye(t[0]), np.ones((t[1], t[1])))
    )
    # a random graph on a few groups, each group blown up to interchangeable vertices
    blown_up = st.tuples(
        st.lists(st.integers(1, 3), min_size=1, max_size=4), st.integers(0, 2**32 - 1)
    ).map(lambda t: _blow_up(t[0], t[1]))
    return st.one_of(identity, blocks, blown_up, symmetric_matrices(max_n=10))


def _blow_up(counts, seed):
    g = len(counts)
    weights = np.random.default_rng(seed).uniform(0.0, 1.0, size=(g, g))
    group = np.repeat(np.arange(g), counts)
    return (weights + weights.T)[np.ix_(group, group)]


class TestEigendecompose:
    @settings(max_examples=150, deadline=None)
    @given(tied_or_random_matrices())
    def test_canonical_order_matches_python_sort(self, m):
        n = m.shape[0]
        emb = eigendecompose(m, n)
        lam, vecs = reference_canonical(m)
        assert np.array_equal(emb.eigenvalues, lam)
        assert np.array_equal(emb.V_k, vecs)
        scale = np.linalg.norm(m)
        assert np.linalg.norm(m @ emb.V_k - emb.V_k * emb.eigenvalues) <= 1e-12 * scale
        assert np.linalg.norm(emb.V_k.T @ emb.V_k - np.eye(n)) <= 1e-12

    @pytest.mark.parametrize(
        "m",
        [np.eye(6), np.kron(np.eye(2), np.ones((3, 3))), 0.7 * np.kron(np.eye(3), np.ones((2, 2)))],
        ids=["identity", "kron-2x3", "kron-3x2"],
    )
    def test_exact_ties_take_the_lexicographic_order(self, m):
        emb = eigendecompose(m, m.shape[0])
        assert np.any(np.diff(emb.eigenvalues) == 0.0)
        lam, vecs = reference_canonical(m)
        assert np.array_equal(emb.eigenvalues, lam)
        assert np.array_equal(emb.V_k, vecs)

    def test_stack_matches_each_matrix(self):
        # Tied matrices take the per-matrix lexicographic order inside a
        # stack too, next to untied ones.
        stack = np.stack([
            random_symmetric(6, seed=1),
            np.kron(np.eye(2), np.ones((3, 3))),
            random_symmetric(6, seed=2),
            np.eye(6),
        ])
        emb = _decompose(stack, 4)
        for i, m in enumerate(stack):
            one = eigendecompose(m, 4)
            assert np.array_equal(emb.eigenvalues[i], one.eigenvalues)
            assert np.array_equal(emb.V_k[i], one.V_k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        m = np.eye(4)
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(SpectralError, match="non-finite"):
            eigendecompose(m, 2)

    def test_solver_failure_reported_as_spectral_error(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(EigensolverError, match="Eigenvalues did not converge") as info:
            eigendecompose(np.eye(3), 1)
        assert isinstance(info.value, SpectralError)

    @pytest.mark.parametrize(
        "matrix", [np.diag([1.0, np.nan]), np.array([[1.0, 0.5], [0.0, 1.0]])],
        ids=["non-finite", "asymmetric"],
    )
    def test_bad_input_is_not_a_solver_failure(self, matrix):
        with pytest.raises(SpectralError) as info:
            eigendecompose(matrix, 1)
        assert not isinstance(info.value, EigensolverError)

    def test_identity_spectrum(self):
        emb = eigendecompose(np.eye(5), 3)
        np.testing.assert_allclose(emb.eigenvalues, np.ones(5))
        np.testing.assert_allclose(emb.eigenvalues[:emb.k], np.ones(3))

    def test_toy_eigenvalues_track_first_order_values(self):
        ap, bp, g = 0.03, 0.01, 1e-6
        bundle, _ = toy_bundle(TheoryVariant.CASE_A, 1.0, ap, bp, g)
        emb = eigendecompose(bundle.A_tilde, 3)
        closed = np.array([1.0, 1.0, 1 - 4 * bp, 1 - 4.5 * ap, 1 - 4 * bp - 4.5 * ap])
        envelope = 10 * ((ap + bp) ** 2 + g)
        np.testing.assert_allclose(emb.eigenvalues, closed, atol=envelope)

    def test_matches_high_precision_oracle(self):
        import mpmath

        m = random_symmetric(8, seed=123)
        emb = eigendecompose(m, 8)
        with mpmath.workdps(50):
            ev, vecs = mpmath.eigsy(mpmath.matrix(m.tolist()))
        ref = np.sort(np.array([float(ev[i]) for i in range(8)]))[::-1]
        np.testing.assert_allclose(emb.eigenvalues, ref, atol=1e-8)
        for i in range(8):
            residual = m @ emb.V_k[:, i] - emb.eigenvalues[i] * emb.V_k[:, i]
            assert np.max(np.abs(residual)) <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(symmetric_matrices())
    def test_orthonormal_and_low_residual(self, m):
        n = m.shape[0]
        emb = eigendecompose(m, n)
        np.testing.assert_allclose(emb.V_k.T @ emb.V_k, np.eye(n), atol=1e-10)
        residual = m @ emb.V_k - emb.V_k * emb.eigenvalues
        assert np.max(np.abs(residual)) <= 1e-8
        assert np.all(np.diff(emb.eigenvalues) <= 1e-12)

    def test_bitwise_deterministic(self):
        m = random_symmetric(12, seed=9)
        a = eigendecompose(m, 4)
        b = eigendecompose(m, 4)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.V_k, b.V_k)

    def test_sign_convention(self):
        m = random_symmetric(6, seed=17)
        emb = eigendecompose(m, 6)
        for i in range(6):
            col = emb.V_k[:, i]
            assert col[np.argmax(np.abs(col))] > 0

    def test_asymmetric_rejected(self):
        m = np.eye(4)
        m[0, 1] = 1e-6
        with pytest.raises(AsymmetricMatrixError):
            eigendecompose(m, 2)

    def test_k_range_validated(self):
        with pytest.raises(SpectralError):
            eigendecompose(np.eye(3), 0)
        with pytest.raises(SpectralError):
            eigendecompose(np.eye(3), 4)


def rank_two_bundle():
    """The toy layout under the rank-2 explicit matrix U^t U: three null directions."""
    u = np.vstack([np.ones(5), np.arange(1.0, 6.0)])
    population, _ = build_toy_population(TheoryVariant.CASE_A, 1.0, 0.1, 0.1, 0.1)
    return build_graph(ExplicitAugmentation(u.T @ u), population, GraphWeights(1.0, 1.0))


class TestClosedFormEmbedding:
    """``embed``'s feature rows Z = D^-1/2 V_k Lambda_k^1/2."""

    def test_elementwise_definition(self, case_a_bundle):
        bundle, _ = case_a_bundle
        emb = embed(bundle, 3)
        for x in range(5):
            expected = emb.V_k[x] * np.sqrt(emb.eigenvalues[:3]) / np.sqrt(bundle.D_g[x])
            np.testing.assert_array_equal(emb.Z[x], expected)

    def test_full_rank_reconstruction(self, case_a_bundle):
        bundle, _ = case_a_bundle
        emb = embed(bundle, 5)
        scaled = np.sqrt(bundle.D_g)[:, None] * emb.Z
        np.testing.assert_allclose(scaled @ scaled.T, bundle.A_tilde, atol=1e-10)

    def test_matches_independent_eigenpairs_up_to_sign(self, case_b_bundle):
        bundle, _ = case_b_bundle
        emb = embed(bundle, 2)
        lam, vecs = np.linalg.eigh(bundle.A_tilde)
        order = np.argsort(-lam)
        ref = vecs[:, order[:2]] * np.sqrt(np.clip(lam[order[:2]], 0, None))
        ref /= np.sqrt(bundle.D_g)[:, None]
        for j in range(2):
            direct = np.max(np.abs(emb.Z[:, j] - ref[:, j]))
            flipped = np.max(np.abs(emb.Z[:, j] + ref[:, j]))
            assert min(direct, flipped) <= 1e-8

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_k_past_the_rank_is_refused(self, k):
        # Past the rank the leading k would hold an arbitrary basis of null
        # directions; past the rows, too, the message names the rank.
        message = (f"^k={k} exceeds the graph's rank 2: only 2 eigenvalues exceed "
                   "1e-10 times the largest$")
        with pytest.raises(SpectralError, match=message):
            embed(rank_two_bundle(), k)
        assert embed(rank_two_bundle(), 2).Z.shape == (5, 2)

    def test_stack_past_its_smallest_rank_is_refused(self):
        # rho = alpha = beta = gamma makes every row of T equal: rank 1,
        # next to a full-rank graph in the same stack.
        population, model = build_toy_population(
            TheoryVariant.CASE_A, np.array([1.0, 0.1]), 0.1, 0.1, 0.1
        )
        stack = build_graph(model, population, STANDARD_WEIGHTS)
        message = ("^k=2 exceeds the graph's rank 1: only 1 eigenvalues exceed "
                   "1e-10 times the largest$")
        with pytest.raises(SpectralError, match=message):
            embed(stack, 2)
        assert embed(stack, 1).Z.shape == (2, 5, 1)

    @settings(max_examples=80, deadline=None)
    @given(graph_inputs(), st.integers(1, 12))
    def test_z_is_the_clamped_formula_bit_for_bit(self, inputs, k):
        # Within the rank every kept eigenvalue is positive, so Z is the
        # formula with the eigenvalues clamped at zero, bit for bit.
        population, model = inputs
        bundle = build_graph(model, population, STANDARD_WEIGHTS)
        lam = _decompose(bundle.Q, 1).eigenvalues
        rank = int(np.min(np.sum(lam > RANK_TOLERANCE * lam[..., :1], axis=-1)))
        emb = embed(bundle, min(k, rank))
        kept = np.clip(emb.eigenvalues[..., : emb.k], 0.0, None)
        expected = emb.V_k * np.sqrt(kept)[..., None, :] / np.sqrt(bundle.D_g)[..., :, None]
        assert emb.Z.tobytes() == expected.tobytes()


class TestLowRankFactorize:
    def test_identity_full_rank_exact(self):
        state = lowrank_factorize(np.eye(4), 4, FactorizerOptions(seed=5))
        assert state.final_loss <= 1e-10
        assert state.converged

    def test_toy_reaches_spectral_optimum(self, case_a_bundle):
        bundle, _ = case_a_bundle
        state = lowrank_factorize(bundle.A_tilde, 3, FactorizerOptions(seed=7))
        emb = eigendecompose(bundle.A_tilde, 3)
        assert state.final_loss - emb.trailing_power() <= 1e-6

    def test_rank_one_on_rank_two_target(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        target = q[:, :2] @ np.diag([1.0, 0.5]) @ q[:, :2].T
        state = lowrank_factorize(target, 1, FactorizerOptions(seed=11))
        assert state.final_loss == pytest.approx(0.25, abs=1e-8)

    def test_trace_strictly_decreasing(self, case_a_bundle):
        bundle, _ = case_a_bundle
        state = lowrank_factorize(bundle.A_tilde, 2, FactorizerOptions(seed=1, max_iters=200))
        losses = [loss for _, loss in state.loss_trace]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_non_finite_loss_reported(self):
        huge = np.full((3, 3), 1e200)
        huge = 0.5 * (huge + huge.T)
        with pytest.raises(FactorizationError, match="iteration"):
            lowrank_factorize(huge, 2, FactorizerOptions(seed=0))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_zero_target_stops_at_zero_loss(self, k):
        # The loss falls geometrically towards F = 0, where F^t F + ||R|| I is
        # singular, and the relative drop stays near 1 all the way down, so
        # only the floor at eps^2 times the first loss stops it early.
        state = lowrank_factorize(np.zeros((3, 3)), k, FactorizerOptions())
        assert state.converged
        assert state.final_loss <= np.finfo(float).eps ** 2 * state.loss_trace[0][1]
        assert state.iterations <= 25

    def test_max_iters_one_not_converged(self, case_a_bundle):
        bundle, _ = case_a_bundle
        state = lowrank_factorize(bundle.A_tilde, 3, FactorizerOptions(seed=7, max_iters=1))
        assert not state.converged

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=4),
    )
    def test_loss_never_beats_trailing_power(self, seed, k):
        m = random_symmetric(5, seed=seed)
        lam = np.sort(np.linalg.eigvalsh(m))[::-1]
        optimum = float(np.sum(lam[k:] ** 2))
        rng = np.random.default_rng(seed + 1)
        f = rng.standard_normal((5, k))
        assert matrix_loss(f, m) >= optimum - 1e-9


def gapped_symmetric(seed, n, k, gap):
    """Random symmetric matrix whose top k eigenvalues are positive and lie
    ``gap`` above the rest; returns it with the optimum sum of the rest squared."""
    rng = np.random.default_rng(seed)
    rest = rng.uniform(-1.0, 1.0, n - k)
    top = max(rest.max(initial=0.0), 0.0) + gap + rng.uniform(0.0, 1.0, k)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q * np.concatenate([top, rest])) @ q.T
    return 0.5 * (m + m.T), float(np.sum(rest**2))


class TestConjugateGradient:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=30),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_converges_to_optimum_with_decreasing_trace(self, seed, n, k_frac, gap):
        k = 1 + int(k_frac * (n - 1))
        m, optimum = gapped_symmetric(seed, n, k, gap)
        state = lowrank_factorize(m, k, FactorizerOptions(seed=seed))
        assert state.converged
        losses = [loss for _, loss in state.loss_trace]
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert state.final_loss - optimum <= 1e-10 * (1.0 + float(np.sum(m * m)))

    # (vertices, rank) of the 25 commands of one benchmark cycle
    EXPLICIT_SLOTS = (
        ((60, 4), (60, 5), (60, 6), (60, 7), (60, 8), (72, 4), (72, 5), (72, 6))
        + ((84, 6),) * 9
        + ((84, 8), (96, 4), (96, 5), (96, 6), (96, 7), (96, 8), (96, 6), (96, 8))
    )

    def test_seeded_explicit_matrices_reach_the_optimum(self):
        # Twelve groups of vertices with 5% independent noise on every entry,
        # so no two vertices are interchangeable and the gap at k is unshaped.
        # Without labeled cells the graph is the matrix's alone.
        rng = np.random.default_rng([5, 3])
        steps = 0
        for n, k in self.EXPLICIT_SLOTS:
            x = rng.uniform(0.0, 1.0, size=(12, 12))
            block = 0.5 * (x + x.T) + np.diag(rng.uniform(0.5, 1.5, size=12))
            group = rng.permutation(np.arange(n) % 12)
            t = block[np.ix_(group, group)] * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=(n, n)))
            cells = (Cell(0, 0, Membership.WILD_ID, n - 1), Cell(2, 1, Membership.WILD_SEMANTIC, 1))
            population = Population((0, 1), (0, 1), cells)
            bundle = build_graph(ExplicitAugmentation(t), population, GraphWeights(5.0, 1.0))
            state = lowrank_factorize(bundle.A_tilde, k, FactorizerOptions(max_iters=1000))
            gap = reconstruction_gap(state, eigendecompose(bundle.A_tilde, k))
            assert state.converged, (n, k)
            assert gap.loss_gap <= 1e-12, (n, k)
            steps += state.iterations
        # the metric-scaled descent takes 741 steps here, the unscaled one 3 300
        assert steps <= 900

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_rank_deficient_factor_reaches_the_optimum(self, k):
        # Two constant blocks over six vertices: rank 2, so at k > 2 the
        # optimal F has dependent columns and F^t F is singular there.
        target = np.kron(np.eye(2), np.full((3, 3), 1.0 / 3.0))
        state = lowrank_factorize(target, k, FactorizerOptions(max_iters=1000))
        assert state.converged
        assert state.final_loss <= 1e-12

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_indefinite_matrix_past_its_positive_eigenvalues(self, k):
        # F F^t is PSD, so the optimum keeps the positive eigenvalues and
        # leaves the square of every negative one: sum of min(lam_i, 0)^2
        # over i <= k plus sum of lam_i^2 over i > k.
        lam = np.array([1.5, 0.9, 0.4, -0.2, -0.5, -0.8, -1.1, -1.7])
        q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((8, 8)))
        m = (q * lam) @ q.T
        m = 0.5 * (m + m.T)
        optimum = float(np.sum(np.minimum(lam[:k], 0.0) ** 2) + np.sum(lam[k:] ** 2))
        state = lowrank_factorize(m, k, FactorizerOptions(seed=k))
        assert state.converged
        assert abs(state.final_loss - optimum) <= 1e-12 * float(np.sum(lam**2))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(["psd", "indefinite", "rank-deficient", "decaying"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_stress_spectra_reach_the_optimum(self, n, k_frac, kind, seed):
        k = 1 + int(k_frac * (n - 1))
        rng = np.random.default_rng(seed)
        if kind == "psd":
            lam = rng.uniform(0.0, 1.0, n)
        elif kind == "indefinite":
            lam = rng.uniform(-1.0, 1.0, n)
        elif kind == "rank-deficient":
            lam = np.where(np.arange(n) < rng.integers(1, n, endpoint=True), rng.uniform(0.1, 1.0, n), 0.0)
        else:
            lam = rng.uniform(0.3, 0.9) ** np.arange(n)
        assert_reaches_the_optimum(lam, k, rng)

    @pytest.mark.parametrize(
        "lam, k",
        [
            (np.repeat([1.0, 1.0, 0.0], [1, 1, 198]), 3),
            (np.repeat([1.0, 1.0, 0.0], [1, 1, 198]), 5),
            (np.concatenate([[1.5, 0.9, 0.4], -np.linspace(0.1, 1.7, 197)]), 6),
        ],
        ids=["rank-2-k3", "rank-2-k5", "indefinite-k6"],
    )
    def test_hard_targets_at_n_200_reach_the_optimum(self, lam, k):
        assert_reaches_the_optimum(lam, k, np.random.default_rng(200))


def assert_reaches_the_optimum(lam, k, rng):
    """The factorizer on a random rotation of spectrum ``lam`` converges to
    sum of min(lam_i, 0)^2 over the leading k plus sum of lam_i^2 past them."""
    lam = np.sort(lam)[::-1]
    q, _ = np.linalg.qr(rng.standard_normal((lam.size, lam.size)))
    m = (q * lam) @ q.T
    m = 0.5 * (m + m.T)
    optimum = float(np.sum(np.minimum(lam[:k], 0.0) ** 2) + np.sum(lam[k:] ** 2))
    state = lowrank_factorize(m, k, FactorizerOptions(seed=int(rng.integers(2**32))))
    assert state.converged
    assert abs(state.final_loss - optimum) <= 1e-9 * float(np.sum(lam**2))


def quartic_value(q, t):
    """q4 t^4 + q3 t^3 + q2 t^2 + q1 t in exact arithmetic, and the sum of its terms' sizes."""
    t = Fraction(t)
    terms = [Fraction(c) * t**p for c, p in zip(q, (4, 3, 2, 1))]
    return sum(terms), float(sum(abs(x) for x in terms))


def reference_argmin(q):
    """The lowest of 0 and the real parts of the derivative cubic's roots, by np.roots."""
    q4, q3, q2, q1 = q
    t = np.append(np.roots([4.0 * q4, 3.0 * q3, 2.0 * q2, q1]).real, 0.0)
    return float(t[np.argmin(np.polyval([q4, q3, q2, q1, 0.0], t))])


magnitudes = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)
signed = st.tuples(magnitudes, st.sampled_from([1.0, -1.0])).map(lambda p: p[0] * p[1])


class TestLineSearch:
    @settings(max_examples=400, deadline=None)
    @given(magnitudes, signed, signed, signed)
    def test_closed_form_never_worse_than_companion_roots(self, q4, q3, q2, q1):
        q = (q4, q3, q2, q1)
        t = _quartic_argmin(*q)
        t_ref = reference_argmin(q)
        value, scale = quartic_value(q, t)
        ref, ref_scale = quartic_value(q, t_ref)
        assert value <= ref + Fraction(1e-12 * max(scale, ref_scale))

    # Derivative cubics 4 (t^3 + a t^2 + b t + c): a double root at 1 beside a
    # simple one at -2, a triple root at 1 (also at a small scale), and a
    # discriminant near zero on either side, where two roots merge or part.
    @pytest.mark.parametrize(
        "q, expected",
        [
            ((1.0, 0.0, -6.0, 8.0), -2.0),
            ((1.0, -4.0, 6.0, -4.0), 1.0),
            ((1.0, 0.0, -6.0, 8.0 + 1e-9), None),
            ((1.0, 0.0, -6.0, 8.0 - 1e-9), None),
            ((1.0, 0.0, 6.0, -8.0 + 1e-12), None),
            ((2.5e-7, -1e-6, 1.5e-6, -1e-6), 1.0),
            # three real roots, two 1e-8 apart, where rounding puts the
            # cosine of the trigonometric form just past 1
            ((1.0, 0.8385723591988296, -2.9638539115458045, 1.8398524546995352), None),
        ],
    )
    def test_multiple_roots(self, q, expected):
        t = _quartic_argmin(*q)
        value, scale = quartic_value(q, t)
        assert value <= quartic_value(q, reference_argmin(q))[0] + Fraction(1e-12 * scale)
        if expected is not None:
            assert t == pytest.approx(expected, abs=1e-4)

    def test_zero_direction_gives_zero_step(self):
        rng = np.random.default_rng(0)
        f, r = rng.standard_normal((6, 2)), random_symmetric(6, seed=1)
        assert _exact_step(r, f, np.zeros((6, 2)), 0.0, f.T @ f) == 0.0
        assert _quartic_argmin(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_non_finite_coefficient_gives_nan(self):
        f, r = np.ones((3, 1)), np.full((3, 3), np.inf)
        assert np.isnan(_exact_step(r, f, -np.ones((3, 1)), -3.0, f.T @ f))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 4))
    def test_step_minimizes_the_loss_along_the_direction(self, seed, n, k):
        # the quartic's coefficients, read against the loss itself
        rng = np.random.default_rng(seed)
        target = random_symmetric(n, seed)
        f, d = rng.standard_normal((n, k)), rng.standard_normal((n, k))
        r = f @ f.T - target
        t = _exact_step(r, f, d, float(np.vdot(4.0 * r @ f, d)), f.T @ f)
        loss = lambda s: matrix_loss(f + s * d, target)
        for s in (t * 0.999, t * 1.001, t + 1e-3, t - 1e-3, 0.0):
            assert loss(t) <= loss(s) + 1e-10 * (1.0 + loss(s))


class TestReconstructionGap:
    def test_converged_state_has_small_gaps(self, case_a_bundle):
        bundle, _ = case_a_bundle
        emb = eigendecompose(bundle.A_tilde, 3)
        state = lowrank_factorize(bundle.A_tilde, 3, FactorizerOptions(seed=7))
        gap = reconstruction_gap(state, emb)
        assert -1e-9 <= gap.loss_gap <= 1e-4
        assert gap.subspace_gap <= 1e-4
        assert not gap.degenerate

    def test_exact_factor_has_zero_gaps(self, case_a_bundle):
        bundle, _ = case_a_bundle
        emb = eigendecompose(bundle.A_tilde, 3)
        exact = emb.V_k * np.sqrt(emb.eigenvalues[:3])
        state = FactorizationState(
            F=exact, loss_trace=((0, matrix_loss(exact, bundle.A_tilde)),), converged=True
        )
        gap = reconstruction_gap(state, emb)
        assert gap.loss_gap == pytest.approx(0.0, abs=1e-12)
        assert gap.subspace_gap <= 1e-10

    def test_degenerate_subspace_flagged_not_asserted(self):
        emb = eigendecompose(np.eye(4), 2)
        state = lowrank_factorize(np.eye(4), 2, FactorizerOptions(seed=2))
        gap = reconstruction_gap(state, emb)
        assert gap.degenerate
        assert gap.loss_gap <= 1e-4

    def test_rank_mismatch_rejected(self, case_a_bundle):
        bundle, _ = case_a_bundle
        emb = eigendecompose(bundle.A_tilde, 3)
        state = lowrank_factorize(bundle.A_tilde, 2, FactorizerOptions(seed=0, max_iters=5))
        with pytest.raises(SpectralError):
            reconstruction_gap(state, emb)


class TestTraceCsv:
    def test_format(self, tmp_path, case_a_bundle):
        bundle, _ = case_a_bundle
        state = lowrank_factorize(bundle.A_tilde, 2, FactorizerOptions(seed=0, max_iters=5))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, state, header="demo")
        lines = path.read_text().splitlines()
        assert lines[0] == "# demo"
        assert lines[1] == "iter,loss"
        assert lines[2].startswith("0,")
        assert "e" in lines[2].split(",")[1]
