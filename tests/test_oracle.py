import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import expm_multiply

from cavity_sr import oracle
from cavity_sr import (NumericalParams, build_liouvillian, collective_params,
                       evolve_density_matrix, individual_params, solve_oracle,
                       validate_params)
from cavity_sr.oracle import (MAX_COLLECTIVE_ATOMS, collective_operators,
                              individual_operators)


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = m + m.conj().T
    return h / np.linalg.norm(h)


def lindblad_rhs(hamiltonian, collapse, rho):
    """-i[H, rho] + sum_k rate_k (L rho L^dag - (1/2){L^dag L, rho})."""
    out = -1j * (hamiltonian @ rho - rho @ hamiltonian)
    for rate, op in collapse:
        opdag_op = op.conj().T @ op
        out += rate * (op @ rho @ op.conj().T
                       - 0.5 * (opdag_op @ rho + rho @ opdag_op))
    return out


def dense_operators(basis):
    """(S_minus, c, atomic jumps) of the scheme as dense full-space arrays."""
    operators = collective_operators if basis.kind == "collective" else individual_operators
    jumps, c = operators(basis)
    return sum(jumps).toarray(), c.toarray(), [op.toarray() for op in jumps]


def hamiltonian(g, detuning, sm, c):
    """H = Delta c^dag c + g (S+ c + S- c^dag)."""
    return detuning * c.conj().T @ c + g * (sm.conj().T @ c + sm @ c.conj().T)


def full_space_model(params, basis):
    """H and the collapse list of the master equation on the full space."""
    sm, c, jumps = dense_operators(basis)
    collapse = [(2 * params.kappa, c)] + [(2 * params.gamma, op) for op in jumps]
    return hamiltonian(params.g, params.detuning, sm, c), collapse


def sector_blocks(basis):
    """Basis indices of the sectors n_exc = N, N-1, ..., 0, the blocks of rho
    in the generator's order."""
    n_exc = basis.excited_atoms + basis.photons
    return [np.flatnonzero(n_exc == k) for k in range(basis.n_atoms, -1, -1)]


def pack(liouv, rho):
    """Generator state vector of a full rho: its sector blocks, row-major."""
    return np.concatenate([rho[np.ix_(s, s)].ravel() for s in sector_blocks(liouv.basis)])


def unpack(liouv, y):
    """The sector blocks of rho held in a generator state vector."""
    blocks, start = [], 0
    for s in sector_blocks(liouv.basis):
        blocks.append(y[start:start + s.size ** 2].reshape(s.size, s.size))
        start += s.size ** 2
    assert start == y.size
    return blocks


def in_blocks(liouv):
    """Mask of the full-space entries (i, j) that lie in a sector block."""
    mask = np.zeros((liouv.dim, liouv.dim), dtype=bool)
    for s in sector_blocks(liouv.basis):
        mask[np.ix_(s, s)] = True
    return mask


def random_block_rho(liouv, rng):
    """Random Hermitian rho, zero outside the sector blocks."""
    return np.where(in_blocks(liouv), random_hermitian(liouv.dim, rng), 0)


def apply_generator(liouv, rho):
    """Full-space d rho/dt of a block rho by the generator."""
    out = np.zeros((liouv.dim, liouv.dim), dtype=complex)
    blocks = unpack(liouv, liouv.generator @ pack(liouv, rho))
    for s, block in zip(sector_blocks(liouv.basis), blocks):
        out[np.ix_(s, s)] = block
    return out


class TestBuilders:
    def test_trace_annihilation_collective(self):
        liouv = build_liouvillian(collective_params(3, g=2.0, kappa=1.5))
        rng = np.random.default_rng(0)
        for _ in range(100):
            rho = random_block_rho(liouv, rng)
            assert abs(np.trace(apply_generator(liouv, rho))) < 1e-12

    def test_trace_annihilation_individual(self):
        liouv = build_liouvillian(individual_params(2, g=1.0, kappa=0.5))
        rng = np.random.default_rng(1)
        for _ in range(100):
            rho = random_block_rho(liouv, rng)
            assert abs(np.trace(apply_generator(liouv, rho))) < 1e-12

    def test_superoperator_matches_lindblad_formula(self):
        rng = np.random.default_rng(2)
        for make in (collective_params, individual_params):
            params = make(2, g=1.0, kappa=0.7, gamma=0.3, detuning=0.4)
            liouv = build_liouvillian(params)
            h, collapse = full_space_model(params, liouv.basis)
            rho = random_block_rho(liouv, rng)
            np.testing.assert_allclose(apply_generator(liouv, rho),
                                       lindblad_rhs(h, collapse, rho), atol=1e-12)

    def test_dimension_guards(self):
        with pytest.raises(ValueError, match="limited"):
            build_liouvillian(collective_params(MAX_COLLECTIVE_ATOMS + 1))
        with pytest.raises(ValueError, match="limited"):
            build_liouvillian(individual_params(9))

    def test_collective_ladder_rates(self):
        # N=2 Dicke ladder: <J,m-1|S-|J,m> gives both cascade rates 4*Gamma
        liouv = build_liouvillian(collective_params(2))
        (sm,), _ = collective_operators(liouv.basis)
        # S- matrix elements sqrt(J(J+1)-m(m-1)) for m = 1, 0: sqrt(2) both
        cav = liouv.basis.cavity_dim
        assert sm[cav, 0] == pytest.approx(np.sqrt(2))
        assert sm[2 * cav, cav] == pytest.approx(np.sqrt(2))


class TestClosedForms:
    def test_single_atom_free_decay(self):
        params, _ = validate_params(collective_params(1), NumericalParams())
        liouv = build_liouvillian(params)
        t = np.linspace(0, 3, 61)
        series = evolve_density_matrix(liouv, t)
        exact = 0.5 * (2 * np.exp(-2 * t) - 1)
        np.testing.assert_allclose(series.sz_mean, exact, atol=1e-6)

    def test_two_atom_dicke_cascade(self):
        params, _ = validate_params(collective_params(2), NumericalParams())
        liouv = build_liouvillian(params)
        t = np.linspace(0, 2, 81)
        series = evolve_density_matrix(liouv, t)
        exact = 2 * np.exp(-4 * t) + 4 * t * np.exp(-4 * t) - 1
        np.testing.assert_allclose(series.sz_mean, exact, atol=1e-6)

    def test_vacuum_rabi_oscillation(self):
        g = 1.3
        params = collective_params(1, g=g, kappa=0.0, gamma=0.0)
        liouv = build_liouvillian(params)
        t = np.linspace(0, 5, 101)
        series = evolve_density_matrix(liouv, t)
        np.testing.assert_allclose(series.photon_mean, np.sin(g * t) ** 2, atol=1e-6)

    def test_independent_atoms_decay_without_cavity(self):
        params = individual_params(3, g=0.0, kappa=1.0)
        liouv = build_liouvillian(params)
        t = np.linspace(0, 2, 41)
        series = evolve_density_matrix(liouv, t)
        np.testing.assert_allclose(series.sz_norm, 2 * np.exp(-2 * t) - 1, atol=1e-6)


class TestFailures:
    def test_failed_integration_is_a_runtime_error(self, monkeypatch):
        monkeypatch.setattr(oracle, "solve_ivp", lambda *args, **kwargs:
                            SimpleNamespace(success=False, message="step size too small"))
        with pytest.raises(RuntimeError,
                           match="master-equation integration failed: step size too small"):
            evolve_density_matrix(build_liouvillian(collective_params(2)), np.linspace(0, 1, 5))

    def test_a_generator_that_leaks_probability_fails_the_trace_check(self):
        liouv = build_liouvillian(collective_params(2, g=1.0, kappa=1.0))
        leak = sparse.csr_array(1e-6 * sparse.identity(liouv.generator.shape[0]))
        leaky = dataclasses.replace(liouv, generator=liouv.generator - leak)
        with pytest.raises(RuntimeError, match="trace drift 1.0.e-06 exceeds 1e-10"):
            evolve_density_matrix(leaky, np.linspace(0, 1, 5))


class TestInvariants:
    def evolve_blocks(self, liouv, t):
        """The sector blocks of rho(t) from the fully excited vacuum."""
        rho0 = np.zeros((liouv.dim, liouv.dim), dtype=complex)
        rho0[0, 0] = 1.0
        sol = solve_ivp(lambda _, y: liouv.generator @ y,
                        (t[0], t[-1]), pack(liouv, rho0), t_eval=t,
                        method="DOP853", rtol=1e-10, atol=1e-12)
        return [unpack(liouv, y) for y in sol.y.T]

    def test_trace_hermiticity_positivity_maintained(self):
        params = collective_params(3, g=5.0, kappa=1.0)
        liouv = build_liouvillian(params)
        for blocks in self.evolve_blocks(liouv, np.linspace(0, 1, 21)):
            assert abs(sum(np.trace(b).real for b in blocks) - 1) < 1e-10
            for block in blocks:
                assert np.max(np.abs(block - block.conj().T)) < 1e-12
                assert np.linalg.eigvalsh(block).min() > -1e-8

    def test_excitation_conserved_without_dissipation(self):
        params = collective_params(3, g=2.0, kappa=0.0, gamma=0.0)
        liouv = build_liouvillian(params)
        t = np.linspace(0, 2, 41)
        series = evolve_density_matrix(liouv, t)
        total = series.sz_mean + series.photon_mean
        np.testing.assert_allclose(total, total[0], atol=1e-8)

    def test_single_atom_schemes_coincide(self):
        # N = 1: collective with Gamma equals individual with gamma -> Gamma
        t = np.linspace(0, 2, 41)
        coll = build_liouvillian(collective_params(1, g=1.0, kappa=0.5))
        ind = build_liouvillian(individual_params(1, g=1.0, kappa=0.5))
        a = evolve_density_matrix(coll, t)
        b = evolve_density_matrix(ind, t)
        np.testing.assert_allclose(a.sz_mean, b.sz_mean, atol=1e-9)
        np.testing.assert_allclose(a.photon_mean, b.photon_mean, atol=1e-9)
        sa = sorted(np.linalg.eigvals(coll.generator.toarray()), key=lambda z: (z.real, z.imag))
        sb = sorted(np.linalg.eigvals(ind.generator.toarray()), key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(sa, sb, atol=1e-9)

    def test_two_atom_symmetric_sector_hamiltonian_equivalence(self):
        # the individual operators restricted to the symmetric sector give
        # the collective (Dicke) Hamiltonian
        coll = build_liouvillian(collective_params(2)).basis
        ind = build_liouvillian(individual_params(2)).basis
        sm_coll, c_coll, _ = dense_operators(coll)
        sm_ind, c_ind, _ = dense_operators(ind)
        nc = coll.cavity_dim
        up = np.array([1.0, 0.0])
        down = np.array([0.0, 1.0])
        sym = [np.kron(up, up),
               (np.kron(up, down) + np.kron(down, up)) / np.sqrt(2),
               np.kron(down, down)]
        proj = np.zeros((3 * nc, 4 * nc))
        for i, s in enumerate(sym):
            proj[i * nc:(i + 1) * nc, :] = np.kron(s, np.eye(nc))
        restricted = proj @ hamiltonian(1.7, 0.0, sm_ind, c_ind) @ proj.T
        np.testing.assert_allclose(restricted, hamiltonian(1.7, 0.0, sm_coll, c_coll),
                                   atol=1e-12)


class TestInvariantEntries:
    """rho from the fully excited vacuum stays in the sector blocks
    n_exc(i) = n_exc(j) <= N, so the generator holds those entries alone."""

    @pytest.mark.parametrize("case", ["collective", "individual"])
    def test_superoperator_leaks_nothing_out_of_kept_entries(self, case):
        # the full-space formula moves nothing out of the blocks, and on
        # them it is the generator
        if case == "collective":
            params = collective_params(8, g=10.0, kappa=100.0)
        else:
            params = individual_params(3, g=10.0, kappa=100.0)
        liouv = build_liouvillian(params)
        h, collapse = full_space_model(params, liouv.basis)
        assert 0 < liouv.generator.shape[0] < liouv.dim ** 2
        assert sector_blocks(liouv.basis)[0][0] == 0    # y[0]: the fully excited vacuum
        outside = ~in_blocks(liouv)
        rng = np.random.default_rng(3)
        for _ in range(5):
            rho = random_block_rho(liouv, rng)
            formula = lindblad_rhs(h, collapse, rho)
            assert np.count_nonzero(formula[outside]) == 0
            np.testing.assert_allclose(apply_generator(liouv, rho), formula, atol=1e-10)

    def test_collective_kept_entries_are_the_excitation_blocks(self):
        # fully excited N = 8: sum over n_exc = 0..8 of (n_exc + 1)^2 states
        liouv = build_liouvillian(collective_params(8))
        assert liouv.generator.shape == (285, 285)

    def test_generator_at_the_collective_limit_is_small(self):
        n = MAX_COLLECTIVE_ATOMS
        tracemalloc.start()
        try:
            liouv = build_liouvillian(collective_params(n, g=10.0, kappa=100.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = sum((k + 1) ** 2 for k in range(n + 1))     # 77531 at N = 60
        assert liouv.generator.shape == (rows, rows)
        assert peak < 64 * 2 ** 20

    def test_basis_excitations_match_operator_diagonals(self):
        coll = build_liouvillian(collective_params(3)).basis
        ind = build_liouvillian(individual_params(3)).basis
        for basis in (coll, ind):
            sm, c, _ = dense_operators(basis)
            sp = sm.conj().T
            sz = (sp @ sm - sm @ sp) / 2        # [S+, S-] = 2 S_z
            np.testing.assert_allclose(np.diag(sz).real,
                                       basis.excited_atoms - 0.5 * basis.n_atoms,
                                       atol=1e-12)
            np.testing.assert_allclose(np.diag(c.conj().T @ c).real, basis.photons,
                                       atol=1e-12)

    def test_collective_sixteen_atoms_conserve_trace(self):
        # evolve_density_matrix raises if the trace drifts beyond TRACE_TOL
        params, num = validate_params(collective_params(16, g=10.0, kappa=100.0),
                                      NumericalParams())
        series = solve_oracle(params, num)
        assert series.sz_mean[0] == 8.0
        excitations = series.sz_mean + 8.0 + series.photon_mean
        assert np.all(np.diff(excitations) < 1e-9)
        assert excitations[-1] < 1.0


class TestEvolveErrors:
    def test_bad_grid_rejected(self):
        liouv = build_liouvillian(collective_params(1))
        with pytest.raises(ValueError, match="increasing"):
            evolve_density_matrix(liouv, np.array([0.0]))
        with pytest.raises(ValueError, match="increasing"):
            evolve_density_matrix(liouv, np.array([0.0, 0.5, 0.2]))

    def test_constant_observables_for_zero_liouvillian(self):
        params = collective_params(2, g=0.0, kappa=0.0, gamma=0.0)
        liouv = build_liouvillian(params)
        t = np.linspace(0, 1, 11)
        series = evolve_density_matrix(liouv, t)
        np.testing.assert_allclose(series.sz_mean, 1.0, atol=1e-10)
        np.testing.assert_allclose(series.photon_mean, 0.0, atol=1e-10)


class TestPopulationsOnly:
    """evolve_density_matrix keeps only the populations of each recorded
    state; the outputs are the bits of the full-state run it replaced."""

    @pytest.mark.parametrize("params", [
        collective_params(8, g=10.0, kappa=100.0),
        individual_params(3, g=10.0, kappa=100.0),
        collective_params(4, g=3.0, kappa=3.0, detuning=5.0),
    ], ids=["collective-8", "individual-3", "collective-4-detuned"])
    def test_matches_the_full_state_run_bit_for_bit(self, params):
        params, num = validate_params(params, NumericalParams(n_traj=1))
        series = solve_oracle(params, num)
        liouv = build_liouvillian(params)
        y0 = np.zeros(liouv.generator.shape[0], dtype=complex)
        y0[0] = 1.0
        t = series.times
        sol = solve_ivp(lambda _, y: liouv.generator @ y, (t[0], t[-1]), y0,
                        t_eval=t, method="DOP853", rtol=1e-10, atol=1e-12)
        populations = sol.y[liouv.diagonal].real
        basis = liouv.basis
        sz = (basis.excited_atoms[liouv.states] - 0.5 * basis.n_atoms) @ populations
        photon = basis.photons[liouv.states] @ populations
        assert np.array_equal(series.sz_mean, sz)
        assert np.array_equal(series.photon_mean, photon)

    @pytest.mark.parametrize("params", [
        collective_params(20, g=10.0, kappa=100.0),
        individual_params(5, g=10.0, kappa=100.0),
    ], ids=["collective-20", "individual-5"])
    def test_run_memory_is_small(self, params):
        # keeping the whole state at each grid point peaked at 65 and 98 MiB
        params, num = validate_params(params, NumericalParams(n_traj=1))
        tracemalloc.start()
        try:
            solve_oracle(params, num)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestIndependentPropagator:
    """solve_oracle against the matrix exponential of the same generator,
    applied by expm_multiply on the same grid.  The individual N = 1 case at
    g = 10, kappa = 100 is stiff for DOP853: its error there (photon mean
    3e-8) exceeds rtol, so it gets the looser bound."""

    @pytest.mark.parametrize("make, n_atoms, g, kappa, tol", [
        (collective_params, 8, 10.0, 100.0, 1e-9),
        (individual_params, 3, 10.0, 100.0, 1e-9),
        (collective_params, 4, 3.0, 3.0, 1e-9),
        (individual_params, 1, 10.0, 100.0, 1e-7),
    ], ids=["collective-8", "individual-3", "collective-4-g3", "individual-1-stiff"])
    def test_oracle_matches_expm_multiply(self, make, n_atoms, g, kappa, tol):
        params, num = validate_params(make(n_atoms, g=g, kappa=kappa),
                                      NumericalParams(n_traj=1))
        series = solve_oracle(params, num)
        liouv = build_liouvillian(params)
        y0 = np.zeros(liouv.generator.shape[0], dtype=complex)
        y0[0] = 1.0
        t = series.times
        ys = expm_multiply(liouv.generator, y0, start=t[0], stop=t[-1], num=len(t),
                           endpoint=True)
        populations = ys[:, liouv.diagonal].real
        basis = liouv.basis
        sz = populations @ (basis.excited_atoms[liouv.states] - 0.5 * n_atoms)
        photon = populations @ basis.photons[liouv.states]
        assert np.max(np.abs(series.sz_mean - sz)) <= tol
        assert np.max(np.abs(series.photon_mean - photon)) <= tol


class TestGoldenReference:
    """Regression pins for oracle curves used to validate the stochastic
    solvers; values produced by this oracle and cross-checked by halving the
    tolerance and enlarging the photon space before freezing."""

    def test_two_atom_individual_with_cavity(self):
        params = individual_params(2, g=1.0, kappa=20.0)
        liouv = build_liouvillian(params)
        t = np.linspace(0.0, 2.0, 9)
        series = evolve_density_matrix(liouv, t)
        golden = GOLDEN_N2_INDIVIDUAL
        np.testing.assert_allclose(series.sz_mean, golden, atol=1e-8)

    def test_four_atom_collective_strong_coupling(self):
        params = collective_params(4, g=10.0, kappa=1.0)
        liouv = build_liouvillian(params)
        t = np.linspace(0.0, 1.0, 9)
        series = evolve_density_matrix(liouv, t)
        np.testing.assert_allclose(series.sz_mean, GOLDEN_N4_COLLECTIVE, atol=1e-8)


GOLDEN_N2_INDIVIDUAL = np.array([
    1.0,
    0.18788355755119251,
    -0.298432119619625,
    -0.5856026786157664,
    -0.755132474553958,
    -0.8552333484885507,
    -0.9143629598029575,
    -0.9493091770471074,
    -0.9699750707589743,
])

GOLDEN_N4_COLLECTIVE = np.array([
    2.0,
    -1.2516422361971498,
    -1.1311583689440814,
    -1.2293561221647338,
    -1.6471138484482257,
    -1.8536994052378495,
    -1.9198519480234886,
    -1.9408761709999005,
    -1.96422458449751,
])
