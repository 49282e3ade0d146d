import numpy as np
import pytest

from cavity_sr import (NumericalParams, build_liouvillian_collective,
                       build_liouvillian_individual, collective_params,
                       evolve_density_matrix, individual_params, solve_oracle,
                       validate_params)
from cavity_sr.oracle import (collective_operators, individual_operators,
                              invariant_entries)


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


def apply_superop(liouv, rho):
    return (liouv.superop @ rho.ravel()).reshape(liouv.dim, liouv.dim)


class TestBuilders:
    def test_trace_annihilation_collective(self):
        liouv = build_liouvillian_collective(collective_params(3, g=2.0, kappa=1.5))
        rng = np.random.default_rng(0)
        for _ in range(100):
            rho = random_hermitian(liouv.dim, rng)
            assert abs(np.trace(apply_superop(liouv, rho))) < 1e-12

    def test_trace_annihilation_individual(self):
        liouv = build_liouvillian_individual(individual_params(2, g=1.0, kappa=0.5))
        rng = np.random.default_rng(1)
        for _ in range(100):
            rho = random_hermitian(liouv.dim, rng)
            assert abs(np.trace(apply_superop(liouv, rho))) < 1e-12

    def test_superoperator_matches_lindblad_formula(self):
        rng = np.random.default_rng(2)
        coll = build_liouvillian_collective(
            collective_params(2, g=1.0, kappa=0.7, gamma=0.3, detuning=0.4))
        sm, c = collective_operators(coll.basis)
        ind = build_liouvillian_individual(
            individual_params(2, g=1.0, kappa=0.7, gamma=0.3, detuning=0.4))
        sigma_minus, c_ind = individual_operators(ind.basis)
        cases = [(coll, [(1.4, c), (0.6, sm)]),
                 (ind, [(1.4, c_ind)] + [(0.6, s) for s in sigma_minus])]
        for liouv, collapse in cases:
            rho = random_hermitian(liouv.dim, rng)
            np.testing.assert_allclose(
                apply_superop(liouv, rho),
                lindblad_rhs(liouv.hamiltonian, collapse, rho), atol=1e-12)

    def test_dimension_guards(self):
        with pytest.raises(ValueError, match="limited"):
            build_liouvillian_collective(collective_params(40))
        with pytest.raises(ValueError, match="limited"):
            build_liouvillian_individual(individual_params(9))

    def test_collective_ladder_rates(self):
        # N=2 Dicke ladder: <J,m-1|S-|J,m> gives both cascade rates 4*Gamma
        liouv = build_liouvillian_collective(collective_params(2))
        sm, _ = collective_operators(liouv.basis)
        # S- matrix elements sqrt(J(J+1)-m(m-1)) for m = 1, 0: sqrt(2) both
        cav = liouv.basis.cavity_dim
        assert sm[cav, 0] == pytest.approx(np.sqrt(2))
        assert sm[2 * cav, cav] == pytest.approx(np.sqrt(2))


class TestClosedForms:
    def test_single_atom_free_decay(self):
        params, _ = validate_params(collective_params(1), NumericalParams())
        liouv = build_liouvillian_collective(params)
        t = np.linspace(0, 3, 61)
        series = evolve_density_matrix(liouv, t)
        exact = 0.5 * (2 * np.exp(-2 * t) - 1)
        np.testing.assert_allclose(series.sz_mean, exact, atol=1e-6)

    def test_two_atom_dicke_cascade(self):
        params, _ = validate_params(collective_params(2), NumericalParams())
        liouv = build_liouvillian_collective(params)
        t = np.linspace(0, 2, 81)
        series = evolve_density_matrix(liouv, t)
        exact = 2 * np.exp(-4 * t) + 4 * t * np.exp(-4 * t) - 1
        np.testing.assert_allclose(series.sz_mean, exact, atol=1e-6)

    def test_vacuum_rabi_oscillation(self):
        g = 1.3
        params = collective_params(1, g=g, kappa=0.0, gamma=0.0)
        liouv = build_liouvillian_collective(params)
        t = np.linspace(0, 5, 101)
        series = evolve_density_matrix(liouv, t)
        np.testing.assert_allclose(series.photon_mean, np.sin(g * t) ** 2, atol=1e-6)

    def test_independent_atoms_decay_without_cavity(self):
        params = individual_params(3, g=0.0, kappa=1.0)
        liouv = build_liouvillian_individual(params)
        t = np.linspace(0, 2, 41)
        series = evolve_density_matrix(liouv, t)
        np.testing.assert_allclose(series.sz_norm, 2 * np.exp(-2 * t) - 1, atol=1e-6)


class TestInvariants:
    def evolve_rhos(self, liouv, t):
        """Full rho(t) from the fully excited vacuum, on every entry."""
        from scipy.integrate import solve_ivp
        d = liouv.dim
        rho0 = np.zeros(d * d, dtype=complex)
        rho0[0] = 1.0
        sol = solve_ivp(lambda _, y: liouv.superop @ y,
                        (t[0], t[-1]), rho0, t_eval=t,
                        method="DOP853", rtol=1e-10, atol=1e-12)
        return sol.y.T.reshape(-1, d, d)

    def test_trace_hermiticity_positivity_maintained(self):
        params = collective_params(3, g=5.0, kappa=1.0)
        liouv = build_liouvillian_collective(params)
        rhos = self.evolve_rhos(liouv, np.linspace(0, 1, 21))
        for rho in rhos:
            assert abs(np.trace(rho).real - 1) < 1e-10
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_excitation_conserved_without_dissipation(self):
        params = collective_params(3, g=2.0, kappa=0.0, gamma=0.0)
        liouv = build_liouvillian_collective(params)
        t = np.linspace(0, 2, 41)
        series = evolve_density_matrix(liouv, t)
        total = series.sz_mean + series.photon_mean
        np.testing.assert_allclose(total, total[0], atol=1e-8)

    def test_single_atom_schemes_coincide(self):
        # N = 1: collective with Gamma equals individual with gamma -> Gamma
        t = np.linspace(0, 2, 41)
        coll = build_liouvillian_collective(collective_params(1, g=1.0, kappa=0.5))
        ind = build_liouvillian_individual(individual_params(1, g=1.0, kappa=0.5))
        a = evolve_density_matrix(coll, t)
        b = evolve_density_matrix(ind, t)
        np.testing.assert_allclose(a.sz_mean, b.sz_mean, atol=1e-9)
        np.testing.assert_allclose(a.photon_mean, b.photon_mean, atol=1e-9)
        sa = sorted(np.linalg.eigvals(coll.superop.toarray()), key=lambda z: (z.real, z.imag))
        sb = sorted(np.linalg.eigvals(ind.superop.toarray()), key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(sa, sb, atol=1e-9)

    def test_two_atom_symmetric_sector_hamiltonian_equivalence(self):
        # coherent part of the individual builder restricted to the symmetric
        # sector reproduces the collective (Dicke) Hamiltonian
        coll = build_liouvillian_collective(collective_params(2, g=1.7))
        ind = build_liouvillian_individual(individual_params(2, g=1.7))
        nc = coll.basis.cavity_dim
        up = np.array([1.0, 0.0])
        down = np.array([0.0, 1.0])
        sym = [np.kron(up, up),
               (np.kron(up, down) + np.kron(down, up)) / np.sqrt(2),
               np.kron(down, down)]
        proj = np.zeros((3 * nc, 4 * nc))
        for i, s in enumerate(sym):
            proj[i * nc:(i + 1) * nc, :] = np.kron(s, np.eye(nc))
        restricted = proj @ ind.hamiltonian @ proj.T
        np.testing.assert_allclose(restricted, coll.hamiltonian, atol=1e-12)


class TestInvariantEntries:
    """The full superoperator moves no weight out of the entries that
    evolve_density_matrix keeps, so propagating only those is exact."""

    @pytest.mark.parametrize("case", ["collective", "individual"])
    def test_superoperator_leaks_nothing_out_of_kept_entries(self, case):
        if case == "collective":
            liouv = build_liouvillian_collective(collective_params(8, g=10.0, kappa=100.0))
        else:
            liouv = build_liouvillian_individual(individual_params(3, g=10.0, kappa=100.0))
        kept = invariant_entries(liouv.basis)
        outside = np.setdiff1d(np.arange(liouv.dim ** 2), kept)
        assert 0 < kept.size < liouv.dim ** 2
        assert kept[0] == 0             # the fully excited vacuum is kept
        leak = liouv.superop[outside][:, kept]
        assert np.count_nonzero(leak.toarray()) == 0

    def test_collective_kept_entries_are_the_excitation_blocks(self):
        # fully excited N = 8: sum over n_exc = 0..8 of (n_exc + 1)^2 states
        liouv = build_liouvillian_collective(collective_params(8))
        kept = invariant_entries(liouv.basis)
        assert kept.size == 285

    def test_basis_excitations_match_operator_diagonals(self):
        coll = build_liouvillian_collective(collective_params(3)).basis
        ind = build_liouvillian_individual(individual_params(3)).basis
        sm_coll, c_coll = collective_operators(coll)
        sigma_minus, c_ind = individual_operators(ind)
        for basis, sm, c in [(coll, sm_coll, c_coll), (ind, sum(sigma_minus), c_ind)]:
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
        liouv = build_liouvillian_collective(collective_params(1))
        with pytest.raises(ValueError, match="increasing"):
            evolve_density_matrix(liouv, np.array([0.0]))
        with pytest.raises(ValueError, match="increasing"):
            evolve_density_matrix(liouv, np.array([0.0, 0.5, 0.2]))

    def test_constant_observables_for_zero_liouvillian(self):
        params = collective_params(2, g=0.0, kappa=0.0, gamma=0.0)
        liouv = build_liouvillian_collective(params)
        t = np.linspace(0, 1, 11)
        series = evolve_density_matrix(liouv, t)
        np.testing.assert_allclose(series.sz_mean, 1.0, atol=1e-10)
        np.testing.assert_allclose(series.photon_mean, 0.0, atol=1e-10)


class TestGoldenReference:
    """Regression pins for oracle curves used to validate the stochastic
    solvers; values produced by this oracle and cross-checked by halving the
    tolerance and enlarging the photon space before freezing."""

    def test_two_atom_individual_with_cavity(self):
        params = individual_params(2, g=1.0, kappa=20.0)
        liouv = build_liouvillian_individual(params)
        t = np.linspace(0.0, 2.0, 9)
        series = evolve_density_matrix(liouv, t)
        golden = GOLDEN_N2_INDIVIDUAL
        np.testing.assert_allclose(series.sz_mean, golden, atol=1e-8)

    def test_four_atom_collective_strong_coupling(self):
        params = collective_params(4, g=10.0, kappa=1.0)
        liouv = build_liouvillian_collective(params)
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
