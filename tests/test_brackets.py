import numpy as np
import pytest

from schrofield import (
    Potential,
    WaveFunction,
    build_grid,
    build_operator,
    canonical_structure,
    constraint_gradient_matrix,
    dirac_flow_check,
    dirac_structure,
    eigendecompose,
    generalized_hamiltonian_check,
    schrodinger_rhs,
    verify_dirac_relations,
)
from schrofield import brackets, lattice
from schrofield.brackets import (
    BlockTable,
    BracketTable,
    _jacobi_terms,
    jacobi_cyclic_residual,
    noncanonical_structure,
    sector_smallest_singular_values,
)

from conftest import (
    block,
    constraint_bracket_matrix,
    count_calls,
    dense_k,
    dense_table,
    dirac_structure_generic,
)


def test_canonical_structure_blocks(small_harmonic):
    op, _ = small_harmonic
    j = canonical_structure(op)
    m = dense_table(j)
    assert np.max(np.abs(m + m.T)) == 0.0
    eye_dx = np.eye(40) / op.grid.dx
    assert np.array_equal(m[block("phi", 40), block("p", 40)], eye_dx)
    assert np.array_equal(m[block("varphi", 40), block("pi", 40)], eye_dx)
    assert not m[block("phi", 40), block("varphi", 40)].any()
    assert not m[block("phi", 40), block("pi", 40)].any()


def test_bracket_matrix_rejects_symmetric_part(free3):
    bad = np.eye(4)[:, :, None]  # the 12 x 12 identity, as identity blocks
    with pytest.raises(ValueError):
        BracketTable(bad, free3)


def test_tables_over_distinct_operators_refuse_to_combine():
    # Two operators on one grid with one potential: equal stencils, but not
    # the same operator, so no table over one may meet a table over the other.
    grid = build_grid(12, -3.0, 3.0)
    op_a, op_b = (build_operator(grid, Potential(np.zeros(12))) for _ in range(2))
    a, b = dirac_structure(op_a), dirac_structure(op_b)
    assert np.array_equal(a.coeffs, b.coeffs)
    for combine in (lambda: a + b, lambda: a - b, lambda: a @ b, lambda: a.T @ b.T):
        with pytest.raises(ValueError, match="different operators"):
            combine()
    # the same operator combines
    assert (a - dirac_structure(op_a)).max_abs() == 0.0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_max_abs_sums_wrapped_offsets(n):
    # On a periodic ring of n <= 2d points, distinct band offsets of a degree-d
    # block land on the same entry. For the free K = b (S + S^-1 - 2 I),
    # K^2 + 4 b K + 2 b^2 I vanishes on the diagonal and first neighbours, so
    # at n = 4 its only entries are the (i, i + 2) ones, 2 b^2, reached both
    # ways round the ring.
    op = build_operator(build_grid(n, 0.0, 1.0, "periodic"), Potential(np.zeros(n)))
    b = op.coupling
    for poly in ([2.0 * b * b, 4.0 * b, 1.0], [0.0, 0.0, 1.0], [1.0, -2.0, 0.5, 3.0]):
        table = BlockTable([[poly]], op)
        want = np.max(np.abs(dense_table(table)))
        assert abs(table.max_abs() - want) <= 1e-12 * max(want, b**3)


def test_constraint_gradients(small_harmonic, rng):
    op, _ = small_harmonic
    k = dense_k(op)
    g = dense_table(constraint_gradient_matrix(op))
    phi = rng.standard_normal(40)
    p = rng.standard_normal(40)
    z = np.concatenate([phi, p, -k @ phi, np.zeros(40)])
    residual = g @ z
    assert np.max(np.abs(residual)) < 1e-12
    assert np.array_equal(g[:40, block("phi", 40)], k)

    # finite-difference oracle on the constraint functionals
    def c1_at(i, z):
        return z[block("varphi", 40)][i] + float(k[i] @ z[block("phi", 40)])

    z0 = rng.standard_normal(160)
    eps = 1e-6
    for i in (0, 17):
        for j in (3, 45, 97, 140):
            bump = np.zeros(160)
            bump[j] = eps
            fd = (c1_at(i, z0 + bump) - c1_at(i, z0 - bump)) / (2.0 * eps)
            assert abs(fd - g[i, j]) < 1e-8


def test_constraint_bracket_block_form(small_harmonic):
    op, _ = small_harmonic
    dx = op.grid.dx
    c = constraint_bracket_matrix(op)
    n = 40
    eye_dx = np.eye(n) / dx
    assert np.max(np.abs(c[:n, n:] - eye_dx)) < 1e-12 / dx
    assert np.max(np.abs(c[n:, :n] + eye_dx)) < 1e-12 / dx
    assert np.max(np.abs(c[:n, :n])) < 1e-12 / dx
    assert np.max(np.abs(c[n:, n:])) < 1e-12 / dx
    svals = np.linalg.svd(c, compute_uv=False)
    assert abs(svals[-1] - 1.0 / dx) < 1e-10 / dx
    # the table algebra that dirac_structure inverts gives the same matrix
    g = constraint_gradient_matrix(op)
    c_table = g @ canonical_structure(op) @ g.T
    assert c_table.degree == 0
    assert np.max(np.abs(dense_table(c_table) - c)) < 1e-12 / dx


def test_constraint_bracket_independent_of_potential(rng):
    grid = build_grid(24, -3.0, 3.0)
    op_a = build_operator(grid, Potential(np.zeros(24)))
    op_b = build_operator(grid, Potential(rng.standard_normal(24)))
    c_a = constraint_bracket_matrix(op_a)
    c_b = constraint_bracket_matrix(op_b)
    assert np.array_equal(c_a, c_b)


def test_dirac_structure_blocks(small_harmonic):
    op, _ = small_harmonic
    jd = dirac_structure(op)
    m = dense_table(jd)
    eye_dx = np.eye(40) / op.grid.dx
    k_dx = dense_k(op) / op.grid.dx
    tol = 1e-12 * np.max(np.abs(k_dx))
    assert np.max(np.abs(m[block("pi", 40), :])) < tol
    assert np.max(np.abs(m[:, block("pi", 40)])) < tol
    assert np.max(np.abs(m[block("phi", 40), block("varphi", 40)])) < tol
    assert np.max(np.abs(m[block("phi", 40), block("p", 40)] - eye_dx)) < tol
    assert np.max(np.abs(m[block("varphi", 40), block("p", 40)] + k_dx)) < tol


def test_dirac_generic_solve_matches_block_inverse(small_harmonic):
    op, _ = small_harmonic
    a = dense_table(dirac_structure(op))
    b = dirac_structure_generic(op)
    assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))


def test_verify_relations_pass_free3(free3):
    report = verify_dirac_relations(dirac_structure(free3))
    assert all(entry["passed"] for entry in report)


def test_verify_relations_pass_harmonic400(harmonic400):
    op, _ = harmonic400
    report = verify_dirac_relations(dirac_structure(op))
    assert all(entry["passed"] for entry in report)


def test_verify_relations_detector_flags_targeted_identities(small_harmonic, rng):
    op, _ = small_harmonic
    c = np.array(dirac_structure(op).coeffs)
    # a table holds polynomials in K, so the noise is a random c0 I + c1 K
    noise = 1e-6 * rng.standard_normal(2)
    c[0, 1] += noise
    c[1, 0] -= noise
    report = verify_dirac_relations(BracketTable(c, op))
    failed = {e["name"] for e in report if not e["passed"]}
    assert failed == {
        "dirac_phi_p_is_delta",
        "dirac_field_sector_canonical",
        "dirac_constraint_casimir",
    }


def test_verify_relations_flag_a_table_at_half_scale(small_harmonic):
    # The scale of every block comes from the table's own operator, so a J_D
    # built as if dx were twice the grid's no longer passes.
    op, _ = small_harmonic
    report = verify_dirac_relations(BracketTable(0.5 * dirac_structure(op).coeffs, op))
    failed = {e["name"] for e in report if not e["passed"]}
    assert failed == {
        "dirac_phi_p_is_delta",
        "dirac_varphi_p_is_minus_K",
        "dirac_field_sector_canonical",
        "dirac_wave_sector_noncanonical",
    }


def test_casimir_and_sector_coincidences(small_harmonic):
    op, _ = small_harmonic
    jd = dirac_structure(op)
    g = dense_table(constraint_gradient_matrix(op))
    scale = np.max(np.abs(dense_table(jd)))
    assert np.max(np.abs(dense_table(jd) @ g.T)) < 1e-12 * scale
    canon = dense_table(canonical_structure(op).sector(("phi", "p")))
    assert np.max(np.abs(dense_table(jd.sector(("phi", "p"))) - canon)) < 1e-12 * scale
    noncanon = dense_table(noncanonical_structure(op))
    assert np.max(np.abs(dense_table(jd.sector(("varphi", "p"))) - noncanon)) < 1e-12 * scale


def test_generalized_hamiltonian_checks(free3, rng):
    report = generalized_hamiltonian_check(free3, rng=rng)
    by_name = {e["name"]: e for e in report}
    assert by_name["generalized_flow_matches_schrodinger"]["violation"] < 1e-13
    assert by_name["generalized_energy_conserved"]["violation"] < 1e-13

    spec = eigendecompose(free3)
    u0 = spec.vectors[:, -1]
    k0 = spec.eigenvalues[-1]
    jp = noncanonical_structure(free3)
    grad = free3.grid.dx * np.concatenate([u0, np.zeros(3)]) / free3.hbar
    flow = jp @ grad
    dre, dim = schrodinger_rhs(free3, WaveFunction(re=u0, im=np.zeros(3)))
    assert np.max(np.abs(flow[:3] - dre)) < 1e-13
    assert np.max(np.abs(flow[3:] - dim)) < 1e-13
    assert np.max(np.abs(flow[3:] - k0 * u0 / free3.hbar)) < 1e-12


def test_generalized_energy_conserved_at_n3200():
    # grad . J' grad rounds off in proportion to |grad| |J' grad|, and ||J'||
    # grows like n^3; scaled by |grad|^2 this read 3.2e-12 on correct code.
    grid = build_grid(3200, -20.0, 20.0)
    x = grid.points()
    op = build_operator(grid, Potential(0.5 * x * x))
    for seed in range(3):
        report = generalized_hamiltonian_check(op, rng=np.random.default_rng(seed))
        assert all(entry["passed"] for entry in report), report


def test_generalized_energy_conserved_flags_a_symmetric_part(small_harmonic, monkeypatch):
    op, _ = small_harmonic
    jp = noncanonical_structure(op)

    class Tilted:
        """J' plus a symmetric part 1e-9 of its size along grad."""

        def __matmul__(self, grad):
            flow = jp @ grad
            return flow + 1e-9 * (np.linalg.norm(flow) / np.linalg.norm(grad)) * grad

    monkeypatch.setattr(brackets, "noncanonical_structure", lambda op: Tilted())
    by_name = {e["name"]: e for e in generalized_hamiltonian_check(op)}
    assert 5e-10 < by_name["generalized_energy_conserved"]["violation"] < 2e-9


def test_dirac_flow_checks(small_harmonic, rng):
    op, _ = small_harmonic
    jd = dirac_structure(op)
    for entry in dirac_flow_check(jd, rng=rng):
        assert entry["passed"], entry
    # zero state generates zero flow
    zero_flow = jd.sector(("varphi", "p")) @ np.zeros(80)
    assert not zero_flow.any()


def _dense_jacobi_terms(j, rng):
    """Oracle: the same low-rank forms U S U^T, formed densely, and the triple products x J y."""
    dim = j.shape[0]
    mats = []
    for _ in range(3):
        u = rng.standard_normal((dim, brackets.JACOBI_RANK))
        b = rng.standard_normal((brackets.JACOBI_RANK, brackets.JACOBI_RANK))
        mats.append(u @ (0.5 * (b + b.T)) @ u.T)
    a, b, c = mats
    z = rng.standard_normal(dim)
    terms = []
    for x, y, w in ((a, b, c), (b, c, a), (c, a, b)):
        grad_xy = (x @ j @ y - y @ j @ x) @ z
        terms.append(float(grad_xy @ j @ (w @ z)))
    return terms


def test_jacobi_cyclic_residual(small_harmonic, periodic_free64):
    for op, _ in (small_harmonic, periodic_free64):
        jd = dirac_structure(op)
        rng_fast, rng_dense = np.random.default_rng(12345), np.random.default_rng(12345)
        for _ in range(3):
            fast = _jacobi_terms(jd, rng_fast)
            dense = _dense_jacobi_terms(dense_table(jd), rng_dense)
            scale = sum(abs(t) for t in dense)
            assert abs(sum(dense)) < 1e-12 * scale
            # term by term, not only the cancelling sum
            assert max(abs(f - d) for f, d in zip(fast, dense)) < 1e-12 * scale
        rng_residual = np.random.default_rng(12345)
        assert jacobi_cyclic_residual(jd, rng=rng_residual) < 1e-12
        # same draws in the same order: the identities run_verify checks
        # after this one see the same generator state
        assert rng_fast.bit_generator.state == rng_dense.bit_generator.state
        assert rng_residual.bit_generator.state == rng_dense.bit_generator.state


def test_sector_nondegeneracy_values(small_harmonic, periodic_free64):
    op, spec = small_harmonic
    jd = dirac_structure(op)
    svals = sector_smallest_singular_values(jd, spec)
    assert abs(svals["phi_p"] - 1.0 / op.grid.dx) < 1e-10 / op.grid.dx
    min_kappa = np.min(np.abs(spec.eigenvalues))
    assert abs(svals["varphi_p"] - min_kappa / op.grid.dx) < 1e-8
    assert svals["varphi_p"] > 0.0

    op_p, spec_p = periodic_free64
    jd_p = dirac_structure(op_p)
    svals_p = sector_smallest_singular_values(jd_p, spec_p)
    # kernel mode degenerates the wave sector; reported, not asserted positive
    assert svals_p["varphi_p"] < 1e-10
    assert abs(svals_p["phi_p"] - 1.0 / op_p.grid.dx) < 1e-10 / op_p.grid.dx


def test_bracket_layer_memory_is_linear_at_n3200(monkeypatch):
    # One dense 4n x 4n matrix at n = 3200 is 1.3 GB; the tables and the
    # Jacobi check's rank-r forms need O(n).
    import tracemalloc

    grid = build_grid(3200, -20.0, 20.0)
    x = grid.points()
    op = build_operator(grid, Potential(0.5 * x * x))
    eighs = count_calls(monkeypatch, lattice, "eigendecompose")
    tracemalloc.start()
    try:
        jd = dirac_structure(op)
        report = verify_dirac_relations(jd)
        report += dirac_flow_check(jd)
        generalized_hamiltonian_check(op)
        jacobi = jacobi_cyclic_residual(jd)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(entry["passed"] for entry in report)
    assert jacobi < 1e-12
    assert peak < 32 * 2**20
    assert eighs == []
