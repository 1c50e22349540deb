import numpy as np
import pytest

from schrofield import (
    Potential,
    WaveFunction,
    build_grid,
    build_operator,
    canonical_structure,
    constraint_bracket_matrix,
    constraint_gradient_matrix,
    dirac_flow_check,
    dirac_structure,
    eigendecompose,
    generalized_hamiltonian_check,
    schrodinger_rhs,
    verify_dirac_relations,
)
from schrofield.brackets import (
    BracketMatrix,
    PhaseLayout,
    _jacobi_terms,
    dirac_structure_generic,
    jacobi_cyclic_residual,
    noncanonical_structure,
    sector_smallest_singular_values,
)


def _layout(op):
    return PhaseLayout(n=op.n, dx=op.grid.dx)


def test_layout_pack_unpack(small_harmonic, rng):
    op, _ = small_harmonic
    lay = _layout(op)
    parts = [rng.standard_normal(40) for _ in range(4)]
    z = lay.pack(*parts)
    assert z.shape == (160,)
    for got, want in zip(lay.unpack(z), parts):
        assert np.array_equal(got, want)


def test_canonical_structure_blocks(small_harmonic):
    op, _ = small_harmonic
    lay = _layout(op)
    j = canonical_structure(lay)
    m = j.matrix
    assert np.max(np.abs(m + m.T)) == 0.0
    eye_dx = np.eye(40) / lay.dx
    assert np.array_equal(m[lay.block("phi"), lay.block("p")], eye_dx)
    assert np.array_equal(m[lay.block("varphi"), lay.block("pi")], eye_dx)
    assert not m[lay.block("phi"), lay.block("varphi")].any()
    assert not m[lay.block("phi"), lay.block("pi")].any()


def test_bracket_matrix_rejects_symmetric_part():
    lay = PhaseLayout(n=3, dx=1.0)
    bad = np.eye(12)
    with pytest.raises(ValueError):
        BracketMatrix(matrix=bad, layout=lay)


def test_constraint_gradients(small_harmonic, rng):
    op, _ = small_harmonic
    lay = _layout(op)
    g = constraint_gradient_matrix(op, lay)
    phi = rng.standard_normal(40)
    p = rng.standard_normal(40)
    z = lay.pack(phi, p, -op.matrix @ phi, np.zeros(40))
    residual = g @ z
    assert np.max(np.abs(residual)) < 1e-12
    assert np.array_equal(g[:40, lay.block("phi")], op.matrix)

    # finite-difference oracle on the constraint functionals
    def c1_at(i, z):
        phi_, _, varphi_, _ = lay.unpack(z)
        return varphi_[i] + float(op.matrix[i] @ phi_)

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
    lay = _layout(op)
    c = constraint_bracket_matrix(op, lay)
    n = 40
    eye_dx = np.eye(n) / lay.dx
    assert np.max(np.abs(c[:n, n:] - eye_dx)) < 1e-12 / lay.dx
    assert np.max(np.abs(c[n:, :n] + eye_dx)) < 1e-12 / lay.dx
    assert np.max(np.abs(c[:n, :n])) < 1e-12 / lay.dx
    assert np.max(np.abs(c[n:, n:])) < 1e-12 / lay.dx
    svals = np.linalg.svd(c, compute_uv=False)
    assert abs(svals[-1] - 1.0 / lay.dx) < 1e-10 / lay.dx


def test_constraint_bracket_independent_of_potential(rng):
    grid = build_grid(24, -3.0, 3.0)
    lay = PhaseLayout(n=24, dx=grid.dx)
    op_a = build_operator(grid, Potential(np.zeros(24)))
    op_b = build_operator(grid, Potential(rng.standard_normal(24)))
    c_a = constraint_bracket_matrix(op_a, lay)
    c_b = constraint_bracket_matrix(op_b, lay)
    assert np.array_equal(c_a, c_b)


def test_dirac_structure_blocks(small_harmonic):
    op, _ = small_harmonic
    lay = _layout(op)
    jd = dirac_structure(op, lay)
    m = jd.matrix
    eye_dx = np.eye(40) / lay.dx
    k_dx = op.matrix / lay.dx
    tol = 1e-12 * np.max(np.abs(k_dx))
    assert np.max(np.abs(m[lay.block("pi"), :])) < tol
    assert np.max(np.abs(m[:, lay.block("pi")])) < tol
    assert np.max(np.abs(m[lay.block("phi"), lay.block("varphi")])) < tol
    assert np.max(np.abs(m[lay.block("phi"), lay.block("p")] - eye_dx)) < tol
    assert np.max(np.abs(m[lay.block("varphi"), lay.block("p")] + k_dx)) < tol


def test_dirac_generic_solve_matches_block_inverse(small_harmonic):
    op, _ = small_harmonic
    lay = _layout(op)
    a = dirac_structure(op, lay).matrix
    b = dirac_structure_generic(op, lay).matrix
    assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))


def test_verify_relations_pass_free3(free3):
    lay = _layout(free3)
    report = verify_dirac_relations(free3, lay)
    assert all(entry["passed"] for entry in report)


def test_verify_relations_pass_harmonic400(harmonic400):
    op, _ = harmonic400
    report = verify_dirac_relations(op, _layout(op))
    assert all(entry["passed"] for entry in report)


def test_verify_relations_detector_flags_targeted_identities(small_harmonic, rng):
    op, _ = small_harmonic
    lay = _layout(op)
    m = np.array(dirac_structure(op, lay).matrix)
    noise = 1e-6 * rng.standard_normal((40, 40))
    m[lay.block("phi"), lay.block("p")] += noise
    m[lay.block("p"), lay.block("phi")] -= noise.T
    report = verify_dirac_relations(op, lay, dirac=BracketMatrix(matrix=m, layout=lay))
    failed = {e["name"] for e in report if not e["passed"]}
    assert failed == {
        "dirac_phi_p_is_delta",
        "dirac_field_sector_canonical",
        "dirac_constraint_casimir",
    }


def test_casimir_and_sector_coincidences(small_harmonic):
    op, _ = small_harmonic
    lay = _layout(op)
    jd = dirac_structure(op, lay)
    g = constraint_gradient_matrix(op, lay)
    scale = np.max(np.abs(jd.matrix))
    assert np.max(np.abs(jd.matrix @ g.T)) < 1e-12 * scale
    canon = canonical_structure(lay).sector(("phi", "p"))
    assert np.max(np.abs(jd.sector(("phi", "p")) - canon)) < 1e-12 * scale
    noncanon = noncanonical_structure(op, lay)
    assert np.max(np.abs(jd.sector(("varphi", "p")) - noncanon)) < 1e-12 * scale


def test_generalized_hamiltonian_checks(free3, rng):
    lay = _layout(free3)
    report = generalized_hamiltonian_check(free3, lay, rng=rng)
    by_name = {e["name"]: e for e in report}
    assert by_name["generalized_flow_matches_schrodinger"]["violation"] < 1e-13
    assert by_name["generalized_energy_conserved"]["violation"] < 1e-13

    spec = eigendecompose(free3)
    u0 = spec.vectors[:, -1]
    k0 = spec.eigenvalues[-1]
    jp = noncanonical_structure(free3, lay)
    grad = lay.dx * np.concatenate([u0, np.zeros(3)]) / free3.hbar
    flow = jp @ grad
    dre, dim = schrodinger_rhs(free3, WaveFunction(re=u0, im=np.zeros(3)))
    assert np.max(np.abs(flow[:3] - dre)) < 1e-13
    assert np.max(np.abs(flow[3:] - dim)) < 1e-13
    assert np.max(np.abs(flow[3:] - k0 * u0 / free3.hbar)) < 1e-12


def test_dirac_flow_checks(small_harmonic, rng):
    op, _ = small_harmonic
    lay = _layout(op)
    for entry in dirac_flow_check(op, lay, rng=rng):
        assert entry["passed"], entry
    # zero state generates zero flow
    jd = dirac_structure(op, lay)
    zero_flow = jd.sector(("varphi", "p")) @ np.zeros(80)
    assert not zero_flow.any()


def _dense_jacobi_terms(j, rng):
    """Oracle: the nested-bracket terms through the dense triple products x J y."""
    dim = j.shape[0]
    mats = []
    for _ in range(3):
        a = rng.standard_normal((dim, dim))
        mats.append(0.5 * (a + a.T))
    a, b, c = mats
    z = rng.standard_normal(dim)
    terms = []
    for x, y, w in ((a, b, c), (b, c, a), (c, a, b)):
        grad_xy = (x @ j @ y - y @ j @ x) @ z
        terms.append(float(grad_xy @ j @ (w @ z)))
    return terms


def test_jacobi_cyclic_residual(small_harmonic, periodic_free64):
    for op, _ in (small_harmonic, periodic_free64):
        jd = dirac_structure(op, _layout(op))
        rng_fast, rng_dense = np.random.default_rng(12345), np.random.default_rng(12345)
        for _ in range(3):
            fast = _jacobi_terms(jd.matrix, rng_fast)
            dense = _dense_jacobi_terms(jd.matrix, rng_dense)
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
    jd = dirac_structure(op, _layout(op))
    svals = sector_smallest_singular_values(jd)
    assert abs(svals["phi_p"] - 1.0 / op.grid.dx) < 1e-10 / op.grid.dx
    min_kappa = np.min(np.abs(spec.eigenvalues))
    assert abs(svals["varphi_p"] - min_kappa / op.grid.dx) < 1e-8
    assert svals["varphi_p"] > 0.0

    op_p, spec_p = periodic_free64
    jd_p = dirac_structure(op_p, PhaseLayout(n=64, dx=op_p.grid.dx))
    svals_p = sector_smallest_singular_values(jd_p)
    # kernel mode degenerates the wave sector; reported, not asserted positive
    assert svals_p["varphi_p"] < 1e-10
    assert abs(svals_p["phi_p"] - 1.0 / op_p.grid.dx) < 1e-10 / op_p.grid.dx
