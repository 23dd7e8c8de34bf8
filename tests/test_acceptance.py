"""End-to-end acceptance checks, one test per numbered criterion.

Each test covers one contract over the shared 40-model suite (20 free
momenta, 10 lattices, 10 synthetic commuting models; see conftest) and
prints a ``[criterion N] PASS`` line with the worst measured magnitudes,
so ``pytest -s`` doubles as a numerical report.
"""

import numpy as np

from fwlab import (
    ModelSpec,
    Potential,
    build_model,
    eriksen_condition_residual,
    eriksen_transform,
    eriksen_transform_alt,
    exponent_oddness,
    frobenius,
    h_fw_exact,
    lambda_exact,
    make_beta,
    read_matrix,
    relative_norm,
    report_json,
    run_comparison,
    sign_operator,
    spectral_gap,
    sqrt_hd2_exact,
    stepwise_fw,
    u_fw_exact,
    weak_field_sqrt,
    write_matrix,
)
from fwlab.models import KIND_LATTICE

from oracles import principal_sqrt

# the non-commuting reference model: sharp Gaussian well on a coarse grid
SHARP_GAUSSIAN = ModelSpec(
    kind=KIND_LATTICE, mass=1.0, n=32, length=8.0,
    potential=Potential("gaussian", (0.1, 1.0)),
)

# smooth geometry for the weak-field order measurement: the expansion
# assumes a slowly varying field, so the width must resolve on the grid
SMOOTH_GAUSSIAN = ModelSpec(
    kind=KIND_LATTICE, mass=1.0, n=32, length=24.0,
    potential=Potential("gaussian", (0.2, 6.0)),
)


def test_criterion_01_adjoint_condition_suite_wide(full_suite):
    worst_gap_ratio = np.inf
    worst = 0.0
    for spec, h, _ in full_suite:
        gap = spectral_gap(h).min_abs_eigenvalue
        worst_gap_ratio = min(worst_gap_ratio, gap / frobenius(h))
        residual = eriksen_transform(h).diagnostics.eriksen_condition_residual
        worst = max(worst, residual)
        assert residual <= 1e-10, spec.describe()
    # suite precondition: every model is gapped
    assert worst_gap_ratio >= 1e-6
    print(f"[criterion 1] PASS worst adjoint residual {worst:.3e} "
          f"over {len(full_suite)} models (min gap ratio {worst_gap_ratio:.3e})")


def test_criterion_02_both_forms_coincide(full_suite):
    worst_diff = 0.0
    worst_comm = 0.0
    for spec, h, _ in full_suite:
        u_direct = eriksen_transform(h).transform
        u_polar = eriksen_transform_alt(h).transform
        diff = relative_norm(u_direct - u_polar, u_direct)
        worst_diff = max(worst_diff, diff)
        assert diff <= 1e-10, spec.describe()

        factor = np.eye(len(h)) + make_beta(len(h)) @ sign_operator(h)
        gram = factor.conj().T @ factor
        comm = frobenius(factor @ gram - gram @ factor) / (
            frobenius(factor) * frobenius(gram)
        )
        worst_comm = max(worst_comm, comm)
        assert comm <= 1e-11, spec.describe()
    print(f"[criterion 2] PASS worst form difference {worst_diff:.3e}, "
          f"worst factor/denominator commutator {worst_comm:.3e}")


def test_criterion_03_closed_form_reproduces_transform(commuting_suite):
    worst_u = 0.0
    worst_h = 0.0
    for spec, h, d in commuting_suite:
        closed = u_fw_exact(d)
        u_ref = eriksen_transform(h).transform
        diff_u = relative_norm(closed.transform - u_ref, u_ref)
        diff_h = relative_norm(
            closed.transformed_hamiltonian - h_fw_exact(d), h
        )
        worst_u = max(worst_u, diff_u)
        worst_h = max(worst_h, diff_h)
        assert diff_u <= 1e-10, spec.describe()
        assert diff_h <= 1e-10, spec.describe()
    print(f"[criterion 3] PASS worst transform mismatch {worst_u:.3e}, "
          f"worst block-form mismatch {worst_h:.3e} "
          f"over {len(commuting_suite)} commuting models")


def test_criterion_04_sign_operator_identities(full_suite, commuting_suite):
    def identities(lam):
        beta = make_beta(len(lam))
        eye_norm = np.sqrt(len(lam))
        a = beta @ lam
        b = lam @ beta
        return (
            frobenius(lam @ lam - np.eye(len(lam))) / eye_norm,
            frobenius(a @ b - b @ a) / eye_norm,
            frobenius(beta @ (a + b) - (a + b) @ beta) / eye_norm,
        )

    worst = 0.0
    for spec, h, _ in full_suite:
        for value in identities(sign_operator(h)):
            worst = max(worst, value)
            assert value <= 1e-11, spec.describe()
    for spec, h, d in commuting_suite:
        for value in identities(lambda_exact(d)):
            worst = max(worst, value)
            assert value <= 1e-11, spec.describe()
    print(f"[criterion 4] PASS worst identity residual {worst:.3e}")


def test_criterion_05_closed_root_contract(commuting_suite):
    worst_square = 0.0
    worst_oracle = 0.0
    for spec, h, d in commuting_suite:
        root = sqrt_hd2_exact(d)
        hd2 = h @ h
        square = relative_norm(root @ root - hd2, hd2)
        oracle = principal_sqrt(hd2)
        against_oracle = relative_norm(root - oracle, oracle)
        worst_square = max(worst_square, square)
        worst_oracle = max(worst_oracle, against_oracle)
        assert square <= 1e-10, spec.describe()
        assert against_oracle <= 1e-10, spec.describe()
    print(f"[criterion 5] PASS worst squaring residual {worst_square:.3e}, "
          f"worst oracle mismatch {worst_oracle:.3e}")


def test_criterion_06_weak_field_collapse_and_order(commuting_suite):
    worst_collapse = 0.0
    for spec, h, d in commuting_suite:
        root = sqrt_hd2_exact(d)
        collapse = relative_norm(weak_field_sqrt(d) - root, root)
        worst_collapse = max(worst_collapse, collapse)
        assert collapse <= 1e-12, spec.describe()

    strengths = (0.2, 0.1, 0.05)
    errors = []
    for g in strengths:
        spec = ModelSpec(
            kind=SMOOTH_GAUSSIAN.kind, mass=SMOOTH_GAUSSIAN.mass,
            n=SMOOTH_GAUSSIAN.n, length=SMOOTH_GAUSSIAN.length,
            potential=SMOOTH_GAUSSIAN.potential.with_strength(g),
        )
        h, d = build_model(spec)
        exact = principal_sqrt(h @ h)
        errors.append(relative_norm(weak_field_sqrt(d) - exact, exact))
    orders = [
        np.log(errors[i] / errors[i + 1]) / np.log(strengths[i] / strengths[i + 1])
        for i in range(len(strengths) - 1)
    ]
    assert all(order >= 1.8 for order in orders), (errors, orders)
    print(f"[criterion 6] PASS worst collapse {worst_collapse:.3e}; "
          f"errors {['%.3e' % e for e in errors]} -> orders "
          f"{['%.3f' % o for o in orders]}")


def test_criterion_07_spectrum_and_blocks(full_suite, commuting_suite):
    worst_drift = 0.0
    worst_block = 0.0
    for spec, h, _ in full_suite:
        single = eriksen_transform(h)
        polar = eriksen_transform_alt(h)
        multi, _ = stepwise_fw(h, spec.mass)
        for result in (single, polar, multi):
            worst_drift = max(worst_drift, result.diagnostics.spectrum_drift)
            assert result.diagnostics.spectrum_drift <= 1e-10, spec.describe()
        worst_block = max(worst_block, single.diagnostics.block_diagonality)
        assert single.diagnostics.block_diagonality <= 1e-10, spec.describe()

        upper = len(h) // 2
        transformed = single.transformed_hamiltonian
        upper_spectrum = np.linalg.eigvalsh(transformed[:upper, :upper])
        lower_spectrum = np.linalg.eigvalsh(transformed[upper:, upper:])
        assert upper_spectrum.min() > 0.0, spec.describe()
        assert lower_spectrum.max() < 0.0, spec.describe()
    for spec, h, d in commuting_suite:
        closed = u_fw_exact(d)
        worst_drift = max(worst_drift, closed.diagnostics.spectrum_drift)
        assert closed.diagnostics.spectrum_drift <= 1e-10, spec.describe()
    print(f"[criterion 7] PASS worst spectrum drift {worst_drift:.3e}, "
          f"worst block-diagonality {worst_block:.3e}; "
          f"block spectra signed correctly on all gapped models")


def test_criterion_08_exponent_oddness_separation():
    h, _ = build_model(SHARP_GAUSSIAN)
    single = eriksen_transform(h)
    multi, trace = stepwise_fw(h, SHARP_GAUSSIAN.mass)
    odd_single = exponent_oddness(single.transform)
    odd_multi = exponent_oddness(multi.transform)
    assert odd_single <= 1e-10
    assert odd_multi >= 1e2 * odd_single
    # the composite also breaks the adjoint condition it should satisfy
    cond_multi = eriksen_condition_residual(multi.transform)
    assert cond_multi >= 1e2 * eriksen_condition_residual(single.transform)
    print(f"[criterion 8] PASS exponent oddness: one-shot {odd_single:.3e} vs "
          f"composite {odd_multi:.3e} after {len(trace.iterations)} steps "
          f"({trace.stop_reason}); separation factor {odd_multi / odd_single:.1e}")


def test_criterion_09_eigenstate_block_annihilation(full_suite):
    worst = 0.0
    for spec, h, _ in full_suite:
        u = eriksen_transform(h).transform
        w, v = np.linalg.eigh(h)
        rotated = u @ v
        upper = len(h) // 2
        for k in range(len(h)):
            leak = (
                np.linalg.norm(rotated[upper:, k]) if w[k] > 0.0
                else np.linalg.norm(rotated[:upper, k])
            )
            worst = max(worst, leak)
            assert leak <= 1e-10, (spec.describe(), k, w[k])
    print(f"[criterion 9] PASS worst off-block eigenvector leakage {worst:.3e}")


def test_criterion_10_determinism_and_round_trip(tmp_path):
    first = report_json(run_comparison(SHARP_GAUSSIAN))
    second = report_json(run_comparison(SHARP_GAUSSIAN))
    assert first == second

    h, _ = build_model(SHARP_GAUSSIAN)
    path = tmp_path / "model.txt"
    write_matrix(path, h)
    loaded = read_matrix(path)
    assert loaded.tobytes() == h.tobytes()

    tricky = np.array([[complex(-0.0, -0.0), 1.0 + 2.0j],
                       [1.0 - 2.0j, complex(0.0, -0.0)]])
    write_matrix(tmp_path / "tricky.txt", tricky)
    reloaded = read_matrix(tmp_path / "tricky.txt")
    assert reloaded.tobytes() == tricky.tobytes()
    print("[criterion 10] PASS byte-identical reports and bit-exact "
          "matrix round-trips (signed zeros preserved)")
