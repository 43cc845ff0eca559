"""Randomized property suites for the structural laws of the library.

Each suite draws seeded random instances and records, per check, the worst
measured deviation and the number of tolerance violations.  Checks use
independent sub-streams of the master seed (see :func:`hybridiq.rand.seeded_rng`),
so adding a check never perturbs the draws of existing ones.  The CLI
``properties`` command and the acceptance tests are both thin wrappers around
:func:`run_suite`.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import locc as locc_mod
from .channel import (
    apply,
    compose,
    extend_with_ancilla,
    from_coeff_kernel,
    non_interacting,
    random_channel,
)
from .classical import MarkovKernel, counting_space
from .correlations import (
    Ensemble,
    holevo,
    mutual_information,
    mutual_information_three_term,
)
from .errors import UnknownSuite
from .linalg import (
    partial_trace,
    partial_transpose,
    relative_entropy,
    trace_norm,
    von_neumann_entropy,
)
from .rand import (
    random_complex,
    random_density,
    random_effect,
    random_kraus_set,
    random_probability_vector,
    random_psd,
    random_stochastic_matrix,
    random_unitary,
    seeded_rng,
)
from .state import (
    classical_marginal,
    condition_on_effect,
    distance,
    embed_quantum,
    mix,
    new_state,
    probability,
    product_state,
    quantum_marginal,
    random_state,
    tensor_with_quantum,
)

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1j], [1j, 0.0]]),
    np.diag([1.0, -1.0]).astype(complex),
)


@dataclass
class CheckResult:
    name: str
    tolerance: float
    trials: int = 0
    violations: int = 0
    max_deviation: float = -math.inf

    def record(self, deviation: float) -> None:
        self.trials += 1
        self.max_deviation = max(self.max_deviation, float(deviation))
        if deviation > self.tolerance:
            self.violations += 1

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tolerance": self.tolerance,
            "trials": self.trials,
            "violations": self.violations,
            "max_deviation": self.max_deviation,
            "ok": self.ok,
        }


@dataclass
class SuiteReport:
    suite: str
    trials: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0  # not in to_dict, so identical runs write identical reports

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def violations(self) -> int:
        return sum(c.violations for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "ok": self.ok,
            "violations": self.violations,
            "checks": [c.to_dict() for c in self.checks],
        }


def _random_event(rng: np.random.Generator, n_cells: int) -> list[int]:
    mask = rng.random(n_cells) < 0.5
    return [int(i) for i in np.nonzero(mask)[0]]


def _bounded_effect(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Effect with spectrum in [0.1, 1]; keeps conditioning probabilities away from zero."""
    u = random_unitary(dim, rng)
    return (u * rng.uniform(0.1, 1.0, dim)) @ u.conj().T


def _sized_random_channel(rng, src, dst, q_src: int, q_dst: int):
    # completeness needs total Kraus rank n_dst * branching * q_dst >= q_src
    min_branching = -(-q_src // (dst.size * q_dst))
    return random_channel(src, dst, q_src, q_dst, min_branching + int(rng.integers(0, 3)), rng)


def run_axioms(trials: int, seed: int) -> SuiteReport:
    """Conditions (i)-(iv) on random states, events, and effect decompositions."""
    report = SuiteReport("axioms", trials, seed)
    nonneg = CheckResult("probability_non_negative", 0.0)
    add_events = CheckResult("additivity_disjoint_events", 1e-12)
    add_effects = CheckResult("additivity_effect_decomposition", 1e-10)
    normalization = CheckResult("normalization_w_X_I", 1e-9)
    report.checks += [nonneg, add_events, add_effects, normalization]

    rng = seeded_rng(seed, "axioms.instances")
    for _ in range(trials):
        n = int(rng.integers(1, 17))
        q = int(rng.integers(1, 7))
        w = random_state(counting_space(n), q, rng)
        e = random_effect(q, rng)

        nonneg.record(-probability(w, _random_event(rng, n), e))

        perm = rng.permutation(n)
        cut1, cut2 = sorted(rng.integers(0, n + 1, size=2))
        a, b = perm[:cut1].tolist(), perm[cut1:cut2].tolist()
        lhs = probability(w, a + b, e)
        add_events.record(abs(lhs - probability(w, a, e) - probability(w, b, e)))

        k = int(rng.integers(2, 5))
        parts = [random_psd(q, rng) for _ in range(k)]
        total = sum(parts)
        scale = rng.uniform(0.2, 1.0) / max(float(np.linalg.eigvalsh(total)[-1]), 1e-12)
        parts = [scale * p for p in parts]
        event = _random_event(rng, n)
        lhs = probability(w, event, scale * total)
        rhs = sum(probability(w, event, p) for p in parts)
        add_effects.record(abs(lhs - rhs))

        normalization.record(abs(probability(w, range(n), np.eye(q)) - 1.0))
    return report


def run_metric(trials: int, seed: int) -> SuiteReport:
    """Metric axioms of d plus the trace-norm isometry of the quantum embedding."""
    report = SuiteReport("metric", trials, seed)
    symmetry = CheckResult("symmetry_exact", 0.0)
    triangle = CheckResult("triangle_inequality", 1e-10)
    bounds = CheckResult("bounds_zero_two", 1e-12)
    self_dist = CheckResult("identity_of_indiscernibles", 1e-12)
    isometry = CheckResult("embedding_isometry", 1e-10)
    report.checks += [symmetry, triangle, bounds, self_dist, isometry]

    rng = seeded_rng(seed, "metric.instances")
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        q = int(rng.integers(1, 5))
        space = counting_space(n)
        w1, w2, w3 = (random_state(space, q, rng) for _ in range(3))

        d12, d21 = distance(w1, w2), distance(w2, w1)
        symmetry.record(abs(d12 - d21))
        triangle.record(distance(w1, w3) - d12 - distance(w2, w3))
        bounds.record(max(-d12, d12 - 2.0))
        self_dist.record(distance(w1, w1))

        perturbed = new_state(space, w1.masses + 1e-15 * np.eye(q))
        self_dist.record(distance(w1, perturbed))

        emb = trace_norm(embed_quantum(w1) - embed_quantum(w2))
        isometry.record(abs(emb - d12))
    return report


def _apply_oracle(channel, state) -> np.ndarray:
    out = np.zeros((channel.dst_space.size, channel.qdim_dst, channel.qdim_dst), dtype=complex)
    for (m, n), stack in channel.blocks.items():
        for mat in stack:
            out[m] += mat @ state.masses[n] @ mat.conj().T
    return out


def _coeffs_from_kraus_sets(rng, n_src: int, n_dst: int) -> np.ndarray:
    """Hermitian PSD qubit coefficient tensors with per-source completeness."""
    gram_inv = np.linalg.inv(
        np.array([[np.trace(a.conj().T @ b) for b in PAULI] for a in PAULI])
    )
    p = random_stochastic_matrix(n_dst, n_src, rng)
    coeffs = np.zeros((n_dst, n_src, 4, 4), dtype=complex)
    for n in range(n_src):
        kraus = random_kraus_set(2, int(rng.integers(1, 4)), rng)
        proj = np.array([[np.trace(b.conj().T @ k) for b in PAULI] for k in kraus])
        expand = proj @ gram_inv.T
        s = expand.T @ expand.conj()
        coeffs[:, n] = p[:, n, None, None] * s
    return coeffs


def _fhs_oracle(basis, coeffs, state, n_dst: int) -> np.ndarray:
    q = basis[0].shape[0]
    out = np.zeros((n_dst, q, q), dtype=complex)
    for m in range(n_dst):
        for n in range(state.space.size):
            for a, la in enumerate(basis):
                for b, lb in enumerate(basis):
                    out[m] += coeffs[m, n, a, b] * (la @ state.masses[n] @ lb.conj().T)
    return out


def run_channel(trials: int, seed: int, states_per_channel: int = 10) -> SuiteReport:
    """Channel validity, the apply oracle, contraction, linearity, composition,
    and the two constructor cross-checks."""
    report = SuiteReport("channel", trials, seed)
    valid_trace = CheckResult("output_total_trace", 1e-9)
    valid_eig = CheckResult("output_min_eigenvalue", 1e-9)
    oracle = CheckResult("apply_matches_triple_loop_oracle", 1e-11)
    contraction = CheckResult("distance_contraction", 1e-9)
    convexity = CheckResult("convex_linearity", 1e-11)
    sequential = CheckResult("compose_matches_sequential", 1e-10)
    associativity = CheckResult("composition_associative", 1e-10)
    indop = CheckResult("non_interacting_matches_direct_form", 1e-10)
    product_evol = CheckResult("non_interacting_product_marginals", 1e-11)
    fhs = CheckResult("coeff_kernel_matches_double_sum", 1e-10)
    pauli_case = CheckResult("pauli_coeff_kernel_equals_non_interacting", 1e-11)
    report.checks += [
        valid_trace, valid_eig, oracle, contraction, convexity,
        sequential, associativity, indop, product_evol, fhs, pauli_case,
    ]

    rng = seeded_rng(seed, "channel.apply")
    for _ in range(trials):
        n_src, n_dst = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        q_src, q_dst = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        src, dst = counting_space(n_src), counting_space(n_dst)
        ch = _sized_random_channel(rng, src, dst, q_src, q_dst)
        states = [random_state(src, q_src, rng) for _ in range(states_per_channel)]
        outputs = []
        for w in states:
            out = apply(ch, w)
            outputs.append(out)
            valid_trace.record(abs(np.einsum("nii->", out.masses).real - 1.0))
            valid_eig.record(-float(np.linalg.eigvalsh(out.masses).min()))
            oracle.record(float(np.abs(out.masses - _apply_oracle(ch, w)).max()))
        w1, w2 = states[0], states[1 % len(states)]
        contraction.record(distance(outputs[0], outputs[1 % len(states)]) - distance(w1, w2))
        t = float(rng.uniform())
        mixed_out = apply(ch, mix(w1, w2, t))
        straight = t * outputs[0].masses + (1.0 - t) * outputs[1 % len(states)].masses
        convexity.record(float(np.abs(mixed_out.masses - straight).max()))

    rng = seeded_rng(seed, "channel.compose")
    for _ in range(trials):
        n1, n2, n3, n4 = (int(rng.integers(1, 4)) for _ in range(4))
        q1, q2, q3, q4 = (int(rng.integers(1, 4)) for _ in range(4))
        spaces = [counting_space(n) for n in (n1, n2, n3, n4)]
        ch1 = _sized_random_channel(rng, spaces[0], spaces[1], q1, q2)
        ch2 = _sized_random_channel(rng, spaces[1], spaces[2], q2, q3)
        ch3 = _sized_random_channel(rng, spaces[2], spaces[3], q3, q4)
        w = random_state(spaces[0], q1, rng)
        two = apply(compose(ch2, ch1), w)
        sequential.record(float(np.abs(two.masses - apply(ch2, apply(ch1, w)).masses).max()))
        left = apply(compose(ch3, compose(ch2, ch1)), w)
        right = apply(compose(compose(ch3, ch2), ch1), w)
        associativity.record(float(np.abs(left.masses - right.masses).max()))

    rng = seeded_rng(seed, "channel.indop")
    for _ in range(trials):
        n_src, n_dst = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        q = int(rng.integers(1, 5))
        src, dst = counting_space(n_src), counting_space(n_dst)
        kernel = MarkovKernel(src, dst, random_stochastic_matrix(n_dst, n_src, rng))
        kraus = random_kraus_set(q, int(rng.integers(1, 4)), rng)
        ch = non_interacting(kernel, kraus)

        w = random_state(src, q, rng)
        direct = np.zeros((n_dst, q, q), dtype=complex)
        for m in range(n_dst):
            for n2 in range(n_src):
                for mat in kraus:
                    direct[m] += kernel.matrix[m, n2] * (mat @ w.masses[n2] @ mat.conj().T)
        indop.record(float(np.abs(apply(ch, w).masses - direct).max()))

        f = random_probability_vector(n_src, rng)
        rho = random_density(q, rng)
        out = apply(ch, product_state(src, f, rho))
        f_exp = kernel.matrix @ f
        rho_exp = sum(L @ rho @ L.conj().T for L in kraus)
        product_evol.record(float(np.abs(out.masses - f_exp[:, None, None] * rho_exp).max()))

    rng = seeded_rng(seed, "channel.fhs")
    for _ in range(trials):
        n_src, n_dst = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        src, dst = counting_space(n_src), counting_space(n_dst)
        coeffs = _coeffs_from_kraus_sets(rng, n_src, n_dst)
        ch = from_coeff_kernel(src, dst, PAULI, coeffs)
        w = random_state(src, 2, rng)
        fhs.record(float(np.abs(apply(ch, w).masses - _fhs_oracle(PAULI, coeffs, w, n_dst)).max()))

    rng = seeded_rng(seed, "channel.pauli")
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        space = counting_space(n)
        p = random_stochastic_matrix(n, n, rng)
        coeffs = np.zeros((n, n, 4, 4), dtype=complex)
        coeffs[:, :, 0, 0] = p
        ch = from_coeff_kernel(space, space, PAULI, coeffs)
        ref = non_interacting(MarkovKernel(space, space, p), [np.eye(2)])
        w = random_state(space, 2, rng)
        pauli_case.record(float(np.abs(apply(ch, w).masses - apply(ref, w).masses).max()))
    return report


def run_vieq(trials: int, seed: int) -> SuiteReport:
    """Ancilla commuting diagram: condition-then-apply equals extend-then-condition."""
    report = SuiteReport("vieq", trials, seed)
    diagram = CheckResult("probability_identity", 1e-9)
    marginal = CheckResult("ancilla_marginal_unchanged", 1e-10)
    roundtrip = CheckResult("conditioning_roundtrip_identity", 1e-12)
    report.checks += [diagram, marginal, roundtrip]

    rng = seeded_rng(seed, "vieq.diagram")
    for _ in range(trials):
        n_src, n_dst = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        d_src, d_dst = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        d_q = int(rng.integers(1, 4))
        src, dst = counting_space(n_src), counting_space(n_dst)
        ch = _sized_random_channel(rng, src, dst, d_src, d_dst)
        big = random_state(src, d_src * d_q, rng)
        f = _bounded_effect(d_q, rng)
        e = random_effect(d_dst, rng)
        event = _random_event(rng, n_dst)

        prob_f = probability(big, range(n_src), np.kron(np.eye(d_src), f))
        cond = condition_on_effect(big, f)
        rhs = prob_f * probability(apply(ch, cond.state), event, e)
        extended = extend_with_ancilla(ch, d_q)
        evolved = apply(extended, big)
        lhs = probability(evolved, event, np.kron(e, f))
        diagram.record(abs(lhs - rhs))

        before = sum(partial_trace(m, d_src, d_q, "A") for m in big.masses)
        after = sum(partial_trace(m, d_dst, d_q, "A") for m in evolved.masses)
        marginal.record(float(np.abs(before - after).max()))

    rng = seeded_rng(seed, "vieq.roundtrip")
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(1, 4))
        d_q = int(rng.integers(1, 4))
        w = random_state(counting_space(n), q, rng)
        lifted = tensor_with_quantum(w, random_density(d_q, rng))
        cond = condition_on_effect(lifted, np.eye(d_q))
        roundtrip.record(float(np.abs(cond.state.masses - w.masses).max()))
        roundtrip.record(abs(cond.prob - 1.0))
    return report


def run_correlations(trials: int, seed: int) -> SuiteReport:
    """Mutual information: product states, bounds, monotonicity, cross-formulas."""
    report = SuiteReport("correlations", trials, seed)
    product_zero = CheckResult("product_state_zero_information", 1e-10)
    araki = CheckResult("araki_lieb_bound", 1e-9)
    monotone = CheckResult("monotonic_under_non_interacting", 1e-8)
    embed_identity = CheckResult("equals_relative_entropy_identity", 1e-8)
    three_term = CheckResult("equals_three_term_formula", 1e-9)
    merge = CheckResult("holevo_merge_invariance", 1e-10)
    concavity = CheckResult("holevo_concavity", 1e-9)
    report.checks += [product_zero, araki, monotone, embed_identity, three_term, merge, concavity]

    slow_trials = min(trials, 300)

    rng = seeded_rng(seed, "correlations.araki")
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        q = int(rng.integers(1, 7))
        w = random_state(counting_space(n), q, rng)
        bound = 2.0 * von_neumann_entropy(quantum_marginal(w))
        araki.record(mutual_information(w) - bound)

    rng = seeded_rng(seed, "correlations.monotonicity")
    for _ in range(trials):
        n_src, n_dst = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        q = int(rng.integers(1, 7))
        src, dst = counting_space(n_src), counting_space(n_dst)
        kernel = MarkovKernel(src, dst, random_stochastic_matrix(n_dst, n_src, rng))
        ch = non_interacting(kernel, random_kraus_set(q, int(rng.integers(1, 4)), rng))
        w = random_state(src, q, rng)
        monotone.record(mutual_information(apply(ch, w)) - mutual_information(w))

    rng = seeded_rng(seed, "correlations.product")
    for _ in range(slow_trials):
        n = int(rng.integers(1, 9))
        q = int(rng.integers(1, 7))
        space = counting_space(n)
        w = product_state(space, random_probability_vector(n, rng), random_density(q, rng))
        product_zero.record(mutual_information(w))

    rng = seeded_rng(seed, "correlations.identity")
    for _ in range(slow_trials):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(2, 5))
        w = random_state(counting_space(n), q, rng)
        mi = mutual_information(w)
        p = classical_marginal(w).masses
        reference = np.kron(quantum_marginal(w), np.diag(p))
        embed_identity.record(abs(mi - relative_entropy(embed_quantum(w), reference)))
        three_term.record(abs(mi - mutual_information_three_term(w)))

    rng = seeded_rng(seed, "correlations.merge")
    for _ in range(slow_trials):
        q = int(rng.integers(2, 5))
        rho_a, rho_b = random_density(q, rng), random_density(q, rng)
        p = random_probability_vector(3, rng)
        split = Ensemble(p, np.stack([rho_a, rho_a, rho_b]))
        merged = Ensemble(np.array([p[0] + p[1], p[2]]), np.stack([rho_a, rho_b]))
        merge.record(abs(holevo(split) - holevo(merged)))

        p1 = random_probability_vector(2, rng)
        p2 = random_probability_vector(3, rng)
        s1 = np.stack([random_density(q, rng) for _ in range(2)])
        s2 = np.stack([random_density(q, rng) for _ in range(3)])
        t = float(rng.uniform())
        whole = Ensemble(np.concatenate([t * p1, (1 - t) * p2]), np.concatenate([s1, s2]))
        parts = t * holevo(Ensemble(p1, s1)) + (1 - t) * holevo(Ensemble(p2, s2))
        concavity.record(parts - holevo(whole))
    return report


def _random_protocol(rng: np.random.Generator, dims=(2, 2), max_rounds: int = 3, max_outcomes: int = 2):
    n_rounds = int(rng.integers(1, max_rounds + 1))
    outcome_counts = [int(rng.integers(1, max_outcomes + 1)) for _ in range(n_rounds)]
    rounds = []
    for r in range(n_rounds):
        side = 1 if r % 2 == 0 else 2
        d_side = dims[side - 1]
        instrument = {
            history: random_kraus_set(d_side, outcome_counts[r], rng)
            for history in itertools.product(
                *(range(1, outcome_counts[s] + 1) for s in range(r))
            )
        }
        rounds.append(locc_mod.LoccRound(outcome_counts[r], instrument, side))
    return locc_mod.LoccProtocol(dims, tuple(rounds))


def run_locc(trials: int, seed: int) -> SuiteReport:
    """Protocol execution laws, the per-round channel lowering, PPT, steering."""
    report = SuiteReport("locc", trials, seed)
    run_trace = CheckResult("run_total_trace", 1e-9)
    run_eig = CheckResult("run_min_eigenvalue", 1e-9)
    w_structure = CheckResult("w_operators_factor", 1e-12)
    channels_match = CheckResult("round_channels_match_run", 1e-10)
    ppt_preserved = CheckResult("ppt_preserved_on_separable", 1e-9)
    steer_target = CheckResult("steering_reaches_target", 1e-9)
    report.checks += [run_trace, run_eig, w_structure, channels_match, ppt_preserved, steer_target]

    few_trials = max(1, trials // 10)

    rng = seeded_rng(seed, "locc.protocols")
    for _ in range(few_trials):
        proto = _random_protocol(rng)
        rho = random_density(4, rng)
        state, lam = locc_mod.run(proto, rho)
        run_trace.record(abs(np.trace(lam).real - 1.0))
        run_eig.record(-float(np.linalg.eigvalsh((lam + lam.conj().T) / 2)[0]))
        for branch in locc_mod.branch_operators(proto, rho):
            w_structure.record(
                float(np.abs(branch.w - np.kron(branch.w_side1, branch.w_side2)).max())
            )
        evolved = locc_mod.initial_record_state(proto, rho)
        for ch in locc_mod.as_hybrid_channels(proto):
            evolved = apply(ch, evolved)
        by_record = dict(zip(evolved.space.labels, evolved.masses))
        worst = 0.0
        for rec, mass in zip(state.space.labels, state.masses):
            worst = max(worst, float(np.abs(by_record[rec] - mass).max()))
        for rec, mass in by_record.items():
            if any(x == 0 for x in rec):
                worst = max(worst, float(np.abs(mass).max()))
        channels_match.record(worst)

    rng = seeded_rng(seed, "locc.ppt")
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        space = counting_space(n)
        rho = locc_mod.separable_from_ensemble(
            space,
            random_probability_vector(n, rng),
            [random_density(2, rng) for _ in range(n)],
            [random_density(2, rng) for _ in range(n)],
        )
        proto = _random_protocol(rng)
        _, lam = locc_mod.run(proto, rho)
        pt = partial_transpose((lam + lam.conj().T) / 2, 2, 2, "B")
        ppt_preserved.record(-float(np.linalg.eigvalsh(pt)[0]))

    rng = seeded_rng(seed, "locc.steer")
    for _ in range(few_trials):
        n = int(rng.integers(1, 9))
        space = counting_space(n)
        f = random_probability_vector(n, rng)
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        eta1 = [random_density(d1, rng) for _ in range(n)]
        eta2 = [random_density(d2, rng) for _ in range(n)]
        script = locc_mod.steer_to_separable(space, f, eta1, eta2)
        final = locc_mod.run_steering(script, random_density(d1 * d2, rng))
        steer_target.record(float(np.abs(quantum_marginal(final) - script.target).max()))
    return report


SUITES = {
    "axioms": run_axioms,
    "metric": run_metric,
    "channel": run_channel,
    "vieq": run_vieq,
    "correlations": run_correlations,
    "locc": run_locc,
}


def run_suite(name: str, trials: int, seed: int) -> SuiteReport:
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    start = time.perf_counter()
    report = SUITES[name](trials, seed)
    report.elapsed_seconds = time.perf_counter() - start
    return report
