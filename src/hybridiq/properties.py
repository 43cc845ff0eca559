"""Randomized property suites for the structural laws of the library.

Each suite draws seeded random instances and records, per check, the worst
measured deviation and the number of tolerance violations.  Checks use
independent sub-streams of the master seed (see :func:`hybridiq.rand.seeded_rng`),
so adding a check never perturbs the draws of existing ones.  The batched suites
draw every trial's sizes first, then per qdim one checked stack of states: axioms
and correlations for the segmented probability and Holevo cores, channel in blocks
of TRIAL_BLOCK trials for the stacked apply core.  Channel constructors and the
cross-check oracles stay per trial.  The CLI ``properties`` command and the
acceptance tests both wrap :func:`run_suite`.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import locc as locc_mod
from .channel import (
    _apply_stack, apply, compose, extend_with_ancilla, from_coeff_kernel, non_interacting,
    random_channel,
)
from .classical import MarkovKernel, counting_space
from .correlations import (
    _holevo_segments, _mutual_information_segments, mutual_information_three_term,
)
from .errors import BadEffect, NotAnEnsemble, NotAState, UnknownSuite
from .linalg import (
    densities, entropies, hermitian_part, partial_trace, partial_transpose, relative_entropy,
    require_unit, trace_norm,
)
from .rand import (
    random_complex, random_density, random_effect, random_effects, random_kraus_set,
    random_probability_vector, random_stochastic_matrix, random_unitary, seeded_rng,
)
from .state import (
    HybridState, _distance, _probability_segments, classical_marginal, condition_on_effect,
    distance, embed_quantum, new_state, probability, quantum_marginal, random_state,
    require_effects, tensor_with_quantum,
)

STATES_PER_CHANNEL = 10
# run_channel draws, applies and records its trials in blocks of this many, so
# its memory stays flat in the trial count; a block holds about 50 KiB a trial
TRIAL_BLOCK = 25

PAULI = tuple(np.array(m, dtype=complex) for m in (
    [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))


@dataclass
class CheckResult:
    name: str
    tolerance: float
    trials: int = 0
    violations: int = 0
    max_deviation: float = -math.inf

    def record(self, deviation: float) -> None:
        """Count one trial; a NaN deviation is a violation and sticks as the maximum."""
        self.trials += 1
        if math.isnan(deviation) or deviation > self.max_deviation:
            self.max_deviation = float(deviation)
        if not deviation <= self.tolerance:
            self.violations += 1

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        # a maximum that is not finite is written as null, as validate writes its deviations
        worst = self.max_deviation if math.isfinite(self.max_deviation) else None
        return {**asdict(self), "max_deviation": worst, "ok": self.ok}


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
        return {"suite": self.suite, "trials": self.trials, "seed": self.seed, "ok": self.ok,
                "violations": self.violations, "checks": [c.to_dict() for c in self.checks]}


def _record(checks: list[CheckResult], deviations) -> None:
    """Record each check's per-trial deviations, in trial order."""
    for check, devs in zip(checks, deviations):
        for deviation in devs.tolist():
            check.record(deviation)


def _bounded_effect(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Effect with spectrum in [0.1, 1]; keeps conditioning probabilities away from zero."""
    u = random_unitary(dim, rng)
    return (u * rng.uniform(0.1, 1.0, dim)) @ u.conj().T


def _sized_random_channel(rng, src, dst, q_src: int, q_dst: int):
    # completeness needs total Kraus rank n_dst * branching * q_dst >= q_src
    min_branching = -(-q_src // (dst.size * q_dst))
    return random_channel(src, dst, q_src, q_dst, min_branching + int(rng.integers(0, 3)), rng)


def run_axioms(trials: int, seed: int) -> SuiteReport:
    """Conditions (i)-(iv) on random states, events, and effect decompositions.

    Every trial's sizes are drawn first.  Then, per qdim: one checked state
    stack, one effect stack (a batched QR of a Ginibre stack), the event
    masks, each trial's permutation split as ranks within the trial, and the
    effect decompositions' PSD parts, scaled by one batched eigvalsh of the
    per-trial totals and checked by the effect rule.  All four axioms are
    evaluated through the segmented probability core.
    """
    report = SuiteReport("axioms", trials, seed, [CheckResult(n, tol) for n, tol in (
        ("probability_non_negative", 0.0), ("additivity_disjoint_events", 1e-12),
        ("additivity_effect_decomposition", 1e-10), ("normalization_w_X_I", 1e-9))])
    devs = np.empty((4, trials))

    rng = seeded_rng(seed, "axioms.instances")
    ns, qs, ks = (rng.integers(low, high, trials) for low, high in ((1, 17), (1, 7), (2, 5)))
    for q, idx, masses, _, starts in _groups(rng, qs, ns):
        n, k, trial = ns[idx], ks[idx], np.repeat(np.arange(idx.size), ns[idx])
        w = lambda effects, events: _probability_segments(masses, effects, events, starts)
        effects = random_effects(idx.size, q, rng)
        event = rng.random(trial.size) < 0.5
        # the permutation split a = perm[:cut1], b = perm[cut1:cut2], as ranks within each trial
        ranks = np.empty(trial.size, dtype=int)
        ranks[np.lexsort((rng.random(trial.size), trial))] = np.arange(trial.size) - starts[trial]
        cuts = np.sort(rng.integers(0, n[:, None] + 1, (idx.size, 2)), axis=1)[trial]
        a, b = ranks < cuts[:, 0], (cuts[:, 0] <= ranks) & (ranks < cuts[:, 1])
        g = random_complex(rng, (int(k.sum()), q, q))
        parts = np.zeros((idx.size, int(k.max()), q, q), dtype=complex)
        parts[np.arange(parts.shape[1]) < k[:, None]] = g @ g.conj().transpose(0, 2, 1)
        total = parts.sum(axis=1)
        scale = rng.uniform(0.2, 1.0, k.size) / np.maximum(np.linalg.eigvalsh(total)[:, -1], 1e-12)
        parts *= scale[:, None, None, None]
        total *= scale[:, None, None]
        require_effects(np.concatenate([effects, total, parts.reshape(-1, q, q)]),
                        lambda block, problem: BadEffect(f"drawn effect {block} {problem}"))
        split = rng.random(trial.size) < 0.5

        devs[0, idx] = -w(effects, event)
        devs[1, idx] = np.abs(w(effects, a | b) - w(effects, a) - w(effects, b))
        devs[2, idx] = np.abs(w(total, split) - sum(w(p, split) for p in parts.swapaxes(0, 1)))
        devs[3, idx] = np.abs(w(np.broadcast_to(np.eye(q), effects.shape), trial >= 0) - 1.0)
    _record(report.checks, devs)
    return report


def run_metric(trials: int, seed: int) -> SuiteReport:
    """Metric axioms of d plus the trace-norm isometry of the quantum embedding."""
    report = SuiteReport("metric", trials, seed, [CheckResult(n, tol) for n, tol in (
        ("symmetry_exact", 0.0), ("triangle_inequality", 1e-10), ("bounds_zero_two", 1e-12),
        ("identity_of_indiscernibles", 1e-12), ("embedding_isometry", 1e-10))])
    symmetry, triangle, bounds, self_dist, isometry = report.checks

    rng = seeded_rng(seed, "metric.instances")
    for _ in range(trials):
        n, q = int(rng.integers(1, 7)), int(rng.integers(1, 5))
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


def _apply_oracle(channel, masses: np.ndarray) -> np.ndarray:
    out = np.zeros((channel.dst_space.size, channel.qdim_dst, channel.qdim_dst), dtype=complex)
    for m, n, mat in zip(channel.dst, channel.src, channel.kraus):
        out[m] += mat @ masses[n] @ mat.conj().T
    return out


def _coeffs_from_kraus_sets(rng, n_src: int, n_dst: int) -> np.ndarray:
    """Hermitian PSD qubit coefficients with per-source completeness; PAULI's Gram matrix is 2 I."""
    p = random_stochastic_matrix(n_dst, n_src, rng)
    coeffs = np.zeros((n_dst, n_src, 4, 4), dtype=complex)
    for n in range(n_src):
        kraus = random_kraus_set(2, int(rng.integers(1, 4)), rng)
        expand = np.array([[np.trace(b.conj().T @ k) / 2 for b in PAULI] for k in kraus])
        coeffs[:, n] = p[:, n, None, None] * (expand.T @ expand.conj())
    return coeffs


def _fhs_oracle(basis, coeffs, masses: np.ndarray) -> np.ndarray:
    """sum_n sum_ab k_ab(m, n) L_a sigma_n L_b^dag for every target m, term by term."""
    return sum(coeffs[:, n, a, b, None, None] * (la @ masses[n] @ lb.conj().T)
               for n in range(masses.shape[0])
               for a, la in enumerate(basis) for b, lb in enumerate(basis))


def _blocks(seed: int, stream: str, trials: int):
    """The stream's generator and the size of each block: TRIAL_BLOCK trials, or the rest."""
    rng = seeded_rng(seed, stream)
    for start in range(0, trials, TRIAL_BLOCK):
        yield rng, min(TRIAL_BLOCK, trials - start)


def _drawn_states(rng: np.random.Generator, qs: np.ndarray, sizes: np.ndarray) -> list:
    """Each trial's checked random_state masses, in trial order, drawn by _groups."""
    states = {}
    for _, idx, masses, _, starts in _groups(rng, qs, sizes):
        states.update(zip(idx.tolist(), np.split(masses, starts[1:])))
    return [states[t] for t in range(qs.size)]


def _checked_stacks(stacks: list) -> list:
    """Hermitian parts of (B, n, q, q) mass stacks, in order, after new_state's verdict
    on each of their states: one ``densities`` per q over every stack of that q."""
    out = [None] * len(stacks)
    for q in sorted({x.shape[-1] for x in stacks}):
        idx = [i for i, x in enumerate(stacks) if x.shape[-1] == q]
        cells = np.concatenate([np.full(stacks[i].shape[0], stacks[i].shape[1]) for i in idx])
        masses = densities(np.concatenate([stacks[i].reshape(-1, q, q) for i in idx]),
                           np.cumsum(cells) - cells, _refused_draw)[0]
        bounds = np.cumsum([stacks[i].size // (q * q) for i in idx])[:-1]
        for i, m in zip(idx, np.split(masses, bounds)):
            out[i] = m.reshape(stacks[i].shape)
    return out


def run_channel(trials: int, seed: int) -> SuiteReport:
    """Channel validity, the apply oracle, contraction, linearity, composition,
    and the two constructor cross-checks.

    Each check runs in blocks of TRIAL_BLOCK trials from its own stream.  Per
    block it draws the sizes, builds each trial's channels, draws the states
    as one checked stack per qdim, applies each channel's states in one
    stacked _apply_stack call (a channel's STATES_PER_CHANNEL states and the
    mixture of its first two; the non-interacting check's state and product
    state as a stack of two) and checks the outputs once per qdim.  The
    channel constructors and the triple-loop, double-sum and direct
    non-interacting oracles run per trial.
    """
    report = SuiteReport("channel", trials, seed, [CheckResult(n, tol) for n, tol in (
        ("output_total_trace", 1e-9), ("output_min_eigenvalue", 1e-9),
        ("apply_matches_triple_loop_oracle", 1e-11), ("distance_contraction", 1e-9),
        ("convex_linearity", 1e-11), ("compose_matches_sequential", 1e-10),
        ("composition_associative", 1e-10), ("non_interacting_matches_direct_form", 1e-10),
        ("non_interacting_product_marginals", 1e-11), ("coeff_kernel_matches_double_sum", 1e-10),
        ("pauli_coeff_kernel_equals_non_interacting", 1e-11))])
    (valid_trace, valid_eig, oracle, contraction, convexity, sequential, associativity, indop,
     product_evol, fhs, pauli_case) = report.checks
    k, spaces = STATES_PER_CHANNEL, [None] + [counting_space(n) for n in range(1, 6)]

    for rng, size in _blocks(seed, "channel.apply", trials):
        n_src, n_dst, q_src, q_dst = rng.integers(1, (6, 6, 5, 5), (size, 4)).T.tolist()
        channels = [_sized_random_channel(rng, spaces[a], spaces[b], c, d)
                    for a, b, c, d in zip(n_src, n_dst, q_src, q_dst)]
        states = _drawn_states(rng, np.repeat(q_src, k), np.repeat(n_src, k))
        mixes = rng.uniform(size=size).tolist()
        # each channel's k states and the mixture of its first two, as one stack
        inputs = [np.stack(states[i:i + k] + [t * states[i] + (1.0 - t) * states[i + 1]])
                  for t, i in zip(mixes, range(0, k * size, k))]
        outputs = _checked_stacks([_apply_stack(ch, x) for ch, x in zip(channels, inputs)])
        for ch, t, x, out in zip(channels, mixes, inputs, outputs):
            _record((valid_trace, valid_eig, oracle), (
                np.abs(np.einsum("bnii->b", out[:k]).real - 1.0),
                -np.linalg.eigvalsh(out[:k]).min(axis=(1, 2)),
                np.array([np.abs(y - _apply_oracle(ch, w)).max() for w, y in zip(x, out[:k])])))
            contraction.record(_distance(out[0], out[1]) - _distance(x[0], x[1]))
            convexity.record(float(np.abs(out[k] - (t * out[0] + (1.0 - t) * out[1])).max()))

    for rng, size in _blocks(seed, "channel.compose", trials):
        ns, qs = rng.integers(1, 4, (2, size, 4))
        chains = [[_sized_random_channel(rng, spaces[n[i]], spaces[n[i + 1]], q[i], q[i + 1])
                   for i in range(3)] for n, q in zip(ns.tolist(), qs.tolist())]
        outputs = []
        for (ch1, ch2, ch3), w in zip(chains, _drawn_states(rng, qs[:, 0], ns[:, 0])):
            first, mid = compose(ch2, ch1), _apply_stack(ch1, w[None])
            outputs += [_apply_stack(first, w[None]), mid, _apply_stack(ch2, mid),
                        _apply_stack(compose(ch3, first), w[None]),
                        _apply_stack(compose(compose(ch3, ch2), ch1), w[None])]
        for two, _, seq, left, right in zip(*[iter(_checked_stacks(outputs))] * 5):
            sequential.record(float(np.abs(two - seq).max()))
            associativity.record(float(np.abs(left - right).max()))

    for rng, size in _blocks(seed, "channel.indop", trials):
        n_src, n_dst, qs, counts = rng.integers(1, (6, 6, 5, 4), (size, 4)).T
        kernels = [MarkovKernel(spaces[n], spaces[m], random_stochastic_matrix(m, n, rng))
                   for n, m in zip(n_src.tolist(), n_dst.tolist())]
        kraus_sets = [random_kraus_set(q, c, rng) for q, c in zip(qs.tolist(), counts.tolist())]
        fs = [random_probability_vector(n, rng) for n in n_src.tolist()]
        rhos = [rho[0] for rho in _drawn_states(rng, qs, np.ones(size, dtype=int))]
        # the direct-form state and the product state f (x) rho as one stack of two
        inputs = [np.stack([w, f[:, None, None] * rho])
                  for w, f, rho in zip(_drawn_states(rng, qs, n_src), fs, rhos)]
        outputs = _checked_stacks([_apply_stack(non_interacting(kernel, kraus), x)
                                   for kernel, kraus, x in zip(kernels, kraus_sets, inputs)])
        for kernel, kraus, f, rho, x, out in zip(kernels, kraus_sets, fs, rhos, inputs, outputs):
            direct = sum(kernel.matrix[:, n, None, None] * (mat @ x[0, n] @ mat.conj().T)
                         for n in range(kernel.src.size) for mat in kraus)
            indop.record(float(np.abs(out[0] - direct).max()))
            product = np.multiply.outer(kernel.matrix @ f, sum(a @ rho @ a.conj().T for a in kraus))
            product_evol.record(float(np.abs(out[1] - product).max()))

    for rng, size in _blocks(seed, "channel.fhs", trials):
        sizes = rng.integers(1, 4, (2, size))
        coeffs = [_coeffs_from_kraus_sets(rng, n, m) for n, m in sizes.T.tolist()]
        states = _drawn_states(rng, np.full(size, 2), sizes[0])
        outputs = _checked_stacks([_apply_stack(from_coeff_kernel(
            spaces[len(w)], spaces[len(c)], PAULI, c), w[None]) for c, w in zip(coeffs, states)])
        for c, w, out in zip(coeffs, states, outputs):
            fhs.record(float(np.abs(out[0] - _fhs_oracle(PAULI, c, w)).max()))

    for rng, size in _blocks(seed, "channel.pauli", trials):
        ns = rng.integers(1, 5, size)
        kernels = [random_stochastic_matrix(n, n, rng) for n in ns.tolist()]
        outputs = []
        for p, w in zip(kernels, _drawn_states(rng, np.full(size, 2), ns)):
            space = spaces[p.shape[0]]
            coeffs = np.multiply.outer(p, np.diag([1.0, 0.0, 0.0, 0.0]))  # k_00(m, n) = P(m|n)
            ref = non_interacting(MarkovKernel(space, space, p), [np.eye(2)])
            outputs.append(np.concatenate([_apply_stack(ch, w[None]) for ch in (
                from_coeff_kernel(space, space, PAULI, coeffs), ref)]))
        for out in _checked_stacks(outputs):
            pauli_case.record(float(np.abs(out[0] - out[1]).max()))
    return report


def run_vieq(trials: int, seed: int) -> SuiteReport:
    """Ancilla commuting diagram: condition-then-apply equals extend-then-condition."""
    report = SuiteReport("vieq", trials, seed, [CheckResult(n, tol) for n, tol in (
        ("probability_identity", 1e-9), ("ancilla_marginal_unchanged", 1e-10),
        ("conditioning_roundtrip_identity", 1e-12))])
    diagram, marginal, roundtrip = report.checks

    rng = seeded_rng(seed, "vieq.diagram")
    for _ in range(trials):
        n_src, n_dst = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        d_src, d_dst, d_q = (int(rng.integers(1, 4)) for _ in range(3))
        src, dst = counting_space(n_src), counting_space(n_dst)
        ch = _sized_random_channel(rng, src, dst, d_src, d_dst)
        big = random_state(src, d_src * d_q, rng)
        f = _bounded_effect(d_q, rng)
        e = random_effect(d_dst, rng)
        event = np.flatnonzero(rng.random(n_dst) < 0.5).tolist()

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
        n, q, d_q = (int(rng.integers(1, high)) for high in (5, 4, 4))
        w = random_state(counting_space(n), q, rng)
        lifted = tensor_with_quantum(w, random_density(d_q, rng))
        cond = condition_on_effect(lifted, np.eye(d_q))
        roundtrip.record(float(np.abs(cond.state.masses - w.masses).max()))
        roundtrip.record(abs(cond.prob - 1.0))
    return report


def _refused_draw(index: int, problem: str) -> NotAState:
    """The suites' ``densities`` error: a stacked draw's block, or its state, failed."""
    return NotAState(f"draw {index} {problem}")


def _groups(rng: np.random.Generator, qs: np.ndarray, sizes: np.ndarray):
    """Per drawn qdim q, smallest first: q, the trials that drew it, and their
    random_state(counting_space(n), q) draws, n from ``sizes`` and random_density(q)
    at n = 1, as one checked stack (cells, their spectra, each trial's first cell)."""
    for q in np.unique(qs).tolist():
        idx = np.flatnonzero(qs == q)
        g = random_complex(rng, (int(sizes[idx].sum()), q, q))
        m = g @ g.conj().transpose(0, 2, 1)
        starts = np.cumsum(sizes[idx]) - sizes[idx]
        totals = np.repeat(np.add.reduceat(np.einsum("nii->n", m).real, starts), sizes[idx])
        yield (q, idx, *densities(m / totals[:, None, None], starts, _refused_draw), starts)


def _trial_states(masses, eigs, starts) -> list[HybridState]:
    """One HybridState per trial of a stack that passed new_state's verdict in ``densities``."""
    return [HybridState(counting_space(len(m)), m.shape[1], m, e)
            for m, e in zip(np.split(masses, starts[1:]), np.split(eigs, starts[1:]))]


# The members of each merge trial's five ensembles, as indices into its seven
# densities (rho_a, rho_b, s1, s2): split, merged, (p1, s1), (p2, s2), whole.
MERGE_MEMBERS = np.array([0, 0, 1, 0, 1, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6])
MERGE_STARTS = np.array([0, 3, 5, 7, 10])


def run_correlations(trials: int, seed: int) -> SuiteReport:
    """Mutual information: product states, bounds, monotonicity, cross-formulas.

    Every trial's sizes are drawn first, then one checked state stack per
    qdim, evaluated through the segmented Holevo and mutual-information cores.
    ``non_interacting`` and the cross-check oracles run per trial; the
    monotonicity check applies each trial's channel with _apply_stack and
    checks each qdim's outputs once.
    """
    report = SuiteReport("correlations", trials, seed, [CheckResult(n, tol) for n, tol in (
        ("product_state_zero_information", 1e-10), ("araki_lieb_bound", 1e-9),
        ("monotonic_under_non_interacting", 1e-8), ("equals_relative_entropy_identity", 1e-8),
        ("equals_three_term_formula", 1e-9), ("holevo_merge_invariance", 1e-10),
        ("holevo_concavity", 1e-9))])

    slow_trials = min(trials, 300)
    araki_dev, monotone_dev = np.empty((2, trials))
    product_dev, embed_dev, three_dev, merge_dev, concavity_dev = np.empty((5, slow_trials))

    rng = seeded_rng(seed, "correlations.araki")
    ns, qs = rng.integers(1, 9, trials), rng.integers(1, 7, trials)
    for q, idx, masses, eigs, starts in _groups(rng, qs, ns):
        spectra = densities(np.add.reduceat(masses, starts), np.arange(idx.size), _refused_draw)[1]
        bound = 2.0 * np.maximum(entropies(spectra), 0.0)
        araki_dev[idx] = _mutual_information_segments(masses, eigs, starts) - bound

    rng = seeded_rng(seed, "correlations.monotonicity")
    n_src, n_dst, qs = (rng.integers(1, high, trials) for high in (9, 9, 7))
    for q, idx, masses, eigs, starts in _groups(rng, qs, n_src):
        outputs = []
        for n, m in zip(n_dst[idx].tolist(), np.split(masses, starts[1:])):
            p = random_stochastic_matrix(n, len(m), rng)
            ch = non_interacting(MarkovKernel(counting_space(len(m)), counting_space(n), p),
                                 random_kraus_set(q, int(rng.integers(1, 4)), rng))
            outputs.append(_apply_stack(ch, m[None])[0])
        dst_starts = np.cumsum(n_dst[idx]) - n_dst[idx]
        outputs = densities(np.concatenate(outputs), dst_starts, _refused_draw)
        after = _mutual_information_segments(*outputs, dst_starts)
        monotone_dev[idx] = after - _mutual_information_segments(masses, eigs, starts)

    rng = seeded_rng(seed, "correlations.product")
    ns, qs = rng.integers(1, 9, slow_trials), rng.integers(1, 7, slow_trials)
    for q, idx, rho, _, _ in _groups(rng, qs, np.ones(slow_trials, dtype=int)):
        starts = np.cumsum(ns[idx]) - ns[idx]
        f = rng.uniform(0.1, 1.0, int(ns[idx].sum()))
        f /= np.repeat(np.add.reduceat(f, starts), ns[idx])
        masses = f[:, None, None] * np.repeat(rho, ns[idx], axis=0)
        masses, eigs = densities(masses, starts, _refused_draw)
        product_dev[idx] = _mutual_information_segments(masses, eigs, starts)

    rng = seeded_rng(seed, "correlations.identity")
    ns, qs = rng.integers(1, 5, slow_trials), rng.integers(2, 5, slow_trials)
    for q, idx, masses, eigs, starts in _groups(rng, qs, ns):
        mi = _mutual_information_segments(masses, eigs, starts).tolist()
        for t, w, value in zip(idx, _trial_states(masses, eigs, starts), mi):
            reference = np.kron(quantum_marginal(w), np.diag(classical_marginal(w).masses))
            embed_dev[t] = abs(value - relative_entropy(embed_quantum(w), reference))
            three_dev[t] = abs(value - mutual_information_three_term(w))

    rng = seeded_rng(seed, "correlations.merge")
    qs = np.repeat(rng.integers(2, 5, slow_trials), 7)  # seven densities per trial
    for q, idx, rho, eigs, _ in _groups(rng, qs, np.ones(qs.size, dtype=int)):
        idx, size = idx[::7] // 7, idx.size // 7
        p, p1, p2 = (u / u.sum(axis=1, keepdims=True)
                     for u in np.split(rng.uniform(0.1, 1.0, (size, 8)), [3, 5], axis=1))
        t = rng.uniform(size=(size, 1))
        weights = np.hstack([p, p[:, :2].sum(axis=1, keepdims=True), p[:, 2:], p1, p2,
                             t * p1, (1 - t) * p2]).ravel()
        starts = (MERGE_STARTS + MERGE_MEMBERS.size * np.arange(size)[:, None]).ravel()
        require_unit(np.add.reduceat(weights, starts),
                     lambda ensemble, problem: NotAnEnsemble(f"ensemble {ensemble} {problem}"))
        members = (MERGE_MEMBERS + 7 * np.arange(size)[:, None]).ravel()
        chi = _holevo_segments(weights, weights[:, None, None] * rho[members], eigs[members],
                               starts).reshape(size, 5)
        merge_dev[idx] = np.abs(chi[:, 0] - chi[:, 1])
        concavity_dev[idx] = t[:, 0] * chi[:, 2] + (1 - t[:, 0]) * chi[:, 3] - chi[:, 4]

    _record(report.checks, (product_dev, araki_dev, monotone_dev, embed_dev, three_dev, merge_dev,
                            concavity_dev))
    return report


def _random_protocol(rng: np.random.Generator, dims=(2, 2)):
    n_rounds = int(rng.integers(1, 4))
    outcome_counts = [int(rng.integers(1, 3)) for _ in range(n_rounds)]
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


def _locc_oracle(protocol, rho) -> dict:
    """W rho W^dag per complete record, W accumulated round by round on the full space."""
    d1, d2 = protocol.dims
    out = {}
    for record in itertools.product(*(range(1, rnd.outcomes + 1) for rnd in protocol.rounds)):
        w = np.eye(d1 * d2, dtype=complex)
        for r, rnd in enumerate(protocol.rounds):
            v = rnd.instrument[record[:r]][record[r] - 1]
            w = (np.kron(v, np.eye(d2)) if rnd.side == 1 else np.kron(np.eye(d1), v)) @ w
        out[record] = w @ rho @ w.conj().T
    return out


def run_locc(trials: int, seed: int) -> SuiteReport:
    """Protocol execution laws, the per-round channel lowering, PPT, steering."""
    report = SuiteReport("locc", trials, seed, [CheckResult(n, tol) for n, tol in (
        ("run_total_trace", 1e-9), ("run_min_eigenvalue", 1e-9), ("w_operators_factor", 1e-12),
        ("round_channels_match_run", 1e-10), ("ppt_preserved_on_separable", 1e-9),
        ("steering_reaches_target", 1e-9))])
    run_trace, run_eig, w_structure, channels_match, ppt_preserved, steer_target = report.checks

    few_trials = max(1, trials // 10)

    rng = seeded_rng(seed, "locc.protocols")
    for _ in range(few_trials):
        # unequal sides catch a d1/d2 mix-up that a square system hides
        d1, d2 = ((2, 2), (2, 3), (3, 2))[int(rng.integers(3))]
        proto = _random_protocol(rng, dims=(d1, d2))
        rho = random_density(d1 * d2, rng)
        state, lam = locc_mod.run(proto, rho)
        oracle = _locc_oracle(proto, rho)
        run_trace.record(abs(np.trace(lam).real - 1.0))
        run_eig.record(-float(np.linalg.eigvalsh(hermitian_part(lam))[0]))
        for rec, mass in zip(state.space.labels, state.masses):
            w_structure.record(float(np.abs(mass - oracle[rec]).max()))
        evolved = locc_mod.initial_record_state(proto, rho)
        for ch in locc_mod.as_hybrid_channels(proto):
            evolved = apply(ch, evolved)
        # the last round's target is run's space of complete records, cell for cell
        same = evolved.space.labels == state.space.labels
        channels_match.record(np.abs(evolved.masses - state.masses).max() if same else math.inf)

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
        pt = partial_transpose(hermitian_part(lam), 2, 2, "B")
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
