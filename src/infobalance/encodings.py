"""Classical encodings and the Holevo-bound interpretation of the gain.

Any way of splitting the input state into letter contributions
``rho = sum_x rho_x`` can be produced by measuring a POVM on the purifying
reference.  The classical mutual information between the letters and the
measurement outcomes never exceeds the information gain; this module builds
such encodings, the joint input-output distribution (through two routes),
and a randomized sweep that probes the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDistribution,
    DimensionMismatch,
    DimensionTooSmall,
    NumericalInconsistency,
    ParseError,
)
from .measures import information_gain
from .objects import (
    PROB_EPS,
    Instrument,
    Povm,
    PurifiedInput,
    _check_factored_povm,
    _lowest_eigenvalues,
    _rank1_sum,
    check_povm,
    require_valid,
)
from .tensors import _hermitian

#: slack allowed when comparing classical mutual information against iota
HOLEVO_ATOL = 1e-9
#: bytes of the reference POVM factors (weights, vectors and deficit) that
#: holevo_check scores at once; the result does not depend on it
_BLOCK_BYTES = 1 << 18
#: numpy's SeedSequence hash constants and PCG64's LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT, _MASK128 = (2549297995355413924 << 64) + 4865540595714422341, (1 << 128) - 1


@dataclass(frozen=True, eq=False)
class Encoding:
    """Letter decomposition of the input state induced by a reference POVM.

    ``parts[i]`` is the subnormalized contribution of the letter
    ``reference_povm.labels[i]``; the parts sum to the encoded state.
    """

    reference_povm: Povm
    parts: tuple[np.ndarray, ...]


def ensemble_from_reference_povm(inp: PurifiedInput, povm_r: Povm) -> Encoding:
    """Letter states rho_x = Tr_R[(P_x ⊗ 1) Psi], subnormalized."""
    check_povm(povm_r)
    if povm_r.d != inp.r_dim:
        raise DimensionMismatch(
            f"reference POVM dimension {povm_r.d} != purification r_dim {inp.r_dim}"
        )
    parts = _letter_parts(inp, np.stack([m for _, m in povm_r.elements]))
    return Encoding(povm_r, tuple(parts))


def _letter_parts(inp: PurifiedInput, stack: np.ndarray) -> np.ndarray:
    """Letter states (psi† P_x psi)ᵀ of reference POVMs stacked as (..., x, r, r).

    Raises unless the letters of each POVM sum to the input state; the
    message gives the largest deviation.
    """
    psi = inp.psi_matrix
    parts = _hermitian((psi.conj().T @ stack @ psi).swapaxes(-1, -2))
    _check_letter_sum(parts.sum(axis=-3), inp.rho.matrix)
    return parts


def _check_letter_sum(total: np.ndarray, rho: np.ndarray) -> None:
    """Raise unless the letter states summed to ``total`` (..., d, d) give
    the input state ``rho``; NaN fails."""
    dev = float(np.max(np.abs(total - rho)))
    if not dev <= 1e-9:
        raise NumericalInconsistency(
            f"letter states do not sum to the input state: max dev {dev:.3e}"
        )


def joint_distribution(enc: Encoding, instr: Instrument) -> np.ndarray:
    """p(x, m) = Tr[E_m(rho_x)] as an (alphabet x outcomes) array."""
    require_valid(instr)
    d = instr.d_in
    for part in enc.parts:
        if part.shape != (d, d):
            raise DimensionMismatch(f"letter state shape {part.shape} != ({d}, {d})")
    return _check_joint(_trace_products(np.stack(enc.parts), instr.povm_elements))


def _trace_products(parts: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """p(x, m) = Tr(rho_x P_m) for letter states (..., x, d, d) and POVM elements (m, d, d)."""
    d = elements.shape[-1]
    flat_parts = parts.reshape(parts.shape[:-2] + (d * d,))
    # Tr(A B) = vec(A) . vec(Bᵀ)
    return (flat_parts @ elements.swapaxes(-1, -2).reshape(-1, d * d).T).real


def _check_joint(joint: np.ndarray) -> np.ndarray:
    """``joint`` (..., x, m), after raising unless each table sums to 1 with
    no cell below -1e-9 and none NaN; the message gives the sum furthest
    from 1 and the lowest cell."""
    totals = joint.sum(axis=(-2, -1)).ravel()
    total = float(totals[np.argmax(np.abs(totals - 1.0))])
    if not (abs(total - 1.0) <= 1e-9 and float(joint.min()) >= -1e-9):
        raise NumericalInconsistency(
            f"joint distribution malformed: sum = {total}, min = {joint.min():.3e}"
        )
    return joint


def classical_mutual_information(joint) -> float:
    """I(X:M) in bits of a joint probability table; cells at or below
    PROB_EPS (1e-12) are skipped."""
    p = np.asarray(joint, dtype=float)
    if p.ndim != 2:
        raise BadDistribution(f"joint table must be 2-D, got shape {p.shape}")
    # both tests are written so that NaN fails them
    if not float(p.min()) >= -1e-9:
        raise BadDistribution(f"negative or NaN joint probability {p.min():.3e}")
    if not abs(float(p.sum()) - 1.0) <= 1e-9:
        raise BadDistribution(f"joint probabilities sum to {p.sum()}, expected 1")
    return float(_classical_mi(p))


def _classical_mi(joint: np.ndarray) -> np.ndarray:
    """I(X:M) in bits of joint tables (..., x, m).

    Cells at or below PROB_EPS contribute nothing; values in [-1e-9, 0)
    read as 0.
    """
    p = np.clip(joint, 0.0, None)
    product = p.sum(axis=-1, keepdims=True) * p.sum(axis=-2, keepdims=True)
    kept = p > PROB_EPS
    # skipped cells get ratio 1, so their term p * log2(1) is exactly 0
    ratio = np.divide(p, product, out=np.ones_like(p), where=kept)
    value = np.sum(p * np.log2(ratio), axis=(-2, -1))
    return np.where((value >= -1e-9) & (value < 0.0), 0.0, value)


def random_reference_povm(rng: np.random.Generator, dim: int) -> Povm:
    """dim+1 weighted Haar-random rank-1 elements plus the PSD deficit."""
    if dim < 1:
        raise DimensionTooSmall(f"reference POVM dimension dim must be >= 1, got {dim}")
    c, v, deficit = _reference_factors(*_reference_draws(rng, dim))
    rank1 = c[:, None, None] * (v[:, :, None] * v.conj()[:, None, :])
    return Povm(dim, tuple((str(i), m) for i, m in enumerate([*rank1, deficit])))


def _reference_draws(
    rng: np.random.Generator, dim: int, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """The random numbers of one reference POVM, in the order they are drawn.

    Per rank-1 element the real then imaginary parts of its Gaussian vector
    (one row ``(2 * dim,)``) and its weight, uniform in [0.2, 1); the
    overall scale, uniform in [0.2, 0.95), last.  The rows and weights are
    drawn into the arrays ``out``, if given.
    """
    g, u = out or (np.empty((dim + 1, 2 * dim)), np.empty(dim + 1))
    # Generator.uniform(a, b) returns a + (b - a) * random(): the same
    # numbers, at three times the call cost
    for i in range(dim + 1):
        rng.standard_normal(out=g[i])
        u[i] = 0.2 + (1.0 - 0.2) * rng.random()
    return g, u, 0.2 + (0.95 - 0.2) * rng.random()


def _reference_factors(
    g: np.ndarray, u: np.ndarray, s
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factors of reference POVMs from draws stacked over leading axes.

    Element i is ``c_i |v_i><v_i|`` for the weights ``c`` ``(..., dim+1)``
    and the normalized vectors ``v`` ``(..., dim+1, dim)`` of the draws
    g_i; the weights are ``scale * u_i``, where ``scale`` makes the top
    eigenvalue of the rank-1 sum equal ``s``.  The last element is the dense
    ``deficit`` ``(..., dim, dim)``, which must be PSD (the message gives
    the lowest eigenvalue of any deficit).
    """
    dim = g.shape[-1] // 2
    v = g[..., :dim] + 1j * g[..., dim:]
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    total = _rank1_sum(u, v)
    top = np.linalg.eigvalsh(total)[..., -1]  # reads one triangle of total
    scale = s / top
    deficit = np.eye(dim) - scale[..., None, None] * total
    low = _lowest_eigenvalues(deficit, 1e-12)  # the deficit is Hermitian to round-off
    if (min_eig := float(np.min(low))) < -1e-12:
        raise NumericalInconsistency(f"POVM deficit not PSD: {min_eig:.3e}")
    return scale[..., None] * u, v, deficit


def _trial_factors(
    rng: np.random.Generator, states: list[tuple[int, int]], dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_reference_factors` stacked over the reference POVMs that
    ``rng``, a PCG64 generator, draws from each ``(state, inc)`` of ``states``."""
    g = np.empty((len(states), dim + 1, 2 * dim))
    u, s = np.empty(g.shape[:2]), np.empty(len(states))
    for j, (state, inc) in enumerate(states):
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        s[j] = _reference_draws(rng, dim, (g[j], u[j]))[2]
    return _reference_factors(g, u, s)


def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """SeedSequence's hash constants ``init * mult**j mod 2**32`` for
    ``j = start .. start + count``, as uint32."""
    consts = [init * pow(mult, start, 1 << 32) & 0xFFFFFFFF]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``words`` (..., k), word j by ``consts[j]``
    and ``consts[j + 1]`` of the k + 1 successive hash constants."""
    v = (words ^ consts[:-1]) * consts[1:]
    return v ^ (v >> 16)


def _mix_word(pool: np.ndarray, word: np.ndarray, start: int) -> np.ndarray:
    """Pools (B, 4) after SeedSequence mixes one entropy ``word`` (B,) into
    each slot of ``pool`` (4,) or (B, 4), the hash constants running from
    ``start``."""
    v = _hashmix(word.astype(np.uint32)[:, None], _hash_constants(_INIT_A, _MULT_A, start, 4))
    mixed = _MIX_L * pool - _MIX_R * v
    return mixed ^ (mixed >> 16)


def _child_states(
    root: np.random.SeedSequence, first: int, count: int
) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(child)`` for the children
    ``first`` to ``first + count - 1`` of ``root``, hashed in one pass.

    A child's entropy is the root's words, padded with zeros to four, then
    its index: one 32-bit word, two from 2**32.  The padding hashes as the
    root's empty pool slots do, so the child's pool is ``root.pool`` with
    the index words mixed in.  ``generate_state(4, uint64)`` hashes the
    pool twice over, and PCG64 seeds from the four words with two LCG steps.
    """
    keys = np.arange(first, first + count, dtype=np.uint64)
    # hashmix calls before the index: 4 per pool slot and per seed word past 4
    start = 4 * max(4, -(-int(root.entropy).bit_length() // 32))
    pool = _mix_word(root.pool, keys & 0xFFFFFFFF, start)
    if first + count > 1 << 32:
        two = (keys >= 1 << 32)[:, None]
        pool = np.where(two, _mix_word(pool, keys >> 32, start + 4), pool)
    consts = _hash_constants(_INIT_B, _MULT_B, 0, 8)
    words = _hashmix(np.concatenate([pool, pool], axis=1), consts).astype("<u4").view("<u8")
    states = []
    for s_high, s_low, i_high, i_low in words.tolist():
        inc = ((i_high << 65) | (i_low << 1) | 1) & _MASK128
        state = (((s_high << 64) | s_low) + inc) * _PCG_MULT + inc
        states.append((state & _MASK128, inc))
    return states


def _factored_joint(
    inp: PurifiedInput, c: np.ndarray, v: np.ndarray, deficit: np.ndarray,
    elements: np.ndarray,
) -> np.ndarray:
    """Joint tables (..., dim+2, m) of the reference POVMs with elements
    ``c_i |v_i><v_i|`` and ``deficit`` against the POVM ``elements`` (m, d, d).

    The factored form of ``_trace_products(_letter_parts(inp, stack),
    elements)``, with the same checks.  Letter i is ``c_i |b_i><b_i|`` for
    ``b_i = psiᵀ conj(v_i)``, so its row is ``c_i <b_i|P_m|b_i>``; the
    deficit's letter ``(psi† D psi)ᵀ = (D psi)ᵀ conj(psi)`` and row are
    dense.  Each product but the last takes the rows of the whole stack.
    """
    psi = inp.psi_matrix
    (r, d), lead, n = psi.shape, c.shape[:-1], elements.shape[0]
    b = (v.conj().reshape(-1, r) @ psi).reshape(v.shape[:-1] + (d,))
    d_psi = (deficit.reshape(-1, r) @ psi).reshape(lead + (r, d))
    deficit_part = (d_psi.swapaxes(-1, -2).reshape(-1, r) @ psi.conj()).reshape(lead + (d, d))
    _check_letter_sum(_rank1_sum(c, b) + deficit_part, inp.rho.matrix)
    # b_i† P_m for every i and m from one product with the P_m side by side
    bp = (b.conj().reshape(-1, d) @ elements.transpose(1, 0, 2).reshape(d, n * d)).reshape(
        b.shape[:-1] + (n, d)
    )
    rows = c[..., None] * np.einsum("...imd,...id->...im", bp, b).real
    # per POVM, as a product over a block of one would be a gemv, which
    # rounds unlike gemm: the tables would then depend on the block size
    deficit_row = _trace_products(deficit_part[..., None, :, :], elements)
    return _check_joint(np.concatenate([rows, deficit_row], axis=-2))


@dataclass(frozen=True)
class HolevoReport:
    """Best classical mutual information found against the gain iota."""

    iota: float
    max_classical_mi: float
    margin: float
    n_trials: int
    seed: int

    def to_dict(self) -> dict:
        return dict(vars(self))


def holevo_check(
    inp: PurifiedInput, instr: Instrument, n_trials: int, rng_seed: int
) -> HolevoReport:
    """Probe I(X:M) <= iota with random reference POVMs.

    Each trial draws its reference POVM from its own child of the master
    seed, so the reported maximum does not depend on evaluation order; the
    children's generator states are hashed a block at a time.
    Each POVM is kept as its factors, and trials are scored in blocks
    whose factors fit in ``_BLOCK_BYTES``.  Raises :class:`ParseError` unless
    ``n_trials`` and ``rng_seed`` are nonnegative integers, and
    :class:`NumericalInconsistency` if any trial exceeds iota + 1e-9.
    """
    for name, value in (("n_trials", n_trials), ("rng_seed", rng_seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise ParseError(f"{name} must be a nonnegative integer, got {value!r}")
    iota = information_gain(instr, inp.rho)
    elements = instr.povm_elements
    dim = inp.r_dim
    labels = tuple(str(i) for i in range(dim + 2))
    # weights (8 bytes each), vectors and deficit (complex, 16 bytes an entry)
    block = max(1, _BLOCK_BYTES // (8 * (dim + 1) + 16 * (2 * dim + 1) * dim))
    # trial i draws from child i of the root, as root.spawn(n_trials) gives
    # it, through one generator set to each child's state in turn
    root = np.random.SeedSequence(rng_seed)
    rng = np.random.Generator(np.random.PCG64(root))
    best = 0.0
    for start in range(0, n_trials, block):
        states = _child_states(root, start, min(block, n_trials - start))
        c, v, deficit = _trial_factors(rng, states, dim)
        # _reference_factors screened every deficit at -1e-12, which implies TP_ATOL
        _check_factored_povm(c, v, deficit, np.zeros(c.shape[:-1]), labels)
        mi = float(_classical_mi(_factored_joint(inp, c, v, deficit, elements)).max())
        if mi > iota + HOLEVO_ATOL:
            raise NumericalInconsistency(
                f"Holevo bound violated: I(X:M) = {mi!r} > iota = {iota!r}"
            )
        best = max(best, mi)
    return HolevoReport(
        iota=iota,
        max_classical_mi=best,
        margin=iota - best,
        n_trials=int(n_trials),
        seed=int(rng_seed),
    )
