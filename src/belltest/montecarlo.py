"""Emission-by-emission coincidence experiments with deterministic sampling.

Each emitted pair lands in one of the nine outcome cells of an event
distribution, so a run at fixed settings is a multinomial draw. Draws
are split into fixed-size chunks whose generator seeds are derived by
hashing (master seed, setting-pair index, chunk index); the chunk
layout depends only on the plan, so the same plan produces bit
identical counters at any worker count. Counters are plain sums,
mergeable in any order.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import operator
from typing import TYPE_CHECKING, ClassVar, Iterator

import numpy as np

from . import qm
from .core import (
    CELL_NAMES,
    CELL_OUTCOMES,
    PAIRS,
    BellTestError,
    PairProbabilities,
    Record,
    ValidationError,
    require_in_range,
    require_nonnegative,
)
from .inequalities import LOCAL_BOUND, InequalityReport, SettingsQuad, _report

if TYPE_CHECKING:
    from . import lhv

CHUNK_EMISSIONS = 1 << 20
"""Emissions per sampling chunk; part of the determinism contract."""

MAX_PAIRS_PER_SETTING = 1 << 40
"""Most emissions one setting pair may draw: 2**20 chunks, so a plan's chunk
layout stays an 8 MiB tuple. Larger counts are rejected before any sampling."""

PAIR_LABELS: tuple[str, ...] = tuple(PAIRS)
"""The four setting pairs a run measures, in core.PAIRS order."""


class InsufficientStatisticsError(BellTestError):
    """Too few detected events to form the requested estimate."""


def derive_seed(master: int, *indices: int | str) -> int:
    """Stable 64-bit stream seed hashed from a master seed and indices."""
    payload = "::".join(str(part) for part in (master, *indices)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


class CoincidenceCounters(Record):
    """Outcome-cell counts for one setting pair over n_emitted emissions."""

    n_emitted: int
    pp: int = 0
    pm: int = 0
    mp: int = 0
    mm: int = 0
    pz: int = 0
    zp: int = 0
    mz: int = 0
    zm: int = 0
    zz: int = 0

    def __post_init__(self) -> None:
        # Python ints, so the estimator's exact products cannot wrap as int64 would.
        counts = self.__dict__
        for name in self._fields:
            try:
                counts[name] = operator.index(counts[name])
            except TypeError:
                raise ValidationError(f"{name} must be an integer, got {counts[name]!r}") from None
        cells = self.cells()
        require_nonnegative(self._fields, self._values())
        if sum(cells) != self.n_emitted:
            raise ValidationError(
                f"cells sum to {sum(cells)}, expected n_emitted = {self.n_emitted}"
            )

    def cells(self) -> tuple[int, ...]:
        return self._values()[1:]  # the fields after n_emitted are CELL_NAMES

    @property
    def coincidences(self) -> int:
        return sum(c for c, (o1, o2) in zip(self.cells(), CELL_OUTCOMES) if o1 and o2)


def merge_counters(*counters: CoincidenceCounters) -> CoincidenceCounters:
    """Cell-by-cell sum of counter sets (setting pairs, chunks or partitions)."""
    if not counters:
        raise ValidationError("nothing to merge")
    cells = (sum(column) for column in zip(*(c.cells() for c in counters)))
    return CoincidenceCounters(sum(c.n_emitted for c in counters), *cells)


def chunk_counts(n: int) -> tuple[int, ...]:
    """Chunk sizes for n emissions: full chunks plus one remainder."""
    require_in_range("emission count", n, 1, MAX_PAIRS_PER_SETTING)
    full, rest = divmod(n, CHUNK_EMISSIONS)
    return (CHUNK_EMISSIONS,) * full + ((rest,) if rest else ())


_SEED_BLOCK = 1024
"""Chunks whose seeds are derived in one vectorized pass. Any block size gives
the same streams; this one keeps a block's Python objects near 300 KB."""

# numpy's SeedSequence hash constants; NEP 19 keeps its seeding stable.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_schedule(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    # The running hash constant never depends on the data, so each hash step's
    # (xor, multiplier) pair is a constant: (h, h * mult) with h advancing by mult.
    schedule = []
    for _ in range(count):
        advanced = (init * mult) & _MASK32
        schedule.append((np.uint32(init), np.uint32(advanced)))
        init = advanced
    return schedule


_ENTROPY_HASHES = _hash_schedule(_INIT_A, _MULT_A, 4 + 12)  # fill the pool, then 12 cross-mixes
_STATE_HASHES = _hash_schedule(_INIT_B, _MULT_B, 8)


def _pcg64_seed_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for every uint64 seed s.

    Runs numpy's pool-of-four mixing on uint32 columns, one array operation
    per hash step, so a block of seeds costs a few dozen array operations.
    Returns an (n, 4) uint64 array.
    """
    halves = seeds.astype("<u8").view("<u4").reshape(-1, 2)
    hashes = iter(_ENTROPY_HASHES)

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor, mult = next(hashes)
        value = (value ^ xor) * mult
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(len(halves), dtype=np.uint32)
    pool = [hashmix(halves[:, 0]), hashmix(halves[:, 1]), hashmix(zero), hashmix(zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    words = []
    for i, (xor, mult) in enumerate(_STATE_HASHES):
        value = (pool[i % 4] ^ xor) * mult
        words.append(value ^ (value >> _XSHIFT))
    # Consecutive uint32 words pair into little-endian uint64s, as in numpy.
    return np.stack(words, axis=1).astype("<u4").view("<u8")


def _mulhi64(x: np.ndarray, c: np.uint64) -> np.ndarray:
    """High 64 bits of each x * c, from 32-bit partial products."""
    low, shift = np.uint64(_MASK32), np.uint64(32)
    x0, x1 = x & low, x >> shift
    c0, c1 = c & low, c >> shift
    cross0, cross1 = x0 * c1, x1 * c0
    carry = (((x0 * c0) >> shift) + (cross0 & low) + (cross1 & low)) >> shift
    return x1 * c1 + (cross0 >> shift) + (cross1 >> shift) + carry


def _pcg64_states(words: np.ndarray) -> np.ndarray:
    """The (state, inc) that PCG64 sets from each row of SeedSequence words.

    pcg64_set_seed in uint64 limbs: inc = (w2:w3) << 1 | 1 and state =
    ((w0:w1) + inc) * _PCG64_MULT + inc mod 2**128, with the 128-bit product
    built from 32-bit partial products. Returns an (n, 4) uint64 array of
    (state low, state high, inc low, inc high).
    """
    w0, w1, w2, w3 = words.T
    one = np.uint64(1)
    mult_hi, mult_lo = (np.uint64(limb) for limb in divmod(_PCG64_MULT, 1 << 64))
    inc_lo = (w3 << one) | one
    inc_hi = (w2 << one) | (w3 >> np.uint64(63))
    lo = w1 + inc_lo
    hi = w0 + inc_hi + (lo < w1)
    # (hi:lo) * mult mod 2**128: the cross term hi * mult_hi overflows away
    hi = _mulhi64(lo, mult_lo) + lo * mult_hi + hi * mult_lo
    lo = lo * mult_lo
    state_lo = lo + inc_lo
    state_hi = hi + inc_hi + (state_lo < lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


_WORD_ORDERS = ((0, 1, 2, 3), (1, 0, 3, 2))
"""The _pcg64_states column held by each of pcg64_random_t's four uint64
words: low-high with a native little-endian __uint128_t, high-low in numpy's
emulated 128-bit struct (MSVC and other compilers without one)."""


def _state_memory(bit_generator: np.random.PCG64) -> memoryview:
    """Writable bytes of a PCG64's pcg64_random_t, its (state, inc) words."""
    # state_address points at numpy's pcg64_state, whose first field is the
    # pointer to the generator's pcg64_random_t.
    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    return memoryview((ctypes.c_char * 32).from_address(address)).cast("B")


def _word_order(memory: memoryview, seeded: dict[str, int]) -> list[int]:
    """The _WORD_ORDERS entry matching the words numpy's own seeding wrote."""
    limbs = [seeded["state"] & _MASK64, seeded["state"] >> 64,
             seeded["inc"] & _MASK64, seeded["inc"] >> 64]
    written = memory.cast("Q").tolist()
    for order in _WORD_ORDERS:
        if written == [limbs[column] for column in order]:
            return list(order)
    raise BellTestError("PCG64 state memory is in neither word order numpy uses")


def _chunk_seeds(pair_seed: int, start: int, stop: int) -> np.ndarray:
    """derive_seed(pair_seed, idx) for idx in start..stop-1, as a uint64 array."""
    prefix = hashlib.sha256(f"{pair_seed}::".encode("utf-8"))
    digests = []
    for idx in range(start, stop):
        digest = prefix.copy()
        digest.update(str(idx).encode("utf-8"))
        digests.append(digest.digest())
    # A seed is the first 8 of each 32 digest bytes, read little-endian.
    return np.frombuffer(b"".join(digests), dtype="<u8")[::4]


def _draw_chunks(
    p: np.ndarray, pair_seed: int, first: int, sizes: tuple[int, ...]
) -> Iterator[np.ndarray]:
    """Cell counts of chunks first, first+1, ... with the given sizes.

    Each chunk draws from the stream np.random.default_rng(derive_seed(
    pair_seed, idx)) would start. Its PCG64 (state, inc) is computed in
    blocks, in uint64 limbs, and its 32 bytes are written straight into the
    state memory of one reused generator, in the word order that numpy's
    own seeding of chunk `first` left there. After the first write the
    generator's state is read back through `.state` and compared with
    numpy's seeding, so a numpy that seeds or stores state differently
    stops the run before any counts are drawn instead of changing them.
    """
    bit_generator = np.random.PCG64(derive_seed(pair_seed, first))
    seeded = bit_generator.state["state"]
    memory = _state_memory(bit_generator)
    order = _word_order(memory, seeded)
    # Step away from the seeded state, so the check below passes only if the
    # first write lands in this generator. multinomial draws only 64-bit
    # words, so the buffered uint32 (which .state would reset) stays empty.
    bit_generator.random_raw()
    generator = np.random.Generator(bit_generator)
    for offset in range(0, len(sizes), _SEED_BLOCK):
        block = sizes[offset:offset + _SEED_BLOCK]
        start = first + offset
        words = _pcg64_seed_words(_chunk_seeds(pair_seed, start, start + len(block)))
        states = _pcg64_states(words)[:, order].tobytes()
        if offset == 0:
            memory[:] = states[:32]
            if bit_generator.state["state"] != seeded:
                raise BellTestError(
                    f"derived PCG64 state of chunk {first} differs from numpy's seeding"
                )
        for row, size in zip(range(0, len(states), 32), block):
            memory[:] = states[row:row + 32]
            yield generator.multinomial(size, p)


def _cell_probabilities(dist: PairProbabilities | CoincidenceCounters) -> np.ndarray:
    p = np.asarray(dist.cells(), dtype=np.float64)
    return p / p.sum()


def sample_chunk(
    dist: PairProbabilities, pair_seed: int, chunk_index: int, count: int
) -> np.ndarray:
    """Multinomial cell counts for one chunk, from its derived stream."""
    return next(_draw_chunks(_cell_probabilities(dist), pair_seed, chunk_index, (count,)))


def sample_pair_events(dist: PairProbabilities, n: int, seed: int) -> CoincidenceCounters:
    """Sample n emissions at one setting pair; deterministic in (seed, n).

    Chunks are drawn one after another in the calling thread: each chunk
    is interpreter-bound Python and numpy work, so threads would only
    contend for the interpreter lock. Chunk counts are summed as they are
    drawn, not kept (int64 sums are exact, so the order of addition
    cannot change the counters).
    """
    total = np.zeros(len(CELL_NAMES), dtype=np.int64)
    for counts in _draw_chunks(_cell_probabilities(dist), seed, 0, chunk_counts(n)):
        total += counts
    return CoincidenceCounters(n, *total.tolist())


class LhvSource(Record):
    """Simulation source: each emission draws one four-axis assignment."""

    kind: ClassVar[str] = "lhv"

    model: lhv.FourAxisModel


Source = qm.IdealSource | qm.RealSource | LhvSource


class RunPlan(Record):
    """Everything needed to reproduce one experiment byte for byte."""

    quad: SettingsQuad
    pairs_per_setting: int
    seed: int
    source: Source

    def __post_init__(self) -> None:
        require_in_range("pairs_per_setting", self.pairs_per_setting, 1, MAX_PAIRS_PER_SETTING)


def distribution_for(source: Source, quad: SettingsQuad, label: str) -> PairProbabilities:
    """Per-emission event distribution of a source at one setting pair."""
    side1, side2 = PAIRS[label]
    x1, x2 = getattr(quad, side1), getattr(quad, side2)
    if isinstance(source, qm.IdealSource):
        return qm.ideal_pair_probabilities(x1 - x2)
    if isinstance(source, qm.RealSource):
        return qm.event_distribution(x1, x2, source.geometry)
    if isinstance(source, LhvSource):
        from . import lhv

        return lhv.pair_probabilities(source.model, side1, side2)
    raise ValidationError(f"unknown source type {type(source).__name__}")


def run_experiment(plan: RunPlan, workers: int = 1) -> dict[str, CoincidenceCounters]:
    """Sample all four setting pairs, one counter set per label; workers is ignored."""
    results: dict[str, CoincidenceCounters] = {}
    for pair_index, label in enumerate(PAIR_LABELS):
        dist = distribution_for(plan.source, plan.quad, label)
        pair_seed = derive_seed(plan.seed, pair_index)
        results[label] = sample_pair_events(dist, plan.pairs_per_setting, pair_seed)
    return results


class EstimatedReport(Record):
    """An inequality report with its sampling uncertainty attached."""

    report: InequalityReport
    std_error: float
    sigma_distance: float


def evaluate_symmetric_detection(
    counters_cross: CoincidenceCounters, counters_primed: CoincidenceCounters
) -> EstimatedReport:
    """Plug counting estimates into the symmetric measurable inequality.

    counters_cross holds the shared cross-setting measurement (the three
    equal-difference pairs), counters_primed the primed pair. The lhs is
    3 E_cross/T - E_primed/T + 1 (CHSH + 1; the singles count as 2, as
    t0 >= T > 0), one fraction of the counts, rounded once. The
    standard error is first order, each counter set an independent
    multinomial: with like L = pp + mm and unlike U = pm + mp coincidences
    out of T = L + U, each ratio is a binomial proportion, so
    Var = 36 L U / T^3 (cross, 3E/T = 3 - 6U/T) + 4 L U / T^3 (primed,
    2(D++ + D--)/T = 2 - 2U/T). The detected-singles ratio group is
    identically 2 and contributes no variance.

    The estimate bounds local models only under two assumptions, which
    a local model need not meet: the three merged cross pairs share one
    distribution, and the detected subensemble is a fair sample of the
    emissions (Pearle 1970; Clauser and Horne 1974). The 50/50 mixture
    of assignments ++00 and +-0- has mixture functional 0 but reads -3
    here.
    """
    cross, primed = counters_cross, counters_primed
    like_c, unlike_c = cross.pp + cross.mm, cross.pm + cross.mp
    like_p, unlike_p = primed.pp + primed.mm, primed.pm + primed.mp
    total_c, total_p = like_c + unlike_c, like_p + unlike_p
    if total_c == 0 or total_p == 0:
        raise InsufficientStatisticsError("no coincidences at one of the settings")
    # CHSH + 1 as one fraction of exact ints: dividing rounds once.
    lhs_numerator = 3 * (like_c - unlike_c) * total_p - (like_p - unlike_p) * total_c
    lhs = (lhs_numerator + total_c * total_p) / (total_c * total_p)
    report = _report("detection-sym", lhs, LOCAL_BOUND, "ge")
    # The variance as one fraction of exact ints: dividing rounds once, so
    # std_error is within 1 ulp of the exact square root.
    numerator = 36 * like_c * unlike_c * total_p**3 + 4 * like_p * unlike_p * total_c**3
    std_error = math.sqrt(numerator / (total_c * total_p) ** 3)

    if std_error > 0.0:
        sigma_distance = report.margin / std_error
    elif report.margin == 0.0:
        sigma_distance = 0.0
    else:
        sigma_distance = math.copysign(math.inf, report.margin)
    return EstimatedReport(report=report, std_error=std_error, sigma_distance=sigma_distance)


def bootstrap_std_error(
    counters_cross: CoincidenceCounters,
    counters_primed: CoincidenceCounters,
    resamples: int = 1000,
    seed: int = 0,
) -> float:
    """Resampling cross-check of the first-order standard error."""
    rng = np.random.default_rng(derive_seed(seed, "bootstrap"))
    p_cross = _cell_probabilities(counters_cross)
    p_primed = _cell_probabilities(counters_primed)
    values = []
    for _ in range(resamples):
        draw_cross, draw_primed = (  # cross is drawn first
            CoincidenceCounters(c.n_emitted, *rng.multinomial(c.n_emitted, p).tolist())
            for c, p in ((counters_cross, p_cross), (counters_primed, p_primed))
        )
        try:
            values.append(evaluate_symmetric_detection(draw_cross, draw_primed).report.lhs)
        except InsufficientStatisticsError:
            continue
    if len(values) < 2:
        raise InsufficientStatisticsError("too few successful resamples")
    return float(np.std(np.asarray(values), ddof=1))


def counters_csv(counters_by_pair: dict[str, CoincidenceCounters]) -> str:
    """Byte-stable CSV dump: one pair,cell,count row per cell."""
    lines = ["pair,cell,count"]
    for label, counters in counters_by_pair.items():
        for name in CELL_NAMES:
            lines.append(f"{label},{name.replace('z', '0')},{getattr(counters, name)}")
    return "\n".join(lines) + "\n"


def _describe_source(source: Source) -> str:
    if isinstance(source, qm.RealSource):
        geometry = (f"{name}={value!r}" for name, value in source.geometry._asdict().items())
        return " ".join((source.kind, *geometry))
    return source.kind


def run_manifest(plan: RunPlan, counters_by_pair: dict[str, CoincidenceCounters]) -> str:
    """Byte-stable text record of a run: plan echo plus count totals."""
    lines = [
        "belltest run manifest",
        *(f"quad_{name}={value!r}" for name, value in plan.quad._asdict().items()),
        f"pairs_per_setting={plan.pairs_per_setting}",
        f"seed={plan.seed}",
        f"source={_describe_source(plan.source)}",
        f"chunk_emissions={CHUNK_EMISSIONS}",
    ]
    total_emitted = 0
    total_coincidences = 0
    for label, counters in counters_by_pair.items():
        lines.append(
            f"pair={label} n_emitted={counters.n_emitted} coincidences={counters.coincidences}"
        )
        total_emitted += counters.n_emitted
        total_coincidences += counters.coincidences
    lines.append(f"total_emitted={total_emitted}")
    lines.append(f"total_coincidences={total_coincidences}")
    return "\n".join(lines) + "\n"
