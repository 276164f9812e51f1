"""numpy's `default_rng(entropy)` stream, for the draws the learner makes.

`Stream(entropy)` seeds a PCG64 generator from a tuple of non-negative ints
exactly as `numpy.random.default_rng(entropy)` does: `SeedSequence` hashes the
32-bit words of the ints into a 4-word pool and expands that pool into the
128-bit state and increment.  `random()` and `integers(n)` then return what
numpy's `Generator.random()` and `Generator.integers(n)` return, draw for draw.
`streams(seed)` makes `Stream((seed, episode))` for one seed and many
episodes, hashing the seed's words once per call rather than once per stream.

PCG64 is the XSL-RR 128/64 generator of O'Neill, "PCG: A family of simple
fast space-efficient statistically good algorithms for random number
generation" (2014); `integers` uses Lemire's method, "Fast random integer
generation in an interval" (ACM TOMACS 2019).
"""

from __future__ import annotations

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4  # SeedSequence's pool words

# SeedSequence's hashmix xors a word with one power of its multiplier and
# multiplies by the next; every call moves one power on, so the constants of
# a run of calls form a table.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # pool hashing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state


def _powers(init: int, mult: int, n: int) -> tuple:
    """init * mult**i mod 2**32 for i = 0..n."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return tuple(out)


_POOL_CONSTS = _powers(_INIT_A, _MULT_A, _POOL * _POOL)
_STATE_CONSTS = _powers(_INIT_B, _MULT_B, 2 * _POOL)
# After hashing in the first 4 words, each pool word is mixed with the hash
# of every other: (source, destination, xor, multiplier) in call order.
_CROSS = tuple((src, dst) for src in range(_POOL) for dst in range(_POOL) if src != dst)
_CROSS_STEPS = tuple((src, dst, _POOL_CONSTS[i], _POOL_CONSTS[i + 1])
                     for i, (src, dst) in enumerate(_CROSS, start=_POOL))
# generate_state hashes pool word i % 4 into output word i: (source, xor, multiplier)
_OUTPUT_STEPS = tuple((i % _POOL, _STATE_CONSTS[i], _STATE_CONSTS[i + 1])
                      for i in range(2 * _POOL))


def _words(entropy) -> list:
    """The 32-bit words of each int, least significant first; 0 is one word."""
    words = []
    for n in entropy:
        if n < 0:
            raise ValueError(f"entropy must be non-negative ints, got {n}")
        words.append(n & _M32)
        n >>= 32
        while n:
            words.append(n & _M32)
            n >>= 32
    return words


def _cross(pool: list, steps) -> None:
    """Mix the hash of each step's source word into its destination word.

    hashmix(v) is h ^ h >> 16 with h = (v ^ xor) * multiplier; mixing it into
    pool word x gives r ^ r >> 16 with r = 0xCA01F9DD * x - 0x4973F715 * hashmix.
    """
    for src, dst, xor, mult in steps:
        h = (pool[src] ^ xor) * mult & _M32
        r = (0xCA01F9DD * pool[dst] - 0x4973F715 * (h ^ h >> 16)) & _M32
        pool[dst] = r ^ r >> 16


def _state(pool: list) -> tuple:
    """(state, increment) of numpy's PCG64 seeded from a mixed pool."""
    # generate_state(4, uint64): 8 hashed words o0..o7, paired little-endian
    # into o1:o0, o3:o2 (the seed, high:low) and o5:o4, o7:o6 (the sequence)
    o = []
    for src, xor, mult in _OUTPUT_STEPS:
        h = (pool[src] ^ xor) * mult & _M32
        o.append(h ^ h >> 16)
    seed = o[1] << 96 | o[0] << 64 | o[3] << 32 | o[2]
    inc = (o[5] << 96 | o[4] << 64 | o[7] << 32 | o[6]) << 1 & _M128 | 1
    # pcg64_srandom: from state 0, step, add the seed, step
    return ((inc + seed) * _PCG_MULT + inc) & _M128, inc


def _hashed(words) -> list:
    """The pool before its cross steps: each word hashed, zeros padding it."""
    pool = []
    for v, xor, mult in zip(words + [0] * (_POOL - len(words)), _POOL_CONSTS, _POOL_CONSTS[1:]):
        h = (v ^ xor) * mult & _M32
        pool.append(h ^ h >> 16)
    return pool


def _seed(entropy) -> tuple:
    """(state, increment) of numpy's PCG64 seeded by SeedSequence(entropy)."""
    words = _words(entropy)
    pool = _hashed(words[:_POOL])
    _cross(pool, _CROSS_STEPS)
    xor = _POOL_CONSTS[-1]
    for v in words[_POOL:]:  # each word past the pool mixes into every pool word
        for dst in range(_POOL):
            mult = xor * _MULT_A & _M32
            h = (v ^ xor) * mult & _M32
            r = (0xCA01F9DD * pool[dst] - 0x4973F715 * (h ^ h >> 16)) & _M32
            pool[dst] = r ^ r >> 16
            xor = mult
    return _state(pool)


def streams(seed: int):
    """`episode -> Stream((seed, episode))`, hashing the seed's words once.

    Of SeedSequence's pool, word 0 (the seed), words 2 and 3 (zero padding)
    and the three cross steps that read word 0 alone are the same for every
    episode, so each stream hashes only the episode's word, the other nine
    cross steps and the output words.  A seed or an episode of more than one
    32-bit word is seeded by `Stream` itself.  A negative seed raises
    ValueError here, before any stream is made.
    """
    if len(_words((seed,))) > 1:
        return lambda episode: Stream((seed, episode))
    pool = _hashed([seed])
    _cross(pool, _CROSS_STEPS[1:3])     # word 0 into words 2 and 3
    _, _, xor, mult = _CROSS_STEPS[0]   # and into word 1, whose mix subtracts this term
    h = (pool[0] ^ xor) * mult & _M32
    term = 0x4973F715 * (h ^ h >> 16)
    xor, mult = _POOL_CONSTS[1:3]       # word 1's own hash
    rest = _CROSS_STEPS[3:]

    def stream(episode: int) -> Stream:
        if not 0 <= episode <= _M32:
            return Stream((seed, episode))
        h = (episode ^ xor) * mult & _M32
        r = (0xCA01F9DD * (h ^ h >> 16) - term) & _M32
        ours = [pool[0], r ^ r >> 16, pool[2], pool[3]]
        _cross(ours, rest)
        return Stream._seeded(*_state(ours))

    return stream


class Stream:
    """The draws of `numpy.random.default_rng(entropy)` that the learner uses."""

    __slots__ = ("state", "inc", "spare")

    def __init__(self, entropy: tuple):
        self.state, self.inc = _seed(entropy)
        self.spare = None  # upper half of the last 64-bit draw, kept for next32

    @classmethod
    def _seeded(cls, state: int, inc: int) -> Stream:
        """The stream whose state and increment a seeding computed."""
        out = object.__new__(cls)
        out.state, out.inc, out.spare = state, inc, None
        return out

    def next64(self) -> int:
        """Step the 128-bit state; output its xor-folded halves rotated right."""
        s = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        x = (s >> 64 ^ s) & _M64
        return (x | x << 64) >> (s >> 122) & _M64

    def next32(self) -> int:
        """The lower half of a 64-bit draw, then its upper half."""
        spare = self.spare
        if spare is not None:
            self.spare = None
            return spare
        x = self.next64()
        self.spare = x >> 32
        return x & _M32

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of a 64-bit draw."""
        return (self.next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, n: int) -> int:
        """An int in [0, n) for 1 <= n <= 2**32; n == 1 draws nothing."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers needs 1 <= n <= 2**32, got {n}")
        if n == 1 << 32:
            return self.next32()
        if n == 1:
            return 0
        m = self.next32() * n
        if m & _M32 < n:  # maybe in the biased low band: reject below 2**32 mod n
            threshold = (1 << 32) % n
            while m & _M32 < threshold:
                m = self.next32() * n
        return m >> 32
