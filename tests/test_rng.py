import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hyperq
from hyperq.rng import Stream, streams

# Draws of numpy 2.4's default_rng(entropy), in this order: random(),
# integers(25), integers(81), random(), integers(2**31 + 1),
# integers(3 * 2**30), random().
GOLDEN = {
    (1, 0): [0.5118216247002567, 18, 76, 0.14415961271963373, 1767258089, 3055813762,
             0.31183145201048545],
    (3, 7): [0.6822299076083322, 24, 48, 0.5137920249753317, 1452015024, 360040672,
             0.2391819301289112],
    (10, 999): [0.6772393942000163, 12, 77, 0.38119523525279575, 1528799141, 1435517181,
                0.7701080411682861],
    (2**32 + 5, 2**33 + 1): [0.43308648184350507, 22, 19, 0.22261689611897095, 638720770,
                             145670364, 0.612000278054343],
    # six 32-bit words: two more than SeedSequence's pool holds
    (2**100 + 3, 2**40 + 9): [0.9827869363437404, 11, 40, 0.16932668483783153, 302347159,
                              1462016316, 0.620797223108643],
}
GOLDEN_BOUNDS = [None, 25, 81, None, 2**31 + 1, 3 * 2**30, None]
BOUNDS = [1, 2, 25, 2**31 + 1, 3 * 2**30, 2**32 - 5, 2**32]


def _draw(stream, n):
    return stream.random() if n is None else stream.integers(n)


def _seeded(entropy):
    """`streams(seed)(episode)` of a (seed, episode) entropy."""
    seed, episode = entropy
    return streams(seed)(episode)


@pytest.mark.parametrize("entropy", sorted(GOLDEN))
def test_stream_matches_recorded_numpy_draws(entropy):
    stream = Stream(entropy)
    assert [_draw(stream, n) for n in GOLDEN_BOUNDS] == GOLDEN[entropy]


@pytest.mark.parametrize("entropy", sorted(GOLDEN))
def test_streams_match_recorded_numpy_draws(entropy):
    stream = _seeded(entropy)
    assert [_draw(stream, n) for n in GOLDEN_BOUNDS] == GOLDEN[entropy]


def _assert_same_draws(ours, reference, rng, draws):
    for i in range(draws):
        if rng.random() < 0.4:
            assert ours.random() == reference.random(), i
        else:
            n = rng.choice(BOUNDS)
            assert ours.integers(n) == reference.integers(n), (i, n)


def test_streams_match_stream_draw_for_draw():
    # the seeder hashes a seed's words once and each episode's per call; a
    # seed or episode of more than one 32-bit word falls back to Stream
    rng = random.Random(33)
    pairs = [(s, e) for s in (0, 2**32 - 1) for e in (0, 1, 2**32 - 1, 2**32)]
    pairs += [(2**32 + 5, 2**33 + 1), (2**32, 0), (5, 2**64 + 7)]
    for seed, episode in pairs:
        _assert_same_draws(streams(seed)(episode), Stream((seed, episode)), rng, 60)
    for _ in range(10_000):
        seed, episode = rng.randrange(2**32), rng.randrange(2**32)
        _assert_same_draws(streams(seed)(episode), Stream((seed, episode)), rng, 3)


def test_streams_of_one_seed_are_each_episodes_own():
    seeded = streams(42)
    for episode in (3, 0, 3, 2**32 - 1, 2**32, 7):
        ours, reference = seeded(episode), Stream((42, episode))
        assert [ours.next64() for _ in range(4)] == [reference.next64() for _ in range(4)]


@pytest.mark.parametrize("seed", [-1, -2**40])
def test_streams_reject_a_negative_seed_before_any_stream(seed):
    with pytest.raises(ValueError, match="non-negative"):
        streams(seed)


def test_stream_matches_numpy_draw_for_draw():
    # and so does `streams(s)(e)` for every two-int entropy (s, e)
    np = pytest.importorskip("numpy")
    rng = random.Random(12)
    entropies = [(0,), (0, 0), (1, 2**32), (2**64 + 3, 9), (7, 2**70 + 1), (2**96, 2**40, 5),
                 tuple(range(9)), (2**32 - 1, 2**32 - 1), (0, 1)]
    entropies += [tuple(rng.choice((rng.randrange(100), rng.randrange(2**32),
                                    rng.randrange(2**80))) for _ in range(rng.randint(1, 3)))
                  for _ in range(60)]
    for entropy in entropies:
        ours, theirs = [Stream(entropy)], np.random.default_rng(entropy)
        if len(entropy) == 2:
            ours.append(_seeded(entropy))
        for i in range(120):
            if rng.random() < 0.4:
                expected = theirs.random()
                assert [s.random() for s in ours] == [expected] * len(ours), (entropy, i)
            else:
                n = rng.choice(BOUNDS)
                expected = int(theirs.integers(n))
                assert [s.integers(n) for s in ours] == [expected] * len(ours), (entropy, i, n)


@pytest.mark.parametrize("n", [0, -3, 2**32 + 1])
def test_integers_rejects_bounds_outside_range(n):
    with pytest.raises(ValueError, match="1 <= n <= 2\\*\\*32"):
        Stream((1, 0)).integers(n)


def test_integers_of_one_draws_nothing():
    a, b = Stream((4, 2)), Stream((4, 2))
    assert a.integers(1) == 0
    assert a.random() == b.random()


@pytest.mark.parametrize("entropy,error", [((-1,), ValueError), ((2, -2**40), ValueError),
                                           ((1.0,), TypeError)])
def test_stream_rejects_entropy_that_is_not_a_non_negative_int(entropy, error):
    with pytest.raises(error):
        Stream(entropy)


def test_package_import_loads_no_numpy():
    src = Path(hyperq.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = "import sys, hyperq, hyperq.harness; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
