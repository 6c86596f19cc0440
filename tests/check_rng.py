"""Check the walker's three draw equalities on this interpreter, with no
dependency outside the standard library (pytest does not collect it):

- `_draw_order(rng, c)` equals `rng.sample(c, len(c))`;
- `_draw_first(rng, c)` equals the first element of `_draw_order(rng, c)`,
  and with `_draw_rest(rng, len(c))` after it makes the same draws;
- `_skip_draws(rng, count)` equals `count` one-candidate draws;

each leaving the RNG in the same state; and `_skip_draws(rng, a)` then
`_skip_draws(rng, b)` leaves it where `_skip_draws(rng, a + b)` does,
which lets a walk queue adjacent skips as one count.  The dataset bytes
depend on all of these.  Run from the repository root:

    python3 tests/check_rng.py

It prints one line and exits 0, or stops at the first failed equality.
"""

from __future__ import annotations

import platform
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from logsynth.generation import (  # noqa: E402
    _draw_first,
    _draw_order,
    _draw_rest,
    _skip_draws,
)

SIZES = [*range(41), 63, 64, 65, 127, 128, 129, 1000, 3960, 4096, 4097]
COUNTS = [*range(41), 1000, 12800]
SEEDS = (0, 1, 7, 2024, 99991)


def main() -> None:
    for n in SIZES:
        cands = tuple(f"p{i}" for i in range(n))
        for seed in SEEDS:
            drawn, sampled = random.Random(seed), random.Random(seed)
            order = list(_draw_order(drawn, cands))
            assert order == sampled.sample(cands, n), ("order", n, seed)
            assert drawn.getstate() == sampled.getstate(), ("order", n, seed)
            first = random.Random(seed)
            assert _draw_first(first, cands) == tuple(order[:1]), ("first", n, seed)
            _draw_rest(first, n)
            assert first.getstate() == drawn.getstate(), ("first", n, seed)
    for count in COUNTS:
        for seed in SEEDS:
            skipped, drawn = random.Random(seed), random.Random(seed)
            _skip_draws(skipped, count)
            for _ in range(count):
                while drawn.getrandbits(1):
                    pass
            assert skipped.getstate() == drawn.getstate(), ("skip", count, seed)
            merged = random.Random(seed)
            _skip_draws(merged, count // 3)
            _skip_draws(merged, count - count // 3)
            assert merged.getstate() == drawn.getstate(), ("merged skip", count, seed)
    print(f"check_rng: draw order, first pick and rest, and skipped and "
          f"merged skipped draws equal on "
          f"{platform.python_implementation()} {platform.python_version()}")


if __name__ == "__main__":
    main()
