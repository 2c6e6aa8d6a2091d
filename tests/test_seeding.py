import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from apolar_kit import seeding
from apolar_kit.seeding import make_rng, small_rationals
from oracles import small_rationals as reference_small_rationals

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("seed", range(10))
def test_small_rationals_match_the_reference_stream(seed):
    # the first 300 values reach band 13; each band is built once and
    # shuffled afresh, so the draws are those of the per-call build
    expected = list(islice(reference_small_rationals(make_rng(seed)), 300))
    assert list(islice(small_rationals(make_rng(seed)), 300)) == expected


def test_streams_do_not_share_a_shuffled_band():
    first = list(islice(small_rationals(make_rng(1)), 60))
    assert list(islice(small_rationals(make_rng(1)), 60)) == first
    assert seeding._band(1) == tuple(sorted(seeding._band(1),
                                            key=lambda f: (f.denominator, f.numerator)))


def test_bands_are_built_on_first_use_not_at_import():
    code = ("import apolar_kit.seeding as s; assert s._band.cache_info().currsize == 0; "
            "next(s.small_rationals(s.make_rng(1))); assert s._band.cache_info().currsize == 1")
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": str(SRC)})
