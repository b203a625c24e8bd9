"""The golden corpus (``golden.py``): every kernel's outputs in every mode
hash to the digests recorded in ``golden.json``."""

import pytest

import golden

RECORDED = golden.recorded()


def test_every_kernel_and_mode_is_recorded():
    assert sorted(RECORDED) == sorted(golden.keys())


@pytest.mark.parametrize("key", golden.keys())
def test_golden_digest(key):
    cases, got = golden.compute(key)
    want = RECORDED[key]
    assert got["sha256"] == want["sha256"], golden.first_difference(cases, got, want)
