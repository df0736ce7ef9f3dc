"""Fixtures shared by the test modules."""

import pytest

import fqdist.pair_spectrum as spectrum_module


@pytest.fixture
def forward_transforms(monkeypatch):
    """A list that gets the size of each complex forward transform pair_spectrum
    starts (a set's cached transform); its inversions are not counted."""
    calls = []
    real = spectrum_module._transform_in_place

    def counted(table, q, d, inverse=False):
        if not inverse:
            calls.append(table.size)
        return real(table, q, d, inverse)

    monkeypatch.setattr(spectrum_module, "_transform_in_place", counted)
    return calls
