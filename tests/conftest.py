import pytest

from bosewave import dispersion


@pytest.fixture
def eig_batches(monkeypatch):
    """Grid sizes of the dispersion._eig_roots calls a test makes, in order."""
    real = dispersion._eig_roots
    sizes = []

    def counting(h_b, theta, n):
        sizes.append(len(h_b))
        return real(h_b, theta, n)

    monkeypatch.setattr(dispersion, "_eig_roots", counting)
    return sizes
