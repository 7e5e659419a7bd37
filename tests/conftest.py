import pytest

from bosewave import dispersion


@pytest.fixture
def eig_batches(monkeypatch):
    """Grid sizes of the eigen batches (dispersion._eig_step calls) a test makes, in order.

    Every polished batch (``_eig_roots``) is one such call too.
    """
    real = dispersion._eig_step
    sizes = []

    def counting(h_b, theta, n):
        sizes.append(len(h_b))
        return real(h_b, theta, n)

    monkeypatch.setattr(dispersion, "_eig_step", counting)
    return sizes
