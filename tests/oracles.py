"""Dense reference objects shared by the grid tests.

The package never materializes the grid's kinetic operator: it applies
it as a Fourier multiplier.  The tests build it densely, once, to check
that route against plain matrix products.
"""

import numpy as np


def dense_kinetic_hamiltonian(info, hbar):
    """The periodic grid's kinetic operator as a dense Hermitian matrix."""
    e = info.kinetic_energies(hbar)
    h = np.fft.ifft(e[:, None] * np.fft.fft(np.eye(info.n_points), axis=0), axis=0)
    return 0.5 * (h + h.conj().T)
