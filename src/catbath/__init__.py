"""catbath: desk-scale simulator of cat-state decoherence in an
engineered qubit reservoir.

Modules:
    hilbert    truncated-Fock-space linear algebra
    catprep    phase-cat synthesis and amplitude-cat conversion
    floquet    sideband couplings and Stark shifts from modulation
    dynamics   N-qubit reservoir evolution, exact and branch model
    tomography photon-number readout and Wigner reconstruction
    analysis   distinguishability, entropy, branch reconstruction
    calib      Z-crosstalk compensation
    cli        scenario runner
"""

__version__ = "0.1.0"
