"""Simulator and verification harness for continuous collapse dynamics.

A classical fluctuating field drives state vectors toward eigenstates of
a chosen coupling operator.  The package propagates single stochastic
trajectories (with raw importance weights or physical cooked sampling),
aggregates seeded parallel ensembles, integrates the matching
deterministic double-commutator master equation, balances the
system/field/interaction energy ledger, and analyzes momentum-windowed
wavefunctions for collapse compatibility.
"""

__version__ = "0.1.0"
