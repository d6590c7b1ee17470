"""Desk-scale simulation lab for Merlin-aided one-way quantum protocols.

Exact dense simulation of two-outcome measurement sequences, one-way
protocols with quantum advice and witnesses, two-layer amplification, the
witness-enumeration transform that removes Merlin, classical Merlin-aided
random access codes, and advice-fixing / postselection-training procedures,
each audited against its analytic guarantee without sampling noise.
"""

__version__ = "0.1.0"
