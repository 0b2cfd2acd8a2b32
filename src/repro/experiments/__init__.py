"""Experiment harness: one module per table/figure of the paper.

Each module holds the cell functions of its experiments and the merge
that assembles an :class:`~repro.experiments.common.ExperimentResult`,
whose rows carry both the measured value and the paper's reported
value, and whose ``format()`` renders the table the paper printed.
``runner.EXPERIMENTS`` wires them into the one definition of every
experiment: ``runner.run_all()`` regenerates the whole evaluation
section (and EXPERIMENTS.md), ``runner.run_all(only=[name])[0]`` one
experiment.
"""

from repro.experiments.common import ExperimentResult, PAPER

__all__ = ["ExperimentResult", "PAPER"]
