"""Named seed constants: every magic RNG literal in the repo, documented.

The paper's methodology (Table 1 ratios against fixed references) only
works if every random draw is replayable, which in turn requires every
*root* seed to be a named, documented constant rather than a literal
scattered at a call site.  Derived per-task streams are computed from
these roots (see :meth:`repro.robust.faults.FaultPlan.rng_for`);
``tests/test_repo_hygiene.py::test_src_reads_no_global_rng`` enforces that
no stream is ever constructed unseeded, and nothing reads or seeds the
global RNGs.

Changing any value here changes the synthetic corpus / selection and
therefore every downstream report; treat these like file-format version
numbers.
"""

from __future__ import annotations

__all__ = ["SUITE_SELECTION_SEED", "XIPH_DATASET_SEED"]

#: Default corpus-generation + k-means selection seed for
#: :func:`repro.core.benchmark.vbench_suite` and the CLI's ``--seed``.
#: 2017 after the Jan-Jun 2017 YouTube log window the paper selects from.
SUITE_SELECTION_SEED = 2017

#: Seed for the synthetic model of Derf's (xiph.org) collection in
#: :mod:`repro.corpus.datasets`: the 41 clip categories are sampled once,
#: deterministically, so Figure 4-style coverage comparisons are stable.
#: 41 after the collection's clip count.
XIPH_DATASET_SEED = 41
