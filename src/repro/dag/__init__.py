"""Task-graph layer: from an elimination list to a kernel-level DAG.

The paper's DAGuE implementation consumes "a function that computes the
elimination list" and derives every kernel task and data movement from it
(§IV-C).  This package is the equivalent:
:func:`~repro.dag.compiled.compiled_from_eliminations` expands an
elimination list into GEQRT/UNMQR/TSQRT/TSMQR/TTQRT/TTMQR tasks, infers the
dataflow dependencies from tile access order and stores the DAG as flat
arrays (:class:`~repro.dag.compiled.CompiledGraph`) that every engine runs;
:mod:`repro.dag.cache` remembers built graphs.
"""
