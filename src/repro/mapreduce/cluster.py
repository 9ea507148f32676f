"""Cluster configuration and the simulated-runtime cost model.

The paper's evaluation machines are modest (1 GB RAM, 0.5 CPU); runtimes in
Figs. 1-3 and 7 are dominated by how evenly the algorithms spread work and
by per-task overheads (Sec. V-A explicitly attributes the
grouping-on-one-string win to "the overhead of instantiating MapReduce
workers").  The :class:`CostModel` therefore charges:

* ``job_overhead``        -- fixed per MapReduce job (master scheduling,
  input splitting); the serial fraction that caps speedup (Amdahl).
* ``worker_startup``      -- per wave of workers (paid once per phase, all
  workers start in parallel).
* ``task_overhead``       -- per reduce *group* (task instantiation); this
  is what separates the two dedup strategies.
* ``per_record``          -- per record mapped or reduced.
* ``per_op``              -- per compute operation charged by user code
  (e.g. one DP cell of an LD computation).
* ``per_shuffle_byte``    -- per byte moved from mappers to reducers.

A phase's duration is the **maximum** over its workers (stragglers gate the
wave -- this is where skew hurts), and a job's simulated runtime is
``job_overhead + map_phase + shuffle + reduce_phase``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostModel:
    """Constants converting metered work into simulated seconds.

    The defaults are calibrated to commodity-cluster magnitudes (records and
    shuffle measured against single-digit-microsecond handling costs, task
    dispatch in the tens of milliseconds, job setup in the tens of seconds).
    Absolute values are not meant to match the paper's testbed -- only the
    *shape* of the curves matters (the ``benchmarks/bench_fig*`` tables).
    """

    job_overhead: float = 12.0
    worker_startup: float = 1.0
    task_overhead: float = 0.02
    per_record: float = 2e-5
    per_op: float = 2e-7
    per_shuffle_byte: float = 4e-8

    def phase_seconds(
        self,
        records: int,
        ops: int,
        shuffle_bytes: int,
        tasks: int = 0,
    ) -> float:
        """Seconds one worker spends on the given amount of work."""
        return (
            tasks * self.task_overhead
            + records * self.per_record
            + ops * self.per_op
            + shuffle_bytes * self.per_shuffle_byte
        )


@dataclass(frozen=True)
class ClusterConfig:
    """A simulated shared-nothing cluster.

    Parameters
    ----------
    n_machines:
        Number of simulated workers; the paper sweeps 100-1000.  Mappers
        and reducers both use ``n_machines`` workers (the paper runs
        "1,000 Mappers and 1,000 Reducers").
    cost_model:
        The work-to-seconds conversion; see :class:`CostModel`.
    """

    n_machines: int = 10
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.n_machines < 1:
            raise ValueError("cluster needs at least one machine")
