"""Output checks applied to every simulated run of the benchmark."""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.net.simulator import SimResult
from repro.overlay.job import MulticastJob


def check_result(
    jobs: Sequence[MulticastJob], result: SimResult
) -> Tuple[Set[str], List[str]]:
    """Failed job ids and problem descriptions for one run.

    A job fails when it did not complete within the horizon or when one
    of its (block, destination server) pairs is missing from the final
    store. A run-wide violation (fewer bytes moved than the jobs require)
    fails every job of the run.
    """
    failed: Set[str] = set()
    problems: List[str] = []
    required = 0.0
    for job in jobs:
        done = result.job_completion.get(job.job_id)
        if done is None or done > result.sim_time:
            failed.add(job.job_id)
            problems.append(f"{job.job_id}: incomplete at the horizon")
        missing = 0
        for dc in job.dst_dcs:
            for block in job.blocks:
                required += block.size
                server = job.assigned_server(dc, block.block_id)
                if not result.store.has(server, block.block_id):
                    missing += 1
        if missing:
            failed.add(job.job_id)
            problems.append(f"{job.job_id}: {missing} pairs missing from the store")
    moved = result.total_bytes_transferred()
    if moved < required * (1.0 - 1e-9):
        failed.update(job.job_id for job in jobs)
        problems.append(f"moved {moved:.6g} bytes < required {required:.6g}")
    return failed, problems
