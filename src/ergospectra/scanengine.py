"""Deterministic parallel scheduling.

Jobs are pure functions of picklable payloads; results are merged by
key, so the numeric output is identical for any worker count or
completion order.  Failures are collected instead of aborting the scan,
each with its traceback.  A job may cover many energies: the CLI `rot`
command sends one contiguous chunk of its grid per worker, and the job
tracks the chunk in one batched call.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
import time
import traceback

from .errors import InvalidInput


@dataclass
class ScanResult:
    """Keyed results of a scan plus failure diagnostics."""

    values: dict
    failures: dict
    wall_time: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def ordered(self, keys):
        return [self.values[k] for k in keys]


def _run_one(func, key, payload):
    try:
        return key, None, func(payload)
    except Exception:  # jobs must not take the scan down
        return key, traceback.format_exc(), None


def scan(func, payloads, keys=None, workers: int = 1) -> ScanResult:
    """Run func over payloads, merging results by key.

    func must be a module-level (picklable) function when workers > 1.
    The merged result is independent of scheduling; failed jobs land in
    ScanResult.failures, keyed like the values, with their tracebacks.
    """
    if keys is None:
        keys = list(range(len(payloads)))
    if len(keys) != len(payloads):
        raise InvalidInput("keys and payloads must have equal length")
    start = time.perf_counter()
    values, failures = {}, {}
    if workers <= 1 or len(payloads) <= 1:
        outcomes = (_run_one(func, k, p) for k, p in zip(keys, payloads))
        for key, err, value in outcomes:
            (failures if err else values)[key] = err if err else value
    else:
        with ProcessPoolExecutor(max_workers=min(workers,
                                                 len(payloads))) as pool:
            for key, err, value in pool.map(_run_one,
                                            [func] * len(payloads), keys,
                                            payloads):
                (failures if err else values)[key] = err if err else value
    return ScanResult(values=values, failures=failures,
                      wall_time=time.perf_counter() - start)
