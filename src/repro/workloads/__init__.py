"""Workload generators: Poisson, Arena-like, and MAF-like (§5.2)."""

from repro.workloads.generators import (
    WORKLOAD_KINDS,
    arena_workload,
    make_workload,
    maf_workload,
    poisson_workload,
    rate_modulated_arrivals,
)
from repro.workloads.io import load_requests_csv, save_requests_csv
from repro.workloads.request import Request, Workload

__all__ = [
    "WORKLOAD_KINDS",
    "Request",
    "Workload",
    "arena_workload",
    "load_requests_csv",
    "make_workload",
    "maf_workload",
    "poisson_workload",
    "rate_modulated_arrivals",
    "save_requests_csv",
]
