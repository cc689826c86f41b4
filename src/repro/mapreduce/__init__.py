"""Local MapReduce engine and fusion jobs (the scale-out substrate)."""

from repro.mapreduce.engine import (
    JobStats,
    MapReduceJob,
    Pipeline,
    RetryPolicy,
    word_count,
)
from repro.mapreduce.jobs import mr_accu, mr_vote

__all__ = [
    "JobStats",
    "MapReduceJob",
    "Pipeline",
    "RetryPolicy",
    "mr_accu",
    "mr_vote",
    "word_count",
]
