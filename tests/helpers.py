"""Shared builders for test traces, and a runner for child processes."""

import os
import random
import subprocess
import sys
from pathlib import Path

from prepush import VisitRecord, build_indexes

ROOT = Path(__file__).resolve().parent.parent


def make_random_records(rng, max_users=30, max_titles=10, max_cells=10,
                        max_visits=300, with_timestamps=False):
    """A small collision-rich random trace for oracle comparisons."""
    n_users = rng.randint(1, max_users)
    n_titles = rng.randint(1, max_titles)
    n_cells = rng.randint(1, max_cells)
    n_visits = rng.randint(1, max_visits)
    records = []
    for _ in range(n_visits):
        ts = rng.randint(0, 10**6) if with_timestamps and rng.random() < 0.5 else None
        records.append(
            VisitRecord(
                f"u{rng.randint(1, n_users):02d}",
                f"t{rng.randint(1, n_titles):02d}",
                f"c{rng.randint(1, n_cells):02d}",
                ts,
            )
        )
    return records


def make_random_dataset(rng, **kwargs):
    return build_indexes(make_random_records(rng, **kwargs))


def dataset_from_counts(counts, kind):
    """Dataset whose per-entity visit counts match `counts` for one kind.

    The other two identifier kinds are varied per record so they do not
    collide into interesting structure of their own.
    """
    records = []
    serial = 0
    for entity, n in counts.items():
        for _ in range(n):
            serial += 1
            if kind == "user":
                rec = VisitRecord(entity, f"t{serial:04d}", f"c{serial:04d}")
            elif kind == "title":
                rec = VisitRecord(f"u{serial:04d}", entity, f"c{serial:04d}")
            else:
                rec = VisitRecord(f"u{serial:04d}", f"t{serial:04d}", entity)
            records.append(rec)
    return build_indexes(records)


def seeded_rng(seed):
    return random.Random(seed)


def sidecar_of(path):
    """The parse sidecar trace.load_trace keeps next to a trace file."""
    return path.with_name(f".{path.name}.prepush.npz")


def run_python(args, cwd, **kwargs):
    """``python *args`` in a child process with ``src`` on its import path;
    its output is captured as text."""
    pythonpath = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True, timeout=120,
                          **kwargs)
