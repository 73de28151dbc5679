"""Experiment records and deterministic persistence.

One run of a subcommand produces one ExperimentRecord: the full effective
configuration, the seed, named measured values, and named assertion
outcomes.  Records serialize to a long-format CSV with a fixed column order

    experiment_id, timestamp, subcommand, seed, params, kind, name, value

(one row per measured value with kind="value", one per assertion with
kind="assert" and value 1.0/0.0, plus one kind="runtime" row), and
optionally to a JSON mirror.  experiment_id is a content hash of
(subcommand, params, seed), so identical configurations reproduce identical
CSV bytes except for the wall-clock data: the timestamp column and the
kind="runtime" row.  Floats are written with 17 significant digits.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ExperimentRecord", "write_csv", "write_json", "derive_rng", "CSV_COLUMNS"]

CSV_COLUMNS = ["experiment_id", "timestamp", "subcommand", "seed", "params", "kind", "name", "value"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _params_echo(params: dict) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


@dataclass
class ExperimentRecord:
    subcommand: str
    params: dict
    seed: int
    values: dict = field(default_factory=dict)
    assertions: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0
    timestamp: float = field(default_factory=time.time)

    @property
    def experiment_id(self) -> str:
        blob = f"{self.subcommand}|{_params_echo(self.params)}|{self.seed}"
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    @property
    def passed(self) -> bool:
        return all(self.assertions.values())

    def rows(self) -> list[list[str]]:
        head = [self.experiment_id, _fmt(self.timestamp), self.subcommand, str(self.seed), _params_echo(self.params)]
        out = []
        for name in sorted(self.values):
            out.append(head + ["value", name, _fmt(self.values[name])])
        for name in sorted(self.assertions):
            out.append(head + ["assert", name, _fmt(1.0 if self.assertions[name] else 0.0)])
        out.append(head + ["runtime", "runtime_seconds", _fmt(self.runtime_seconds)])
        return out

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "timestamp": self.timestamp,
            "subcommand": self.subcommand,
            "seed": self.seed,
            "params": dict(self.params),
            "values": dict(self.values),
            "assertions": dict(self.assertions),
            "runtime_seconds": self.runtime_seconds,
        }


def write_csv(path, records) -> None:
    """Append the records' rows to the CSV at path, with the header only when the file is new or empty."""
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerows(rec.rows())


def write_json(path, records) -> None:
    with open(path, "w") as fh:
        json.dump([rec.to_dict() for rec in records], fh, indent=2)


def derive_rng(master_seed: int, task_index: int) -> np.random.Generator:
    """Per-task generator from the documented counter derivation
    SeedSequence([master_seed, task_index])."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, task_index]))
