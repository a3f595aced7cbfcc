"""Run reports: canonical JSON, determinism hashing, CSV summaries, and the
experiment configuration loader.

``configparser``, ``csv`` and ``hashlib`` are imported by the functions that
use them: the CLI imports this module for every command, and most commands
never hash, write or parse a config.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import __version__

VOLATILE_KEYS = {"runtime_ms", "output_dir", "determinism_hash"}

CSV_COLUMNS = [
    "pipeline",
    "n",
    "params_hash",
    "certified_bound",
    "target_bound",
    "verdict",
    "seed",
    "runtime_ms",
]


def jsonable(obj):
    """Rewrite a report object tree into JSON-safe values.

    Floats are rounded to 12 significant digits so serialized reports are
    byte-stable. Any other leaf that is not JSON becomes its ``str``, so
    Fractions become exact "p/q" strings.
    """
    if isinstance(obj, (str, int)) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return str(obj)


# json.dumps settings of the hashed form: sorted and compact, and a
# non-finite float raises ValueError instead of writing the non-standard
# ``Infinity`` or ``NaN``.
_COMPACT_JSON = {"sort_keys": True, "separators": (",", ":"), "allow_nan": False}


def canonical_json(obj) -> str:
    """``jsonable(obj)`` as sorted, compact JSON."""
    return json.dumps(jsonable(obj), **_COMPACT_JSON)


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items() if k not in VOLATILE_KEYS}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def params_hash(params: dict) -> str:
    import hashlib

    return hashlib.sha256(canonical_json(params).encode()).hexdigest()[:12]


@dataclass
class StepRecord:
    name: str
    verdict: str
    detail: dict = field(default_factory=dict)
    runtime_ms: float = 0.0


@dataclass
class RunReport:
    """Per-step records plus certified conclusions of one pipeline run.

    Every certified conclusion carries a replay spec (operation name,
    JSON arguments, expected value) so ``forge replay`` can re-derive it,
    and either a stored witness or an exhaustive-check flag. Certified
    bounds hold at this instance; asymptotic targets are reported but never
    certified.
    """

    pipeline: str
    params: dict
    seed: int | None
    steps: list[StepRecord] = field(default_factory=list)
    certified: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    certified_bound: int | None = None
    target_bound: float | None = None
    verdict: str = "completed"
    n: int | None = None
    runtime_ms: float = 0.0

    def add_step(self, name: str, verdict: str, detail: dict | None = None):
        self.steps.append(StepRecord(name, verdict, detail or {}))

    def certify(
        self,
        claim: str,
        op: str,
        args: dict,
        expect,
        *,
        exhaustive: bool = False,
        witness=None,
    ):
        entry = {
            "claim": claim,
            "replay": {"op": op, "args": jsonable(args), "expect": jsonable(expect)},
            "exhaustive": exhaustive,
        }
        if witness is not None:
            entry["witness"] = jsonable(witness)
        self.certified.append(entry)

    def to_dict(self) -> dict:
        """The report as JSON-safe data with its determinism hash: the one
        source of ``report.json``, ``summary.csv`` and the hash."""
        data = jsonable({
            "pipeline": self.pipeline,
            "params": self.params,
            "seed": self.seed,
            "environment": {"version": __version__, "seed": self.seed},
            "steps": [vars(s) for s in self.steps],
            "certified": self.certified,
            "notes": self.notes,
            "certified_bound": self.certified_bound,
            "target_bound": self.target_bound,
            "verdict": self.verdict,
            "n": self.n,
            "runtime_ms": self.runtime_ms,
        })
        data["determinism_hash"] = determinism_hash(data)
        return data


def determinism_hash(report_dict: dict) -> str:
    """Hash of a ``to_dict()`` result or a ``report.json`` read back, with
    timing and location fields excluded. Both are JSON-safe already, so the
    dict is dumped as it is."""
    import hashlib

    return hashlib.sha256(json.dumps(_strip_volatile(report_dict), **_COMPACT_JSON).encode()).hexdigest()


def write_run_dir(report: RunReport, out_dir: str | Path) -> Path:
    """Persist report JSON and CSV summary, both from one ``to_dict()``, into
    a run directory.

    A lockfile holding the writer's pid guards against two runs sharing the
    directory. Both files are written under temporary names and renamed into
    place only when both are complete, so a failed write leaves neither.
    """
    import csv

    data = report.to_dict()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".forge-lock"
    try:
        with lock.open("x") as fh:
            fh.write(f"{os.getpid()}\n")
    except FileExistsError:
        raise RuntimeError(f"run directory {out} is locked by another run") from None
    report_tmp, summary_tmp = out / ".report.json.tmp", out / ".summary.csv.tmp"
    try:
        report_tmp.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
        with summary_tmp.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            writer.writerow({**data, "params_hash": params_hash(data["params"])})
        os.replace(report_tmp, out / "report.json")
        os.replace(summary_tmp, out / "summary.csv")
    finally:
        report_tmp.unlink(missing_ok=True)
        summary_tmp.unlink(missing_ok=True)
        lock.unlink(missing_ok=True)
    return out


def load_report_dict(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


# INI values arrive as strings; the annotations of the numeric fields name
# the type to convert them to, and the values a field may hold once read.
_INI_NUMBERS = {"int": int, "int | None": int, "float": float}
_NUMBER_VALUES = {"int": (int,), "int | None": (int, type(None)), "float": (int, float)}


@dataclass
class ExperimentConfig:
    """Inputs of one pipeline run; seeds are mandatory for randomized steps."""

    pipeline: str = ""
    graph: str | None = None  # inline graph6 or a file path
    params: dict = field(default_factory=dict)
    seed: int | None = None
    output_dir: str | None = None
    attempts: int = 200
    sample_count: int = 300
    sample_max_vertices: int = 8
    edge_prob: float = 0.5

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        """Load a JSON object, or an INI file whose ``[run]`` section holds the
        fields and whose ``[params]`` section holds ``params``. A key that is
        not a field, or a numeric field holding anything but a number of its
        type (a JSON integer for the integer fields, where ``true`` does not
        count), raises ValueError naming it."""
        text = Path(path).read_text()
        is_json = text.lstrip().startswith("{")
        if is_json:
            data = json.loads(text)
        else:
            import configparser

            parser = configparser.ConfigParser()
            parser.read_string(text)
            sections = {name: dict(parser[name]) for name in parser.sections()}
            data = sections.pop("run", {})
            if "params" in sections:
                data["params"] = sections.pop("params")
            data.update({f"[{name}]": None for name in sections})  # reported as unknown
        known = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(f"unknown config keys in {path}: {', '.join(unknown)}")
        for key, value in data.items():
            kind = known[key]
            if kind not in _INI_NUMBERS:
                continue
            if not is_json:
                try:
                    data[key] = value = _INI_NUMBERS[kind](value)
                except ValueError:
                    raise ValueError(f"config key {key} in {path} is not a number: {value!r}") from None
            if isinstance(value, bool) or not isinstance(value, _NUMBER_VALUES[kind]):
                expected = "a number" if kind == "float" else "an integer"
                raise ValueError(f"config key {key} in {path} must be {expected}, not {value!r}")
        return cls(**data)
