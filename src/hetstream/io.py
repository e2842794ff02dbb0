"""Persistence and text formats: state snapshots, batch CSVs, config files.

The snapshot is a versioned .npz archive; every float travels as a float64
array entry, so counts round-trip bit exactly and reals to full precision.
Batch CSVs carry a header row x1..xp[,z1..zq][,w1..wr],y with one observation
per line, '.' decimals and no missing cells.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import re
import zipfile
from itertools import chain

import numpy as np

from .batchstats import _BLOCKS, PHASE_TAGS, BatchStats, StreamSchema, _block_shapes
from .engine import (
    CASE_CORRELATED,
    CASE_UNCORRELATED,
    CONVENTIONS,
    AccumulatorState,
    Phase,
    SecondWeightSpec,
    WeightSpec,
)
from .errors import HetstreamError, InvalidConfig, NonFiniteData, SchemaMismatch

SNAPSHOT_VERSION = 1

# per event: the metadata key, array prefix and type of its weight spec,
# and the array names of its maps fits[g - 1][s]
_SPEC_RECORDS = (("weights", "w", WeightSpec), ("weights2", "w2", SecondWeightSpec))
_MAP_NAMES = (("h_b",), ("h_c", "h_d"))


def _spec_fields(spec_type) -> list[str]:
    """A weight spec's numeric fields, in snapshot order."""
    return [f.name for f in dataclasses.fields(spec_type) if f.init and f.name != "provenance"]


def save_state(state: AccumulatorState, path) -> None:
    """Write a versioned .npz snapshot of the accumulator to exactly ``path``.

    The archive goes to a temporary file beside ``path`` that then replaces
    it, so an interrupted write never leaves a truncated snapshot behind.
    """
    forced = state._forced + (False,) * (len(_SPEC_RECORDS) - len(state._forced))
    meta = {
        "version": SNAPSHOT_VERSION,
        "phase": state.phase.value,
        "convention": state.convention,
        "case_label": state.case_label,
        "refine_maps": state.refine_maps,
        "b_forced": forced[0],
        "cd_forced": forced[1],
        "k_index": state.k_index,
        "m_index": state.m_index,
        "batch_count": state.batch_count,
        "schema": {
            "p": state.schema.p,
            "q": state.schema.q,
            "r": state.schema.r,
            "names": list(state.schema.names),
        },
        "segments": [
            {"n": seg.n, "phase_tag": seg.phase_tag} for seg in state._segments
        ],
        "weights": None,
        "weights2": None,
        "homog": None,
    }
    arrays: dict[str, np.ndarray] = {
        "seg_yty": np.array([seg.yty for seg in state._segments], dtype=np.float64),
    }
    for i, seg in enumerate(state._segments):
        for name in _BLOCKS:
            block = getattr(seg, name)
            if block is not None:
                arrays[f"seg{i}_{name}"] = np.asarray(block, dtype=np.float64)
    for (key, prefix, spec_type), spec in zip(_SPEC_RECORDS, state._specs):
        meta[key] = {"provenance": spec.provenance}
        for name in _spec_fields(spec_type):
            arrays[f"{prefix}_{name}"] = np.atleast_1d(getattr(spec, name))
    if state._fits:
        meta["homog"] = {"estimated_on": state.homog.estimated_on}
        for names, fits in zip(_MAP_NAMES, state._fits):
            arrays.update(zip(names, fits))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_state(path) -> AccumulatorState:
    """Rebuild an accumulator from a snapshot written by save_state.

    A file that is not a readable snapshot (truncated or not an archive, a
    missing entry, malformed metadata, a segment count, batch count or event
    batch index that is not a non-negative integer, a map or refinement flag
    that is not a bool, an unknown case label or weight convention, a weight
    record, map or array whose shape or presence the schema and phase do not
    give) raises
    HetstreamError; a weight spec whose widths do not fit the schema raises
    DimensionMismatch. Older v1 snapshots also carry a ``scalars`` entry, a
    running residual sum that the state computes on read instead; it is
    ignored.
    """
    try:
        with np.load(path) as data:
            return _state_from_snapshot(data)
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        raise HetstreamError(f"{path}: not a readable state snapshot ({exc})") from exc


def _state_from_snapshot(data) -> AccumulatorState:
    meta = json.loads(bytes(data["meta"]))
    if meta["version"] != SNAPSHOT_VERSION:
        raise InvalidConfig(f"unsupported snapshot version {meta['version']}")
    for name in ("refine_maps", "b_forced", "cd_forced"):
        if type(meta[name]) is not bool:
            raise ValueError(f"{name} = {meta[name]!r}, expected true or false")
    if meta["case_label"] not in (None, CASE_CORRELATED, CASE_UNCORRELATED):
        raise ValueError(f"case_label = {meta['case_label']!r}, expected null or a case label")
    if meta["convention"] not in CONVENTIONS:
        raise ValueError(f"convention = {meta['convention']!r}, expected one of {CONVENTIONS}")
    sch = meta["schema"]
    schema = StreamSchema(sch["p"], sch["q"], sch["r"], tuple(sch["names"]))
    state = AccumulatorState(
        schema,
        weight_convention=meta["convention"],
        refine_maps=meta["refine_maps"],
    )
    phase = Phase(meta["phase"])
    tags = [seg_meta["phase_tag"] for seg_meta in meta["segments"]]
    if tags != list(PHASE_TAGS[: PHASE_TAGS.index(phase.value) + 1]):
        raise ValueError(f"segment phase tags {tags} do not fit phase {phase.name}")
    if data["seg_yty"].shape != (len(tags),):
        raise ValueError(f"seg_yty has shape {data['seg_yty'].shape}, expected ({len(tags)},)")
    for i, seg_meta in enumerate(meta["segments"]):
        n = seg_meta["n"]
        if type(n) is not int or n < 0:
            raise ValueError(f"segment {i} has n = {n!r}, expected a non-negative integer")
    # the weight records and maps an event leaves behind
    events = len(tags) - 1
    present = {"weights": events >= 1, "homog": events >= 1, "weights2": events >= 2}
    for key, wanted in present.items():
        if (meta[key] is not None) != wanted:
            raise ValueError(
                f"{key} is {'missing' if wanted else 'present'} in phase {phase.name}"
            )
    event_batches = (meta["k_index"], meta["m_index"])[:events]
    counts = (meta["batch_count"], *event_batches)
    for name, index in zip(("batch_count", "k_index", "m_index"), counts):
        if type(index) is not int or index < 0:
            raise ValueError(f"{name} = {index!r}, expected a non-negative integer")
    state.case_label = meta["case_label"]
    state.batch_count = meta["batch_count"]
    segments = []
    for i, seg_meta in enumerate(meta["segments"]):
        blocks = {
            name: data[f"seg{i}_{name}"]
            for name in _BLOCKS
            if f"seg{i}_{name}" in data
        }
        # segment i observes the first i + 1 covariate groups of the schema
        widths = (schema.p, schema.q * (i >= 1), schema.r * (i >= 2))
        _check_shapes(f"segment {i}", blocks, _block_shapes(widths))
        segments.append(BatchStats._from_blocks(seg_meta["n"], widths, blocks, data["seg_yty"][i]))
    state._segments = segments
    # group g spans columns bounds[g]:bounds[g + 1]; added[g - 1] is its width
    bounds = state._bounds()
    added = [stop - start for start, stop in zip(bounds[1:], bounds[2:])]
    specs = []
    for g, (key, prefix, spec_type) in enumerate(_SPEC_RECORDS[:events], start=1):
        values = {name: data[f"{prefix}_{name}"] for name in _spec_fields(spec_type)}
        values["sigma0_sq"] = float(values["sigma0_sq"][0])
        spec = spec_type(**values, provenance=meta[key]["provenance"])
        spec._check_widths(added[:g])
        specs.append(spec)
    names = _MAP_NAMES[:events]
    _check_shapes(
        "maps",
        {name: data[name] for name in chain.from_iterable(_MAP_NAMES) if name in data},
        {
            name: (bounds[s + 1], added[g - 1])
            for g, group in enumerate(names, start=1)
            for s, name in enumerate(group)
        },
    )
    state._event_batches = event_batches
    state._specs = tuple(specs)
    state._fits = tuple(
        tuple(np.asarray(data[name], dtype=np.float64) for name in group) for group in names
    )
    state._forced = (meta["b_forced"], meta["cd_forced"])[:events]
    return state


def _check_shapes(what: str, entries: dict[str, np.ndarray], expected: dict[str, tuple]) -> None:
    """A snapshot's arrays of ``what`` must be exactly those that the schema
    and phase give it, each with the shape they give it."""
    got = {name: a.shape for name, a in entries.items()}
    if got != expected:
        raise ValueError(f"{what} has array shapes {got}, expected {expected}")


# ----------------------------------------------------------------------
# batch CSV format
# ----------------------------------------------------------------------

_COL_RE = re.compile(r"^([xzw])(\d+)$")


def _parse_header(fields: list[str]) -> tuple[int, int, int]:
    if not fields or fields[-1] != "y":
        raise SchemaMismatch("batch CSV header must end with the response column 'y'")
    counts = {"x": 0, "z": 0, "w": 0}
    order = "xzw"
    seen_group = 0
    for name in fields[:-1]:
        m = _COL_RE.match(name)
        if not m:
            raise SchemaMismatch(f"unexpected column name {name!r}")
        group, idx = m.group(1), int(m.group(2))
        g = order.index(group)
        if g < seen_group:
            raise SchemaMismatch("columns must appear in x, z, w order")
        seen_group = g
        counts[group] += 1
        if idx != counts[group]:
            raise SchemaMismatch(f"column {name!r} out of sequence")
    if counts["x"] == 0:
        raise SchemaMismatch("batch CSV needs at least one x column")
    if counts["w"] and not counts["z"]:
        raise SchemaMismatch("w columns require z columns")
    return counts["x"], counts["z"], counts["w"]


def read_batch_csv(path) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray]:
    """Read one batch; returns (x, z, w, y) with z/w None when absent.

    Schema violations abort with the offending 1-based line number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatch(f"{path}: line 1: empty file") from None
        p, q, r = _parse_header([h.strip() for h in header])
        width = p + q + r + 1
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise SchemaMismatch(
                    f"{path}: line {lineno}: expected {width} cells, got {len(row)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise SchemaMismatch(
                    f"{path}: line {lineno}: non-numeric or missing cell"
                ) from None
    if not rows:
        raise SchemaMismatch(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        bad = int(np.argwhere(~np.isfinite(data))[0][0]) + 2
        raise NonFiniteData(f"{path}: line {bad}: non-finite value")
    x = data[:, :p]
    z = data[:, p : p + q] if q else None
    w = data[:, p + q : p + q + r] if r else None
    y = data[:, -1]
    return x, z, w, y


def write_batch_csv(path, x, y, z=None, w=None) -> None:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    cols = [x]
    names = [f"x{i + 1}" for i in range(x.shape[1])]
    if z is not None:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        cols.append(z)
        names += [f"z{i + 1}" for i in range(z.shape[1])]
    if w is not None:
        w = np.atleast_2d(np.asarray(w, dtype=np.float64))
        cols.append(w)
        names += [f"w{i + 1}" for i in range(w.shape[1])]
    names.append("y")
    data = np.hstack(cols + [y.reshape(-1, 1)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ----------------------------------------------------------------------
# flat key = value config files
# ----------------------------------------------------------------------

def read_config(path) -> dict[str, str]:
    """Flat ``key = value`` text; '#' starts a comment."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidConfig(f"{path}: line {lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise InvalidConfig(f"{path}: line {lineno}: empty key")
            values[key] = value.strip()
    return values


def _vector(text: str) -> tuple[float, ...]:
    parts = [piece for piece in text.replace(" ", "").split(",") if piece]
    return tuple(float(piece) for piece in parts)


def config_to_simconfig(values: dict[str, str], seed_override: int | None = None):
    """Build a SimConfig from config-file values; names missing keys."""
    from .simlab import SimConfig

    required = ["p", "q", "beta", "theta", "sigma_sq", "n", "k", "j_max"]
    for key in required:
        if key not in values:
            raise InvalidConfig(f"missing config key {key!r}")
    try:
        kwargs = dict(
            p=int(values["p"]),
            q=int(values["q"]),
            beta=_vector(values["beta"]),
            theta=_vector(values["theta"]),
            sigma_sq=float(values["sigma_sq"]),
            n=int(values["n"]),
            k=int(values["k"]),
            j_max=int(values["j_max"]),
        )
        if "r" in values:
            kwargs["r"] = int(values["r"])
        if "gamma" in values:
            kwargs["gamma"] = _vector(values["gamma"])
        if "m" in values:
            kwargs["m"] = int(values["m"])
        if "corr_case" in values:
            kwargs["corr_case"] = values["corr_case"]
        if "rho_base" in values:
            kwargs["rho_base"] = float(values["rho_base"])
        if "replications" in values:
            kwargs["replications"] = int(values["replications"])
        if "seed" in values:
            kwargs["seed"] = int(values["seed"])
        if "a" in values:
            kwargs["a"] = float(values["a"])
        if "oracle_weights" in values:
            kwargs["oracle_weights"] = values["oracle_weights"].lower() in ("1", "true", "yes")
        if "weight_convention" in values:
            kwargs["weight_convention"] = values["weight_convention"]
    except ValueError as exc:
        raise InvalidConfig(f"malformed config value: {exc}") from exc
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return SimConfig(**kwargs)
