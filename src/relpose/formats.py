"""Text document and CSV formats used by the command-line interface.

All floating-point values are printed with 17 significant digits so that a
round trip through text reproduces them bit for bit.  Correspondence
documents are whitespace-insensitive token streams; '#' starts a comment that
runs to the end of the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DocumentError
from .geom import RelativePose, rotation_angle
from .imu import GyroSample
from .robust import SOLVERS, Solver
from .synth import METRICS, TrialRecord

# The solver of each correspondence document ``type``.
_DOCUMENTS = {solver.document: solver for solver in SOLVERS.values()}


def format_float(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class CorrespondenceSet:
    solver: Solver  # the solver of the document's type
    theta_rad: float
    pairs: list


class _TokenStream:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, int]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            for tok in body.split():
                self.tokens.append((tok, lineno))
        self.pos = 0

    def peek(self) -> tuple[str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise DocumentError(f"unexpected end of document while reading {what}")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, keyword: str) -> None:
        tok, line = self.next(f"keyword {keyword!r}")
        if tok != keyword:
            raise DocumentError(f"line {line}: expected {keyword!r}, found {tok!r}")

    def floats(self, n: int, field: str) -> np.ndarray:
        vals = []
        for _ in range(n):
            tok, line = self.next(field)
            try:
                vals.append(float(tok))
            except ValueError:
                raise DocumentError(f"line {line}: field {field!r}: not a number: {tok!r}") from None
            if not math.isfinite(vals[-1]):
                raise DocumentError(f"line {line}: field {field!r}: not finite: {tok!r}")
        return np.array(vals)


def parse_correspondence_document(text: str) -> CorrespondenceSet:
    """Parse a correspondence document: each pair with the rays that its
    solver reads, in their order.

    Directions are normalized on input; moments are rescaled with their
    direction and projected onto the incidence constraint.
    """
    ts = _TokenStream(text)
    header = {}
    while True:
        nxt = ts.peek()
        if nxt is None or nxt[0] == "pair":
            break
        tok, line = ts.next("header field")
        if tok in header:
            raise DocumentError(f"line {line}: header field {tok!r} given twice")
        if tok == "type":
            val, vline = ts.next("type value")
            if val not in _DOCUMENTS:
                types = " or ".join(map(repr, _DOCUMENTS))
                raise DocumentError(f"line {vline}: field 'type': must be {types}")
            header[tok] = val
        elif tok == "theta_rad":
            header[tok] = float(ts.floats(1, "theta_rad")[0])
        else:
            raise DocumentError(f"line {line}: unknown header field {tok!r}")
    for field in ("type", "theta_rad"):
        if field not in header:
            raise DocumentError(f"missing header field {field!r}")
    solver, theta = _DOCUMENTS[header["type"]], header["theta_rad"]

    pairs = []
    while ts.peek() is not None:
        ts.expect("pair")
        rays = {}
        for name in solver.problem.ray_names:
            ts.expect(name)
            rays[name] = ts.floats(3, name)
        # Each view's direction, with its moment where the pair has one.
        for q, m in (("q1", "m1"), ("q2", "m2")):
            n = np.linalg.norm(rays[q])
            if n < 1e-12:
                raise DocumentError("a ray direction has zero norm")
            # Rescale and re-orthogonalize only when the input actually violates
            # the constraints, so that emitted documents re-parse bit-identically.
            if abs(n - 1.0) > 1e-13:
                rays[q] = rays[q] / n
                if m in rays:
                    rays[m] = rays[m] / n
            if m in rays and abs(rays[q] @ rays[m]) > 1e-13 * max(1.0, np.linalg.norm(rays[m])):
                rays[m] = rays[m] - (rays[q] @ rays[m]) * rays[q]
        pairs.append(solver.pair_type(**rays))
    return CorrespondenceSet(solver=solver, theta_rad=theta, pairs=pairs)


def emit_correspondence_document(kind: str, theta_rad: float, pairs) -> str:
    """The document of ``type`` ``kind``: each pair with the rays that its
    solver reads, in their order."""
    names = _DOCUMENTS[kind].problem.ray_names
    lines = [f"type {kind}", f"theta_rad {format_float(theta_rad)}"]
    for p in pairs:
        fields = ["pair"]
        for name in names:
            fields += [name, *(format_float(v) for v in getattr(p, name))]
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def emit_pose_document(poses: list[RelativePose]) -> str:
    """The pose document of ``poses``; a pose with a metric translation
    also lists its anchor depths."""
    lines = [f"solutions {len(poses)}"]
    for i, p in enumerate(poses):
        lines.append(f"solution {i}")
        lines.append("R " + " ".join(format_float(v) for v in p.R.ravel()))
        lines.append("t " + " ".join(format_float(v) for v in p.t))
        lines.append(
            "quat " + " ".join(format_float(v) for v in (p.quat.sigma, *p.quat.u))
        )
        lines.append(f"rotation_angle_rad {format_float(rotation_angle(p.R))}")
        if p.depths is not None:
            lines.append(
                "depths " + " ".join(format_float(v) for v in p.depths)
            )
        if p.cheiral_count is not None:
            lines.append(f"cheiral_count {p.cheiral_count}")
            lines.append(f"cheirality_tie {int(p.cheirality_tie)}")
        if p.root_count is not None:
            lines.append(f"root_count {p.root_count}")
    return "\n".join(lines) + "\n"


GYRO_HEADER = "timestamp_ns,wx,wy,wz"


def parse_gyro_csv(text: str) -> list[GyroSample]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != GYRO_HEADER:
        raise DocumentError(f"gyro CSV must start with header {GYRO_HEADER!r}")
    samples = []
    prev_ts = None
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 4:
            raise DocumentError(f"line {lineno}: expected 4 comma-separated values")
        try:
            ts = int(cells[0])
        except ValueError:
            raise DocumentError(f"line {lineno}: field 'timestamp_ns': not an integer") from None
        try:
            w = np.array([float(c) for c in cells[1:]])
        except ValueError:
            raise DocumentError(f"line {lineno}: rate fields must be numbers") from None
        if prev_ts is not None and ts <= prev_ts:
            raise DocumentError(f"line {lineno}: timestamps must be strictly increasing")
        prev_ts = ts
        try:
            samples.append(GyroSample(timestamp_ns=ts, w=w))
        except ValueError as exc:
            raise DocumentError(f"line {lineno}: {exc}") from None
    return samples


def emit_gyro_csv(samples: list[GyroSample]) -> str:
    lines = [GYRO_HEADER]
    for s in samples:
        lines.append(
            ",".join([str(s.timestamp_ns), *(format_float(v) for v in s.w)])
        )
    return "\n".join(lines) + "\n"


# Benchmark CSV columns in file order: the row kind, then record fields.
# Timing is reported separately on stderr by the CLI: wall-clock values would
# break the byte-for-byte determinism of the emitted CSV.
_TRIAL_COLUMNS = ("record", "trial", "theta_rad", *METRICS, "failure")


def _cell(v) -> str:
    if isinstance(v, float):
        return "" if math.isnan(v) else format_float(v)
    return str(v)


def emit_trial_csv(records: list[TrialRecord], summary: dict) -> str:
    """The CSV of either benchmark: one row per trial, then one per summary
    statistic of every metric, then one per failure reason with its count
    of trials in the ``trial`` column.  A row leaves empty the columns it
    does not hold."""
    rows = [{"record": "trial", **vars(r)} for r in records]
    rows += [{"record": f"summary_{stat}", **{m: summary[m][stat] for m in METRICS}}
             for stat in ("lq", "median", "uq", "mean")]
    rows += [{"record": "summary_failed", "trial": count, "failure": reason}
             for reason, count in summary["failures"].items()]
    lines = [",".join(_TRIAL_COLUMNS)]
    lines += [",".join(_cell(row.get(c, math.nan)) for c in _TRIAL_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"
