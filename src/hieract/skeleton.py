"""Skeleton streams, joint schemas, body regions, and annotation files.

A skeleton file is JSON-lines: a header object on the first line
(``{"schema": ..., "video_id": ..., "fps": ...}``) followed by one object
per frame (``{"t": <int>, "joints": [[x, y, z], ...]}``). Frames may appear
out of order; parsing sorts them ascending by ``t``, which must then run
0..T-1 with no frame missing or repeated. A body region is a set of joint
names, read straight from the (T, J, dims) joint array. Annotation files are
CSV with header ``video_id,action_id,t_start,t_end,region`` (region -1 =
unknown); label files are CSV ``video_id,complex_action``. Frame indices
are 0-based and intervals are inclusive on both ends. Action and label ids
are 0-based integers throughout.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from operator import itemgetter

import numpy as np


class ParseError(ValueError):
    """Malformed skeleton or annotation input; carries the offending line."""


class SchemaError(ValueError):
    """Input disagrees with the joint schema (count, names, dimensions)."""


@dataclass(frozen=True)
class RegionSpec:
    """One fixed body region: the joints it owns and its descriptor geometry.

    ``segments`` are ordered (start, end) joint-name pairs; the direction is
    end minus start. ``plane`` names the three joints spanning the region
    plane. Segments with an endpoint outside the plane triple are the
    non-coplanar ones used for the plane angles. Segments may end at shared
    joints that no region owns (head, neck, torso, hips).
    """
    name: str
    joints: tuple[str, ...]
    segments: tuple[tuple[str, str], ...]
    plane: tuple[str, str, str]

    def noncoplanar_segments(self) -> list[int]:
        plane_set = set(self.plane)
        return [i for i, (a, b) in enumerate(self.segments)
                if not (a in plane_set and b in plane_set)]


@dataclass(frozen=True)
class JointSchema:
    """Named joints of a skeleton plus its split into R fixed regions; each
    joint a region owns or names in a segment or its plane is checked."""
    name: str
    joint_names: tuple[str, ...]
    regions: tuple[RegionSpec, ...]
    dims: int = 3

    def __post_init__(self):
        known = set(self.joint_names)
        if not self.regions:
            raise SchemaError("schema must define at least one region")
        for region in self.regions:
            if not region.joints:
                raise SchemaError(f"region {region.name!r} owns no joints")
            named = (*region.joints, *region.plane,
                     *(j for segment in region.segments for j in segment))
            for j in named:
                if j not in known:
                    raise SchemaError(
                        f"region {region.name!r} references unknown joint {j!r}")

    @property
    def num_joints(self) -> int:
        return len(self.joint_names)

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    def joint_index(self, name: str) -> int:
        try:
            return self.joint_names.index(name)
        except ValueError:
            raise SchemaError(f"unknown joint {name!r} in schema {self.name!r}")


def _side_arm(side: str, spine: str = "torso", hand: bool = True
              ) -> RegionSpec:
    """One arm; its last segment runs from the neck to ``spine``, and it
    owns a hand joint if the schema has one."""
    s, e, w = f"{side}_shoulder", f"{side}_elbow", f"{side}_wrist"
    return RegionSpec(
        name=f"{side}_arm",
        joints=(s, e, w) + ((f"{side}_hand",) if hand else ()),
        segments=((w, e), (e, s), (s, "neck"), (w, s), (w, "head"),
                  ("neck", spine)),
        plane=(s, e, w),
    )


def _side_leg(side: str, pelvis: str = "hip_center", ankle_to: str = "torso",
              last: tuple[str, str] = ("hip_center", "torso"),
              foot: bool = True) -> RegionSpec:
    """One leg; the hip joins ``pelvis``, the ankle also joins
    ``ankle_to``, ``last`` is its last segment, and it owns a foot joint if
    the schema has one."""
    h, k, a = f"{side}_hip", f"{side}_knee", f"{side}_ankle"
    return RegionSpec(
        name=f"{side}_leg",
        joints=(h, k, a) + ((f"{side}_foot",) if foot else ()),
        segments=((a, k), (k, h), (h, pelvis), (a, h), (a, ankle_to), last),
        plane=(h, k, a),
    )


KINECT20 = JointSchema(
    name="kinect20",
    joint_names=(
        "head", "neck", "torso", "hip_center",
        "left_shoulder", "left_elbow", "left_wrist", "left_hand",
        "right_shoulder", "right_elbow", "right_wrist", "right_hand",
        "left_hip", "left_knee", "left_ankle", "left_foot",
        "right_hip", "right_knee", "right_ankle", "right_foot",
    ),
    regions=(_side_arm("left"), _side_arm("right"),
             _side_leg("left"), _side_leg("right")),
)

# 2D puppet skeleton (sub-JHMDB style): no distinct torso/hip-center joint,
# so segments end at "belly" instead; no hands or feet.
PUPPET15 = JointSchema(
    name="puppet15",
    joint_names=(
        "head", "neck", "belly",
        "left_shoulder", "left_elbow", "left_wrist",
        "right_shoulder", "right_elbow", "right_wrist",
        "left_hip", "left_knee", "left_ankle",
        "right_hip", "right_knee", "right_ankle",
    ),
    regions=(*(_side_arm(side, spine="belly", hand=False)
               for side in ("left", "right")),
             *(_side_leg(side, pelvis="belly", ankle_to="belly",
                         last=("belly", "neck"), foot=False)
               for side in ("left", "right"))),
    dims=2,
)

SCHEMAS: dict[str, JointSchema] = {s.name: s for s in (KINECT20, PUPPET15)}


def get_schema(name: str) -> JointSchema:
    if name not in SCHEMAS:
        raise SchemaError(
            f"unknown schema {name!r}; available: {sorted(SCHEMAS)}")
    return SCHEMAS[name]


@dataclass
class SkeletonSequence:
    """Per-frame joint coordinates for one video.

    ``joints`` has shape (T, J, dims) with dims 2 or 3 and arbitrary but
    dataset-consistent length units.
    """
    video_id: str
    schema: str
    joints: np.ndarray
    fps: float | None = None

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=float)
        if self.joints.ndim != 3:
            raise SchemaError("joints must have shape (T, J, dims)")
        if self.joints.shape[0] < 1:
            raise SchemaError("sequence must contain at least one frame")
        if not np.all(np.isfinite(self.joints)):
            raise SchemaError(f"non-finite joint coordinates in {self.video_id!r}")

    @property
    def num_frames(self) -> int:
        return self.joints.shape[0]

    @property
    def num_joints(self) -> int:
        return self.joints.shape[1]


@dataclass(frozen=True)
class ActionInterval:
    """One temporal annotation: atomic action over [t_start, t_end] inclusive.

    ``region`` is the region index, or -1 when the spatial span is unknown.
    """
    action_id: int
    t_start: int
    t_end: int
    region: int = -1

    def __post_init__(self):
        if self.t_start < 0 or self.t_end < self.t_start:
            raise ParseError(
                f"bad interval bounds [{self.t_start}, {self.t_end}]")
        if self.action_id < 0:
            raise ParseError(f"bad action id {self.action_id}")

    def overlaps(self, other: "ActionInterval") -> bool:
        return self.t_start <= other.t_end and other.t_start <= self.t_end


def parse_skeleton(stream) -> SkeletonSequence:
    """Parse a JSON-lines skeleton stream into a SkeletonSequence.

    ``stream`` is an iterable of text lines or a str. The first line must be
    the header object; frame records follow in any order and are returned
    sorted ascending by ``t``. The sorted indices must be exactly 0..T-1: a
    repeated or missing ``t`` raises ParseError.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    header = None
    frames: list[tuple[int, list]] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: invalid JSON ({exc.msg})")
        if header is None:
            if "schema" not in obj or "video_id" not in obj:
                raise ParseError(
                    f"line {lineno}: first line must be a header with "
                    "'schema' and 'video_id'")
            header = obj
            continue
        if "t" not in obj or "joints" not in obj:
            raise ParseError(f"line {lineno}: frame record needs 't' and 'joints'")
        frames.append((int(obj["t"]), lineno, obj["joints"]))
    if header is None:
        raise ParseError("empty stream: missing header line")
    if not frames:
        raise ParseError("skeleton stream contains no frames")

    schema = get_schema(header["schema"])
    frames.sort(key=lambda item: item[0])
    coords = []
    for expected, (t, lineno, joints) in enumerate(frames):
        if t < expected:
            raise ParseError(f"line {lineno}: frame t={t} "
                             + ("is negative" if t < 0 else "is repeated"))
        if t > expected:
            raise ParseError(f"line {lineno}: frame t={expected} is missing "
                             f"before frame t={t}")
        arr = np.asarray(joints, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != schema.num_joints:
            raise SchemaError(
                f"frame t={t}: expected {schema.num_joints} joints, "
                f"got shape {arr.shape}")
        if arr.shape[1] != schema.dims:
            raise SchemaError(
                f"frame t={t}: expected {schema.dims}-D coordinates, "
                f"got {arr.shape[1]}-D")
        coords.append(arr)
    return SkeletonSequence(
        video_id=str(header["video_id"]),
        schema=schema.name,
        joints=np.stack(coords),
        fps=header.get("fps"),
    )


def validate_annotations(intervals: list[ActionInterval],
                         num_frames: int) -> list[str]:
    """Report structural violations in one video's intervals.

    Checkable constraints: intervals with a known region must not overlap
    pairwise within that region, and bounds must fit the video's
    ``num_frames``. Intervals with unknown region cannot overlap checkably.
    Returns human-readable violation strings; empty means consistent.
    """
    violations = []
    for q, iv in enumerate(intervals):
        if iv.t_end >= num_frames:
            violations.append(
                f"interval {q} (action {iv.action_id}, frames {iv.t_start}"
                f"..{iv.t_end}) ends past the last frame {num_frames - 1}")
    by_region: dict[int, list[tuple[int, ActionInterval]]] = {}
    for q, iv in enumerate(intervals):
        if iv.region >= 0:
            by_region.setdefault(iv.region, []).append((q, iv))
    for region, items in sorted(by_region.items()):
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                (qa, a), (qb, b) = items[i], items[j]
                if a.overlaps(b):
                    violations.append(
                        f"intervals {qa} and {qb} overlap in region {region}")
    return violations


def _csv_reader(stream, columns: tuple[str, ...], kind: str):
    """A CSV reader past the header, and (column, position, numeric) for
    each of ``columns``; a header without them raises ParseError."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    header = next(reader, [])
    if not set(columns) <= set(header):
        raise ParseError(f"line 1: {kind} CSV must have columns "
                         + ",".join(columns))
    return reader, [(key, header.index(key), key != "video_id")
                    for key in columns]


def csv_columns(stream, columns: tuple[str, ...], kind: str
                ) -> tuple[list[int], dict[str, list]]:
    """Every row of a CSV that has ``columns``, column by column: (line
    numbers, values per column), ``video_id`` as text and the others as
    integers. A missing column, or a row with a missing value or one that
    is not an integer, raises ParseError naming the line of the first."""
    reader, fields = _csv_reader(stream, columns, kind)
    lines, rows = [], []
    for cells in reader:
        if cells:                                       # not a blank line
            lines.append(reader.line_num)
            rows.append(cells)
    values = {}
    try:
        for key, i, numeric in fields:
            text = list(map(itemgetter(i), rows))
            values[key] = list(map(int, text)) if numeric else text
    except (IndexError, ValueError):
        for line, cells in zip(lines, rows):
            if fault := _bad_cell(cells, fields, line):
                raise ParseError(fault) from None
        raise
    return lines, values


def _bad_cell(cells: list[str], fields, line: int) -> str | None:
    """Why a row could not be read, its first missing value or value that
    is not an integer; None for a row that reads."""
    for key, i, numeric in fields:
        if i >= len(cells):
            return f"line {line}: no {key} value"
        if numeric:
            try:
                int(cells[i])
            except ValueError:
                return f"line {line}: {key} {cells[i]!r} is not an integer"
    return None


def load_annotations(stream, num_regions: int | None = None
                     ) -> dict[str, list[ActionInterval]]:
    """Read an annotation CSV into per-video interval lists. Given the
    features' ``num_regions``, a region outside -1 (unknown) to
    ``num_regions - 1`` raises ParseError naming the line."""
    keys = ("video_id", "action_id", "t_start", "t_end", "region")
    lines, columns = csv_columns(stream, keys, "annotation")
    result: dict[str, list[ActionInterval]] = {}
    for line, video_id, action_id, t_start, t_end, region in zip(
            lines, *(columns[key] for key in keys)):
        if num_regions is not None and not -1 <= region < num_regions:
            raise ParseError(f"line {line}: region {region} is not "
                             f"-1 (unknown) or one of the {num_regions} "
                             "regions of the features")
        try:
            interval = ActionInterval(action_id, t_start, t_end, region)
        except ParseError as exc:
            raise ParseError(f"line {line}: {exc}") from None
        result.setdefault(video_id, []).append(interval)
    return result


def save_annotations(intervals_by_video: dict[str, list[ActionInterval]]) -> str:
    lines = ["video_id,action_id,t_start,t_end,region"]
    for video_id in sorted(intervals_by_video):
        for iv in intervals_by_video[video_id]:
            lines.append(f"{video_id},{iv.action_id},{iv.t_start},"
                         f"{iv.t_end},{iv.region}")
    return "\n".join(lines) + "\n"


def load_labels(stream) -> dict[str, int]:
    """Read a labels CSV (video_id,complex_action). A video listed on a
    second row raises ParseError naming that row's line."""
    lines, columns = csv_columns(stream, ("video_id", "complex_action"),
                                 "labels")
    labels = {}
    for line, video_id, label in zip(lines, columns["video_id"],
                                     columns["complex_action"]):
        if video_id in labels:
            raise ParseError(f"line {line}: video {video_id!r} is listed "
                             "again")
        labels[video_id] = label
    return labels


def save_labels(labels: dict[str, int]) -> str:
    lines = ["video_id,complex_action"]
    for video_id in sorted(labels):
        lines.append(f"{video_id},{labels[video_id]}")
    return "\n".join(lines) + "\n"
