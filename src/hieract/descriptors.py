"""Per-region frame descriptors: geometric angles plus reduced motion.

The frame descriptor for region r is the concatenation of an 18-D geometric
part (15 segment-pair angles and 3 plane-segment angles) and a motion part
reduced to a fixed dimension with PCA. Angles read the region's joints
straight from the joint array. Raw motion comes either from joint
velocities (central differences over a clamped window) or from a
precomputed per-joint feature sidecar (JSON-lines ``{"t": int, "joint":
int, "feat": [...]}``); the caller computes it once per video, fits PCA to
it and hands both to ``build_descriptors``.
"""
from __future__ import annotations

import io
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .skeleton import (JointSchema, RegionSpec, SchemaError,
                       SkeletonSequence, get_schema)

GEO_DIM = 18
# descriptor modes: geometry alone, or with velocity or sidecar motion
MODES = ("geo", "geo+velocity", "geo+precomputed")
_PAIR_INDEX = [(i, j) for i in range(6) for j in range(i + 1, 6)]
_ZERO_NORM = 1e-12


@dataclass
class PcaModel:
    """Linear projection to ``out_dim`` principal directions.

    ``components`` has shape (input_dim, out_dim); columns are orthonormal
    except trailing zero columns padded when the data rank fell short.
    """
    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return (X - self.mean) @ self.components

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(),
                "components": self.components.tolist(),
                "explained_variance": self.explained_variance.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "PcaModel":
        return cls(mean=np.asarray(d["mean"], dtype=float),
                   components=np.asarray(d["components"], dtype=float),
                   explained_variance=np.asarray(d["explained_variance"],
                                                 dtype=float))


def geo_descriptors(seq: SkeletonSequence, schema: JointSchema,
                    region: RegionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Geometric descriptors for every frame of one region of ``seq``.

    Returns (angles, degenerate): angles (T, 18) in radians, degenerate
    (T,) bool. The 15 pairwise angles lie in [0, pi] (lexicographic over the
    region's segment list), the 3 plane angles in [0, pi/2]. Zero-length
    segments and collapsed planes contribute angle 0 and set the frame's
    degenerate flag instead of raising, so long noisy captures survive.
    """
    if seq.num_joints != schema.num_joints:
        raise SchemaError(
            f"sequence has {seq.num_joints} joints, schema "
            f"{schema.name!r} defines {schema.num_joints}")
    if seq.joints.shape[-1] != 3:
        raise SchemaError(
            "geometric descriptor needs 3-D joints; lift 2-D input first")

    def joint(name: str) -> np.ndarray:
        return seq.joints[:, schema.joint_index(name)]

    segs = np.empty((seq.num_frames, 6, 3))
    for s, (start, end) in enumerate(region.segments):
        segs[:, s] = joint(end) - joint(start)
    norms = np.linalg.norm(segs, axis=2)
    ok = norms > _ZERO_NORM
    units = np.zeros_like(segs)
    np.divide(segs, norms[:, :, None], out=units, where=ok[:, :, None])

    angles = np.zeros((seq.num_frames, GEO_DIM))
    degenerate = ~np.all(ok, axis=1)
    for col, (i, j) in enumerate(_PAIR_INDEX):
        dots = np.einsum("td,td->t", units[:, i], units[:, j])
        pair_ok = ok[:, i] & ok[:, j]
        angles[:, col] = np.where(
            pair_ok, np.arccos(np.clip(dots, -1.0, 1.0)), 0.0)

    p0, p1, p2 = (joint(name) for name in region.plane)
    normal = np.cross(p1 - p0, p2 - p0)
    n_norm = np.linalg.norm(normal, axis=1)
    n_ok = n_norm > _ZERO_NORM
    degenerate |= ~n_ok
    n_unit = np.zeros_like(normal)
    np.divide(normal, n_norm[:, None], out=n_unit, where=n_ok[:, None])
    for col, s in enumerate(region.noncoplanar_segments()):
        dots = np.abs(np.einsum("td,td->t", n_unit, units[:, s]))
        seg_ok = n_ok & ok[:, s]
        angles[:, GEO_DIM - 3 + col] = np.where(
            seg_ok, np.arcsin(np.clip(dots, 0.0, 1.0)), 0.0)
    return angles, degenerate


def velocity_descriptors(coords: np.ndarray, window: int = 7) -> np.ndarray:
    """Raw motion vectors from joint velocities, one row per frame.

    ``coords`` is (T, J, dims). Per frame t the descriptor concatenates, per
    joint, the central-difference displacement at each window offset
    t-w .. t+w, with offsets clamped at the sequence boundaries (forward or
    backward differences at the ends). Output is (T, dims*J*(2w+1)).
    A single-frame sequence yields all zeros.
    """
    coords = np.asarray(coords, dtype=float)
    T, J, dims = coords.shape
    steps = 2 * window + 1
    if T == 1:
        return np.zeros((1, dims * J * steps))
    diffs = np.gradient(coords, axis=0)  # central; one-sided at both ends
    offsets = np.arange(-window, window + 1)
    idx = np.clip(np.arange(T)[:, None] + offsets[None, :], 0, T - 1)
    # (T, steps, J, dims) -> per joint, per step
    gathered = diffs[idx].transpose(0, 2, 1, 3)
    return gathered.reshape(T, J * steps * dims)


def fit_pca(X: np.ndarray, out_dim: int = 20) -> PcaModel:
    """Fit a PCA projection to the top ``out_dim`` directions by variance.

    The centred (n, d) data ``Xc`` is never factored itself: ``eigh``
    decomposes the smaller of its two Gram matrices, ``XcᵀXc`` (d, d) when
    n >= d, whose eigenvectors are the components, or ``XcXcᵀ`` (n, n)
    when n < d, whose eigenvectors u give the components ``Xcᵀu / σ``
    (σ² the eigenvalue). Either way the cost is one product of ``Xc`` and
    the decomposition of a matrix of the smaller side, with no (n, d)
    factor built. Components come in descending eigenvalue order, each
    signed so that its largest-magnitude loading is positive, and
    ``explained_variance`` is the eigenvalue over n - 1.

    The rank is the number of eigenvalues above ``λ₁ · max(n, d) · ε``
    (ε the float64 machine epsilon): ``eigh`` resolves an eigenvalue only
    to about ``ε · λ₁``, so directions the data lacks read as noise of
    that size. At a few thousand rows a kept direction has a singular
    value above about ``1e-6 · σ₁``, where a thin SVD of ``Xc`` would
    resolve ``1e-12 · σ₁``.

    Requires more samples than output dimensions. When the data rank is
    below ``out_dim`` the missing directions are zero-padded and a warning
    is emitted.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if n <= out_dim:
        raise ValueError(f"need more than {out_dim} samples, got {n}")
    mean = X.mean(axis=0)
    Xc = X - mean
    tall = n >= d
    evals, vecs = np.linalg.eigh(Xc.T @ Xc if tall else Xc @ Xc.T)
    evals, vecs = evals[::-1], vecs[:, ::-1]
    floor = evals[0] * max(n, d) * np.finfo(float).eps if evals.size else 0.0
    keep = min(out_dim, int(np.sum(evals > floor)))
    components = np.zeros((d, out_dim))
    if tall:
        components[:, :keep] = vecs[:, :keep]
    else:
        components[:, :keep] = Xc.T @ (vecs[:, :keep]
                                       / np.sqrt(evals[:keep]))
    # Deterministic sign: largest-magnitude loading of each column positive.
    for c in range(keep):
        pivot = np.argmax(np.abs(components[:, c]))
        if components[pivot, c] < 0:
            components[:, c] = -components[:, c]
    explained = np.zeros(out_dim)
    explained[:keep] = evals[:keep] / (n - 1)
    if keep < out_dim:
        warnings.warn(
            f"data rank {keep} below requested {out_dim} PCA directions; "
            "padding with zeros", RuntimeWarning, stacklevel=2)
    return PcaModel(mean=mean, components=components,
                    explained_variance=explained)


def lift_2d(seq: SkeletonSequence, depth: float = 30.0) -> SkeletonSequence:
    """Lift a 2-D skeleton sequence to 3-D with a fixed depth offset.

    Wrists and knees get z=+depth, elbows z=-depth, all other joints z=0,
    so that plane angles become computable for 2-D input.
    """
    schema = get_schema(seq.schema)
    if seq.joints.shape[-1] != 2:
        raise SchemaError("lift_2d expects 2-D input coordinates")
    z = np.zeros(schema.num_joints)
    for j, name in enumerate(schema.joint_names):
        if "wrist" in name or "knee" in name:
            z[j] = depth
        elif "elbow" in name:
            z[j] = -depth
    joints = np.concatenate(
        [seq.joints, np.broadcast_to(z[None, :, None],
                                     (seq.num_frames, schema.num_joints, 1))],
        axis=2)
    return SkeletonSequence(video_id=seq.video_id, schema=seq.schema,
                            joints=joints, fps=seq.fps)


def load_motion_sidecar(stream, num_frames: int, num_joints: int) -> np.ndarray:
    """Read a precomputed per-joint motion feature sidecar.

    Returns (T, J, F). Every (t, joint) pair present must carry the same
    feature length and lie inside the video (0 <= t < T, 0 <= joint < J);
    missing pairs default to zeros.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    feats: dict[tuple[int, int], np.ndarray] = {}
    dim = None
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(
                f"sidecar line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict) or \
                not {"t", "joint", "feat"} <= obj.keys():
            raise SchemaError(f"sidecar line {lineno}: record needs 't', "
                              "'joint' and 'feat'")
        vec = np.asarray(obj["feat"], dtype=float)
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise SchemaError(
                f"sidecar line {lineno}: feature length {vec.shape[0]} != {dim}")
        t, joint = int(obj["t"]), int(obj["joint"])
        if not 0 <= t < num_frames:
            raise SchemaError(f"sidecar line {lineno}: t {t} outside "
                              f"0..{num_frames - 1}")
        if not 0 <= joint < num_joints:
            raise SchemaError(f"sidecar line {lineno}: joint {joint} outside "
                              f"0..{num_joints - 1}")
        feats[(t, joint)] = vec
    if dim is None:
        raise SchemaError("motion sidecar is empty")
    out = np.zeros((num_frames, num_joints, dim))
    for (t, j), vec in feats.items():
        out[t, j] = vec
    return out


def raw_motion_vectors(seq: SkeletonSequence, schema: JointSchema,
                       mode: str, window: int = 7,
                       sidecar: np.ndarray | None = None) -> list[np.ndarray]:
    """Per-region raw (pre-PCA) motion matrices, each (T, raw_dim)."""
    out = []
    for region in schema.regions:
        idx = [schema.joint_index(n) for n in region.joints]
        if mode == "velocity":
            out.append(velocity_descriptors(seq.joints[:, idx], window=window))
        elif mode == "precomputed":
            if sidecar is None:
                raise ValueError("precomputed mode needs a motion sidecar")
            T = seq.num_frames
            out.append(sidecar[:, idx].reshape(T, -1))
        else:
            raise ValueError(f"unknown motion mode {mode!r}")
    return out


def build_descriptors(seq: SkeletonSequence,
                      schema: JointSchema | None = None,
                      motion: list[np.ndarray] | None = None,
                      pca_models: list[PcaModel] | None = None) -> np.ndarray:
    """Compose the full (T, R, D) descriptor array for one sequence.

    Without ``motion`` it is the geometry alone (D=18). With ``motion``, the
    per-region raw motion matrices of ``raw_motion_vectors``, each region's
    geometry is followed by its motion projected by its fitted PcaModel
    (D=18 + PCA output dim). Deterministic for fixed inputs.
    """
    if schema is None:
        schema = get_schema(seq.schema)
    geo = [geo_descriptors(seq, schema, region)[0]
           for region in schema.regions]
    if motion is None:
        return np.stack(geo, axis=1)
    if pca_models is None or \
            not len(motion) == len(pca_models) == schema.num_regions:
        raise ValueError("motion needs one raw matrix and one fitted PCA "
                         "model per region")
    return np.stack([np.concatenate([g, pca.transform(m)], axis=1)
                     for g, m, pca in zip(geo, motion, pca_models)], axis=1)
