"""Model parameters, the labeling energy, and its sufficient statistics.

The score of a fully labeled video is a sum over regions of five linear
potentials: per-frame poselet classifier scores (or the garbage-collector
score theta for the reserved label K), actionlet-conditioned poselet counts
(beta), complex-action-conditioned atomic-action counts (alpha), and the two
transition terms (eta over poselets, gamma over actionlets). Bag-of-words
terms use unnormalized counts so the energy decomposes per frame.

All weights live in a single vector in a fixed documented order (per
region: alpha row-major, beta, w, gamma, eta, theta; ``ModelDims.blocks``);
each weight block is a view of it. ``feature_map`` fills the matching
sufficient statistics through views of the same layout, so that
``params.flatten() @ feature_map(x, labeling, params)`` equals
``energy_total(x, labeling, params)`` exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .descriptors import PcaModel
from .dictionaries import ActionletDictionary

MODEL_FORMAT = "hieract-model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class ModelDims:
    """Problem sizes: regions, poselets, descriptor dim, actionlets,
    atomic actions, complex actions."""
    R: int
    K: int
    D: int
    A: int
    S: int
    Y: int

    def __post_init__(self):
        for name in ("R", "K", "D", "A", "S", "Y"):
            if getattr(self, name) < 1:
                raise ValueError(f"dimension {name} must be positive")

    def blocks(self) -> list[tuple[str, tuple[int, ...]]]:
        """One region's weight blocks and their shapes, in flat order."""
        K1 = self.K + 1
        return [("alpha", (self.Y, self.S)), ("beta", (self.A, K1)),
                ("w", (self.K, self.D)), ("gamma", (self.A, self.A)),
                ("eta", (K1, K1)), ("theta", ())]

    @property
    def region_block(self) -> int:
        return sum(math.prod(shape) for _, shape in self.blocks())

    @property
    def total(self) -> int:
        return self.R * self.region_block


def region_slices(dims: ModelDims, r: int) -> dict[str, slice]:
    """Named slices of region r's blocks inside the flat weight vector."""
    base = r * dims.region_block
    out = {}
    for name, shape in dims.blocks():
        size = math.prod(shape)
        out[name] = slice(base, base + size)
        base += size
    return out


def block_views(dims: ModelDims, vec: np.ndarray) -> dict[str, np.ndarray]:
    """Every region's copy of each block as one (R, *shape) view of ``vec``,
    a flat weight or statistics vector; theta's view is (R,)."""
    regions = vec.reshape(dims.R, dims.region_block)
    return {name: regions[:, sl].reshape(dims.R, *shape) for (name, shape), sl
            in zip(dims.blocks(), region_slices(dims, 0).values())}


@dataclass
class Labeling:
    """Frame-level labels of one video: poselets z, actionlets v, class y.

    ``z`` and ``v`` are (T, R) int arrays; z in 0..K (K is the garbage
    collector), v in 0..A-1, y in 0..Y-1.
    """
    z: np.ndarray
    v: np.ndarray
    y: int

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=int)
        self.v = np.asarray(self.v, dtype=int)
        if self.z.shape != self.v.shape or self.z.ndim != 2:
            raise ValueError("z and v must both be (T, R)")

    @property
    def num_frames(self) -> int:
        return self.z.shape[0]

    @property
    def num_regions(self) -> int:
        return self.z.shape[1]


@dataclass
class ModelParams:
    """All learned weights as one flat vector, plus the actionlet dictionary.

    ``vec`` is laid out as ``ModelDims.blocks`` declares. ``w``, ``beta``,
    ``alpha``, ``eta``, ``gamma`` and ``theta`` are the (R, ...) views of it
    that ``block_views`` cuts, so ``params.w[r]`` is region r's block and
    writing a block writes ``vec``. ``use_gc`` gates the reserved poselet
    label K during inference and initialization. GC-labeled frames stay
    visible to the beta counts (column K), so actionlets can still see
    collected frames. Pickling would part the views from ``vec``.
    """
    dims: ModelDims
    vec: np.ndarray
    dictionary: ActionletDictionary | None = None
    use_gc: bool = True

    def __post_init__(self):
        self.vec = np.array(self.vec, dtype=float)
        if self.vec.shape != (self.dims.total,):
            raise ValueError(
                f"flat vector must have length {self.dims.total}")
        views = block_views(self.dims, self.vec)
        self.w, self.beta = views["w"], views["beta"]
        self.alpha, self.eta = views["alpha"], views["eta"]
        self.gamma, self.theta = views["gamma"], views["theta"]

    @classmethod
    def zeros(cls, dims: ModelDims,
              dictionary: ActionletDictionary | None = None,
              use_gc: bool = True) -> "ModelParams":
        return cls(dims, np.zeros(dims.total), dictionary, use_gc)

    @property
    def num_poselet_states(self) -> int:
        """States available to z: K+1 with the garbage collector, else K."""
        return self.dims.K + 1 if self.use_gc else self.dims.K

    def u_of_v(self) -> np.ndarray:
        if self.dictionary is None:
            raise ValueError("model has no actionlet dictionary")
        return self.dictionary.u_of_v

    def flatten(self) -> np.ndarray:
        return self.vec.copy()

    def with_flat(self, vec: np.ndarray) -> "ModelParams":
        """A copy of this model carrying weights from a flat vector."""
        return ModelParams(self.dims, vec, self.dictionary, self.use_gc)


def _check_shapes(x: np.ndarray, labeling: Labeling, params: ModelParams):
    d = params.dims
    if x.ndim != 3 or x.shape[1] != d.R or x.shape[2] != d.D:
        raise ValueError(f"descriptors must be (T, {d.R}, {d.D}); "
                         f"got {x.shape}")
    if labeling.z.shape != x.shape[:2]:
        raise ValueError("labeling does not match descriptor frames/regions")
    if labeling.z.max() > d.K or labeling.v.max() >= d.A or \
            labeling.z.min() < 0 or labeling.v.min() < 0:
        raise ValueError("labels out of range")
    if not 0 <= labeling.y < d.Y:
        raise ValueError(f"complex action {labeling.y} out of range")


def energy_pose(x: np.ndarray, labeling: Labeling, params: ModelParams,
                r: int) -> float:
    """Per-frame poselet classifier scores; theta for GC-labeled frames."""
    z = labeling.z[:, r]
    gc = z == params.dims.K
    scores = np.where(
        gc, params.theta[r],
        np.einsum("td,td->t", params.w[r][np.minimum(z, params.dims.K - 1)],
                  x[:, r, :]))
    return float(scores.sum())


def energy_bow_poselets(labeling: Labeling, params: ModelParams,
                        r: int) -> float:
    """Actionlet-conditioned poselet co-occurrence scores (counts x beta)."""
    return float(params.beta[r][labeling.v[:, r], labeling.z[:, r]].sum())


def energy_bow_actions(labeling: Labeling, params: ModelParams,
                       r: int) -> float:
    """Complex-action-conditioned atomic-action counts (counts x alpha)."""
    u = params.u_of_v()[labeling.v[:, r]]
    return float(params.alpha[r][labeling.y, u].sum())


def transition_energy(labels: np.ndarray, weights: np.ndarray) -> float:
    """Sum of transition weights over consecutive frame pairs; 0 for T=1."""
    if labels.shape[0] < 2:
        return 0.0
    return float(weights[labels[:-1], labels[1:]].sum())


def energy_total(x: np.ndarray, labeling: Labeling,
                 params: ModelParams) -> float:
    """Total energy of a fully labeled video: five potentials over regions."""
    x = np.asarray(x, dtype=float)
    _check_shapes(x, labeling, params)
    total = 0.0
    for r in range(params.dims.R):
        total += energy_pose(x, labeling, params, r)
        total += energy_bow_poselets(labeling, params, r)
        total += energy_bow_actions(labeling, params, r)
        total += transition_energy(labeling.z[:, r], params.eta[r])
        total += transition_energy(labeling.v[:, r], params.gamma[r])
    return total


def feature_map(x: np.ndarray, labeling: Labeling,
                params: ModelParams) -> np.ndarray:
    """Sufficient statistics psi with <flatten(params), psi> == energy_total.

    Count blocks (alpha, beta, eta, gamma, theta) hold nonnegative integer
    counts; the w block accumulates descriptors into their poselet rows.
    """
    x = np.asarray(x, dtype=float)
    _check_shapes(x, labeling, params)
    d = params.dims
    psi = np.zeros(d.total)
    views = block_views(d, psi)
    u_of_v = params.u_of_v()
    for r in range(d.R):
        z = labeling.z[:, r]
        v = labeling.v[:, r]
        np.add.at(views["alpha"][r], (labeling.y, u_of_v[v]), 1.0)
        np.add.at(views["beta"][r], (v, z), 1.0)
        keep = z < d.K
        np.add.at(views["w"][r], z[keep], x[keep, r, :])
        np.add.at(views["gamma"][r], (v[:-1], v[1:]), 1.0)
        np.add.at(views["eta"][r], (z[:-1], z[1:]), 1.0)
        views["theta"][r] = np.sum(z == d.K)
    return psi


def save_model(params: ModelParams, pca_models: list[PcaModel] | None = None,
               config_hash: str = "") -> str:
    """Serialize a model to its versioned JSON container.

    The decimal serialization round-trips exactly: load(save(m)) flattens to
    the identical vector and save(load(s)) == s.
    """
    d = params.dims
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "dims": {"R": d.R, "K": d.K, "D": d.D, "A": d.A, "S": d.S, "Y": d.Y},
        "use_gc": params.use_gc,
        "beta_includes_gc": True,
        "weights": params.flatten().tolist(),
        "dictionary": (params.dictionary.to_dict()
                       if params.dictionary is not None else None),
        "pca": ([m.to_dict() if m is not None else None for m in pca_models]
                if pca_models is not None else None),
        "config_hash": config_hash,
    }
    return json.dumps(doc, sort_keys=True)


def load_model(text: str) -> tuple[ModelParams, list[PcaModel] | None, str]:
    """Parse a model file; text that is not JSON, not a model of this
    version, or lacks a field raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a model file")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')}")
    if doc.get("beta_includes_gc") is not True:
        raise ValueError("unsupported model: beta_includes_gc must be true")
    missing = [key for key in ("dims", "weights", "use_gc") if key not in doc]
    if missing:
        raise ValueError(f"model lacks {', '.join(missing)}")
    dims = ModelDims(**doc["dims"])
    dictionary = (ActionletDictionary.from_dict(doc["dictionary"])
                  if doc.get("dictionary") is not None else None)
    params = ModelParams(dims, doc["weights"], dictionary, doc["use_gc"])
    pca = None
    if doc.get("pca") is not None:
        pca = [PcaModel.from_dict(m) if m is not None else None
               for m in doc["pca"]]
    return params, pca, doc.get("config_hash", "")
