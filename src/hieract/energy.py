"""Model parameters, the labeling energy, and its sufficient statistics.

The score of a fully labeled video is a sum over regions of five linear
potentials: per-frame poselet classifier scores (or the garbage-collector
score theta for the reserved label K), actionlet-conditioned poselet counts
(beta), complex-action-conditioned atomic-action counts (alpha), and the two
transition terms (eta over poselets, gamma over actionlets). Bag-of-words
terms use unnormalized counts so the energy decomposes per frame.

All weights flatten to a single vector in a fixed documented order (per
region: alpha row-major, beta, w, gamma, eta, theta) and ``feature_map``
produces the matching sufficient statistics, so that
``params.flatten() @ feature_map(x, labeling, params)`` equals
``energy_total(x, labeling, params)`` exactly.
"""
from __future__ import annotations

import json
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

    @property
    def region_block(self) -> int:
        K1 = self.K + 1
        return (self.Y * self.S + self.A * K1 + self.K * self.D
                + self.A * self.A + K1 * K1 + 1)

    @property
    def total(self) -> int:
        return self.R * self.region_block


def region_slices(dims: ModelDims, r: int) -> dict[str, slice]:
    """Named slices of region r's blocks inside the flat weight vector."""
    K1 = dims.K + 1
    base = r * dims.region_block
    sizes = [("alpha", dims.Y * dims.S), ("beta", dims.A * K1),
             ("w", dims.K * dims.D), ("gamma", dims.A * dims.A),
             ("eta", K1 * K1), ("theta", 1)]
    out = {}
    for name, size in sizes:
        out[name] = slice(base, base + size)
        base += size
    return out


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
    """All learned weights, per region, plus the actionlet dictionary.

    Shapes per region r: w[r] (K, D), beta[r] (A, K+1), alpha[r] (Y, S),
    eta[r] (K+1, K+1), gamma[r] (A, A); theta is (R,). ``use_gc`` gates the
    reserved poselet label K during inference and initialization. GC-labeled
    frames stay visible to the beta counts (column K), so actionlets can
    still see collected frames.
    """
    dims: ModelDims
    w: list[np.ndarray]
    theta: np.ndarray
    beta: list[np.ndarray]
    alpha: list[np.ndarray]
    eta: list[np.ndarray]
    gamma: list[np.ndarray]
    dictionary: ActionletDictionary | None = None
    use_gc: bool = True

    def __post_init__(self):
        d = self.dims
        K1 = d.K + 1
        expect = {"w": (d.K, d.D), "beta": (d.A, K1), "alpha": (d.Y, d.S),
                  "eta": (K1, K1), "gamma": (d.A, d.A)}
        for name, shape in expect.items():
            blocks = getattr(self, name)
            if len(blocks) != d.R:
                raise ValueError(f"{name} needs {d.R} region blocks")
            for r, block in enumerate(blocks):
                if block.shape != shape:
                    raise ValueError(
                        f"{name}[{r}] has shape {block.shape}, want {shape}")
        if self.theta.shape != (d.R,):
            raise ValueError("theta must be (R,)")

    @classmethod
    def zeros(cls, dims: ModelDims,
              dictionary: ActionletDictionary | None = None,
              **flags) -> "ModelParams":
        K1 = dims.K + 1
        return cls(
            dims=dims,
            w=[np.zeros((dims.K, dims.D)) for _ in range(dims.R)],
            theta=np.zeros(dims.R),
            beta=[np.zeros((dims.A, K1)) for _ in range(dims.R)],
            alpha=[np.zeros((dims.Y, dims.S)) for _ in range(dims.R)],
            eta=[np.zeros((K1, K1)) for _ in range(dims.R)],
            gamma=[np.zeros((dims.A, dims.A)) for _ in range(dims.R)],
            dictionary=dictionary,
            **flags,
        )

    @property
    def num_poselet_states(self) -> int:
        """States available to z: K+1 with the garbage collector, else K."""
        return self.dims.K + 1 if self.use_gc else self.dims.K

    def u_of_v(self) -> np.ndarray:
        if self.dictionary is None:
            raise ValueError("model has no actionlet dictionary")
        return self.dictionary.u_of_v

    def flatten(self) -> np.ndarray:
        out = np.empty(self.dims.total)
        for r in range(self.dims.R):
            sl = region_slices(self.dims, r)
            out[sl["alpha"]] = self.alpha[r].ravel()
            out[sl["beta"]] = self.beta[r].ravel()
            out[sl["w"]] = self.w[r].ravel()
            out[sl["gamma"]] = self.gamma[r].ravel()
            out[sl["eta"]] = self.eta[r].ravel()
            out[sl["theta"]] = self.theta[r]
        return out

    def with_flat(self, vec: np.ndarray) -> "ModelParams":
        """A copy of this model carrying weights from a flat vector."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dims.total,):
            raise ValueError(f"flat vector must have length {self.dims.total}")
        d = self.dims
        K1 = d.K + 1
        new = ModelParams.zeros(d, dictionary=self.dictionary,
                                use_gc=self.use_gc)
        for r in range(d.R):
            sl = region_slices(d, r)
            new.alpha[r] = vec[sl["alpha"]].reshape(d.Y, d.S).copy()
            new.beta[r] = vec[sl["beta"]].reshape(d.A, K1).copy()
            new.w[r] = vec[sl["w"]].reshape(d.K, d.D).copy()
            new.gamma[r] = vec[sl["gamma"]].reshape(d.A, d.A).copy()
            new.eta[r] = vec[sl["eta"]].reshape(K1, K1).copy()
            new.theta[r] = vec[sl["theta"]][0]
        return new


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
    K1 = d.K + 1
    psi = np.zeros(d.total)
    u_of_v = params.u_of_v()
    for r in range(d.R):
        sl = region_slices(d, r)
        z = labeling.z[:, r]
        v = labeling.v[:, r]
        u = u_of_v[v]

        alpha = np.zeros((d.Y, d.S))
        np.add.at(alpha, (labeling.y, u), 1.0)
        psi[sl["alpha"]] = alpha.ravel()

        beta = np.zeros((d.A, K1))
        np.add.at(beta, (v, z), 1.0)
        psi[sl["beta"]] = beta.ravel()

        w = np.zeros((d.K, d.D))
        keep = z < d.K
        np.add.at(w, z[keep], x[keep, r, :])
        psi[sl["w"]] = w.ravel()

        gamma = np.zeros((d.A, d.A))
        if v.shape[0] > 1:
            np.add.at(gamma, (v[:-1], v[1:]), 1.0)
        psi[sl["gamma"]] = gamma.ravel()

        eta = np.zeros((K1, K1))
        if z.shape[0] > 1:
            np.add.at(eta, (z[:-1], z[1:]), 1.0)
        psi[sl["eta"]] = eta.ravel()

        psi[sl["theta"]] = float(np.sum(z == d.K))
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
    doc = json.loads(text)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a model file")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')}")
    if doc.get("beta_includes_gc") is not True:
        raise ValueError("unsupported model: beta_includes_gc must be true")
    dims = ModelDims(**doc["dims"])
    dictionary = (ActionletDictionary.from_dict(doc["dictionary"])
                  if doc.get("dictionary") is not None else None)
    params = ModelParams.zeros(
        dims, dictionary=dictionary, use_gc=doc["use_gc"]
    ).with_flat(np.asarray(doc["weights"], dtype=float))
    pca = None
    if doc.get("pca") is not None:
        pca = [PcaModel.from_dict(m) if m is not None else None
               for m in doc["pca"]]
    return params, pca, doc.get("config_hash", "")
