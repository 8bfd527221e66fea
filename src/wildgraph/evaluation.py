"""Linear probing, embedding separability, and KNN-distance detection.

The probe is a least-squares linear head fit on in-distribution embeddings
with one-hot targets, via a Hermitian pseudoinverse.  Probing error on
covariate-shifted embeddings has deliberately strict semantics: an example
only counts as correct when its true class wins the score argmax by a clear
margin.  When embeddings collapse (all class scores tie), every
example is counted as misclassified, because no linear boundary separates
the classes; plain argmax with any tie-break would arbitrarily get a
fraction of a degenerate split right.  Reported predictions still use
argmax with ties broken toward the lowest class index, and the accuracy
helpers below score those plain predictions.

The detector scores a query by its Euclidean distance to the k-th nearest
reference embedding (reference points exclude themselves) and flags OUT
above a percentile threshold of the reference scores; a score equal to the
threshold is accepted as IN.

Every metric takes one embedding row per cell of interchangeable
examples with the cell's count as its weight: the probe's Gram matrix, the
probing count, separability and the accuracies weigh each row by it, and
the k-th-neighbour search counts a reference row once per example, so a
reference cell of n examples gives each of them n - 1 neighbours at
distance zero.  The detector keeps one score per row, and weighs it by its
count in the threshold, FPRs and AUROC.  Rows of one example each
reproduce the per-example definitions exactly.

:func:`evaluate` is the one place that maps population memberships to
embedding rows: it fits the probe and computes probing error, separability
and both accuracies for every caller.  The probe and everything
:func:`evaluate` reports also take a stack of embeddings (leading batch
axes before the rows) and return one value per embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .population import Membership, Population
from .spectral import EigensolverError

__all__ = [
    "LinearProbe",
    "ProbingResult",
    "KnnDetector",
    "DetectionMetrics",
    "MetricsReport",
    "EvaluationError",
    "Evaluation",
    "evaluate",
    "fit_linear_probe",
    "probe_scores",
    "predict",
    "classification_accuracy",
    "probing_error",
    "separability",
    "fit_knn_detector",
    "knn_scores",
    "detection_metrics",
    "auroc_midrank",
]

TIE_TOLERANCE = 1e-8
PINV_RCOND = 1e-10


class EvaluationError(ValueError):
    pass


def _unstacked(value: np.ndarray, cast=float):
    """``cast(value)`` for one embedding; a stack keeps its array."""
    return cast(value) if np.ndim(value) == 0 else value


def _counts(counts: Optional[Sequence[int]], rows: int) -> np.ndarray:
    """Examples each of ``rows`` embedding rows stands for; one each by default."""
    if counts is None:
        return np.ones(rows, dtype=int)
    c = np.asarray(counts, dtype=int)
    if c.shape != (rows,):
        raise EvaluationError(f"got {c.shape[0] if c.ndim else 0} counts for {rows} rows")
    if c.size and c.min() < 0:
        raise EvaluationError(f"counts must be nonnegative, got {c.min()}")
    return c


@dataclass(frozen=True)
class LinearProbe:
    M: np.ndarray
    classes: tuple[int, ...]

    def __post_init__(self) -> None:
        self.M.setflags(write=False)


def fit_linear_probe(
    Z_id: np.ndarray,
    labels: Sequence[int],
    classes: Optional[Sequence[int]] = None,
    counts: Optional[Sequence[int]] = None,
) -> LinearProbe:
    """Least-squares head M = (Z^t W Z)^+ Z^t W Y with one-hot targets Y.

    W weighs each row by the examples it stands for (``counts``, one each
    by default).  ``classes`` defaults to the sorted distinct labels; every
    class must appear at least once among ``labels``.  A pseudoinverse that
    does not converge raises :class:`EigensolverError`.
    """
    z = np.asarray(Z_id, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if z.ndim < 2 or z.shape[-2] != labels.shape[0]:
        raise EvaluationError(f"got {z.shape[-2]} embedding rows for {labels.shape[0]} labels")
    class_list = tuple(sorted(set(int(c) for c in labels))) if classes is None else tuple(classes)
    if not class_list:
        raise EvaluationError("no classes to fit")
    present = set(int(c) for c in labels)
    missing = [c for c in class_list if c not in present]
    if missing:
        raise EvaluationError(f"classes {missing} have no training examples")
    onehot = (labels[:, None] == np.array(class_list)[None, :]).astype(float)
    # With A = sqrt(W) Z, (A^t A)^+ A^t = A^t (A A^t)^+: both Grams share their
    # nonzero spectrum, hence the pinv cutoff, so the smaller one is inverted,
    # rows x rows when there are no more rows than dimensions.
    root = np.sqrt(_counts(counts, labels.shape[0]))[:, None]
    zr = z * root
    zrt = np.swapaxes(zr, -1, -2)
    by_rows = z.shape[-2] <= z.shape[-1]
    try:
        gram_pinv = np.linalg.pinv(zr @ zrt if by_rows else zrt @ zr, rcond=PINV_RCOND,
                                   hermitian=True)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"probe pinv failed: {exc}") from exc
    m = zrt @ (gram_pinv @ (onehot * root)) if by_rows else gram_pinv @ zrt @ (onehot * root)
    return LinearProbe(M=m, classes=class_list)


def probe_scores(probe: LinearProbe, Z: np.ndarray) -> np.ndarray:
    z = np.asarray(Z, dtype=float)
    if z.shape[-1] != probe.M.shape[-2]:
        raise EvaluationError(
            f"embedding dimension {z.shape[-1]} != probe dimension {probe.M.shape[-2]}"
        )
    return z @ probe.M


def predict(probe: LinearProbe, Z: np.ndarray) -> np.ndarray:
    """Argmax class prediction; exact ties go to the lowest class index."""
    scores = probe_scores(probe, Z)
    return np.array(probe.classes)[np.argmax(scores, axis=-1)]


def classification_accuracy(
    Z: np.ndarray,
    labels: Sequence[int],
    probe: LinearProbe,
    counts: Optional[Sequence[int]] = None,
) -> float:
    """Plain argmax accuracy of the probe on one split, each row weighed by its count."""
    labels = np.asarray(labels, dtype=int)
    n = _counts(counts, labels.shape[0])
    return _unstacked(np.sum((predict(probe, Z) == labels) * n, axis=-1) / n.sum())


@dataclass(frozen=True)
class ProbingResult:
    rate: float
    count: int
    predictions: tuple[int, ...]


def probing_error(
    Z_cov: np.ndarray,
    labels: Sequence[int],
    probe: LinearProbe,
    counts: Optional[Sequence[int]] = None,
) -> ProbingResult:
    """Strict-margin misclassification on covariate-shifted embeddings.

    An example is correct only when the score of its true class exceeds
    every other class score by more than ``TIE_TOLERANCE`` times the
    example's score scale.  Degenerate decisions (collapsed embeddings)
    therefore count as errors for every example.  A row stands for
    ``counts`` examples (one each by default).  ``predictions`` carry the
    plain tie-broken argmax of each row for inspection.
    """
    labels = np.asarray(labels, dtype=int)
    scores = probe_scores(probe, Z_cov)
    if labels.shape[0] != scores.shape[-2]:
        raise EvaluationError(f"got {scores.shape[-2]} rows for {labels.shape[0]} labels")
    class_arr = np.array(probe.classes)
    preds = class_arr[np.argmax(scores, axis=-1)]
    match = labels[:, None] == class_arr[None, :]
    own_col = np.argmax(match, axis=-1)
    own_mask = np.arange(class_arr.size) == own_col[:, None]
    own = np.max(np.where(own_mask, scores, -np.inf), axis=-1)
    others = np.max(np.where(own_mask, -np.inf, scores), axis=-1)
    scale = np.max(np.abs(scores), axis=-1)
    scale = np.where(scale == 0.0, 1.0, scale)
    strict_win = (class_arr.size == 1) | (own > others + TIE_TOLERANCE * scale)
    n = _counts(counts, labels.shape[0])
    errors = np.sum(~(match.any(axis=-1) & strict_win) * n, axis=-1)
    return ProbingResult(
        rate=_unstacked(errors / n.sum()),
        count=_unstacked(errors, int),
        predictions=tuple(int(p) for p in preds) if preds.ndim == 1 else preds,
    )


def separability(
    Z_id: np.ndarray,
    Z_sem: np.ndarray,
    counts_id: Optional[Sequence[int]] = None,
    counts_sem: Optional[Sequence[int]] = None,
) -> float:
    """Mean squared Euclidean distance over all ID x semantic example pairs.

    A row stands for its count of examples (one each by default).
    """
    a = np.asarray(Z_id, dtype=float)
    b = np.asarray(Z_sem, dtype=float)
    if a.size == 0 or b.size == 0:
        raise EvaluationError("separability needs nonempty ID and semantic sets")
    if a.shape[-1] != b.shape[-1]:
        raise EvaluationError(f"embedding dimensions differ: {a.shape[-1]} vs {b.shape[-1]}")
    n_a, n_b = _counts(counts_id, a.shape[-2]), _counts(counts_sem, b.shape[-2])
    diff = a[..., :, None, :] - b[..., None, :, :]
    pairs = np.sum(diff * diff, axis=-1) * (n_a[:, None] * n_b)
    return _unstacked(np.sum(pairs, axis=(-2, -1)) / (n_a.sum() * n_b.sum()))


@dataclass(frozen=True)
class Evaluation:
    """Shift diagnostics of one embedding, with the rows of each split.

    The ID and semantic row lists let a caller add metrics of its own, such
    as KNN detection, without reading memberships itself.
    """

    labeled_rows: list[int]
    wild_id_rows: list[int]
    semantic_rows: list[int]
    probing: ProbingResult
    separability: float
    id_accuracy: float
    covariate_accuracy: float


def evaluate(population: Population, Z: np.ndarray) -> Evaluation:
    """Probe, probing error, separability and accuracies of an embedding.

    ``Z`` has one row per cell of ``population``, or one per example
    (:meth:`Population.rows`), and a row enters every metric with the
    examples it stands for.  The probe is fit on the labeled ID rows and
    scored on the covariate rows.  Separability pairs the labeled and then
    the wild ID rows with the semantic rows.  ID accuracy is scored on the
    wild ID rows, the held-out ID side, or on the labeled rows when there
    are none.
    """
    z = np.asarray(Z, dtype=float)
    cell, n = population.rows(z.shape[-2])
    rows: dict[Membership, list[int]] = {kind: [] for kind in Membership}
    for r, i in enumerate(cell.tolist()):
        rows[population.cells[i].membership].append(r)
    labeled, wild_id, covariate, semantic = (rows[kind] for kind in Membership)
    missing = [
        kind.value
        for kind in (Membership.LABELED_ID, Membership.WILD_COVARIATE, Membership.WILD_SEMANTIC)
        if not rows[kind]
    ]
    if missing:
        raise EvaluationError(f"population lacks required membership kinds: {', '.join(missing)}")
    labels = np.array([c.class_label for c in population.cells])[cell]
    probe = fit_linear_probe(
        z[..., labeled, :], labels[labeled], classes=population.classes, counts=n[labeled]
    )
    id_side = labeled + wild_id
    id_eval_rows = wild_id if wild_id else labeled
    return Evaluation(
        labeled_rows=labeled,
        wild_id_rows=wild_id,
        semantic_rows=semantic,
        probing=probing_error(
            z[..., covariate, :], labels[covariate], probe, counts=n[covariate]
        ),
        separability=separability(
            z[..., id_side, :], z[..., semantic, :], n[id_side], n[semantic]
        ),
        id_accuracy=classification_accuracy(
            z[..., id_eval_rows, :], labels[id_eval_rows], probe, n[id_eval_rows]
        ),
        covariate_accuracy=classification_accuracy(
            z[..., covariate, :], labels[covariate], probe, n[covariate]
        ),
    )


@dataclass(frozen=True)
class KnnDetector:
    """Reference rows with their example counts, and the calibrated threshold.

    ``reference_scores`` holds one score per reference row, shared by the
    row's ``counts`` examples.
    """

    reference: np.ndarray
    counts: np.ndarray
    k_neighbors: int
    percentile: float
    threshold: float
    reference_scores: np.ndarray

    def __post_init__(self) -> None:
        for name in ("reference", "counts", "reference_scores"):
            getattr(self, name).setflags(write=False)


def _pairwise_distances(queries: np.ndarray, reference: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(queries**2, axis=1)[:, None]
        + np.sum(reference**2, axis=1)[None, :]
        - 2.0 * queries @ reference.T
    )
    return np.sqrt(np.clip(d2, 0.0, None))


def _kth_smallest(d: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th smallest entry, with column j counted counts[j] times."""
    rows = np.arange(d.shape[0])
    order = np.argsort(d, axis=-1, kind="stable")
    at = np.argmax(np.cumsum(counts[order], axis=-1) >= k, axis=-1)
    return d[rows, order[rows, at]]


def _quantile(scores: np.ndarray, counts: np.ndarray, p: float) -> float:
    """``np.quantile(np.repeat(scores, counts), p)`` bit for bit, without the repeat.

    As numpy: index p (N - 1) lies between order statistics a and b at t,
    and the result is ``a + (b - a) t``, or ``b - (b - a)(1 - t)`` if t >= 0.5.
    """
    order = np.argsort(scores, kind="stable")
    ends = np.cumsum(counts[order])
    at = (int(ends[-1]) - 1) * p
    below = math.floor(at)
    # Order statistics `below` and `below + 1`; the last one past the end.
    rows = np.searchsorted(ends, [below, below + 1], side="right")
    a, b = scores[order[np.minimum(rows, order.size - 1)]]
    t = at - below
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def fit_knn_detector(
    Z_ref: np.ndarray,
    k_neighbors: int,
    percentile: float = 0.95,
    counts: Optional[Sequence[int]] = None,
) -> KnnDetector:
    """Calibrate the distance threshold on a clean reference set.

    Row x of ``Z_ref`` stands for ``counts[x]`` reference examples (one
    each by default) at one point, so each of them has ``counts[x] - 1``
    neighbours at distance zero.  Reference scores exclude the example's
    own zero self-distance; the threshold is the requested percentile of
    the scores of all reference examples under linear interpolation between
    order statistics.
    """
    ref = np.asarray(Z_ref, dtype=float)
    n = _counts(counts, ref.shape[0])
    if not 0.0 < percentile < 1.0:
        raise EvaluationError(f"percentile must lie in (0, 1), got {percentile}")
    if k_neighbors >= n.sum():
        raise EvaluationError(f"k_neighbors={k_neighbors} must be < reference count {n.sum()}")
    if k_neighbors < 1:
        raise EvaluationError(f"k_neighbors must be >= 1, got {k_neighbors}")
    d = _pairwise_distances(ref, ref)
    # An example's own zero distance is the first of its row, so its k-th
    # neighbour is the (k+1)-th entry.
    np.fill_diagonal(d, 0.0)
    scores = _kth_smallest(d, n, k_neighbors + 1)
    return KnnDetector(
        reference=ref.copy(),
        counts=n,
        k_neighbors=k_neighbors,
        percentile=percentile,
        threshold=_quantile(scores, n, percentile),
        reference_scores=scores,
    )


def knn_scores(detector: KnnDetector, Z: np.ndarray) -> np.ndarray:
    """Distance of each external query row to its k-th nearest reference example."""
    d = _pairwise_distances(np.asarray(Z, dtype=float), detector.reference)
    return _kth_smallest(d, detector.counts, detector.k_neighbors)


@dataclass(frozen=True)
class DetectionMetrics:
    fpr_at_threshold: float
    fpr95: float
    auroc: float


def auroc_midrank(
    scores_id: np.ndarray,
    scores_ood: np.ndarray,
    counts_id: Optional[Sequence[int]] = None,
    counts_ood: Optional[Sequence[int]] = None,
) -> float:
    """Probability that a random OOD score exceeds a random ID score.

    The Mann-Whitney statistic with midranks for ties, so identical score
    lists give exactly one half.  A score stands for its count of examples
    (one each by default).
    """
    s_id = np.asarray(scores_id, dtype=float)
    s_ood = np.asarray(scores_ood, dtype=float)
    n_id, n_ood = _counts(counts_id, s_id.shape[0]), _counts(counts_ood, s_ood.shape[0])
    _, inverse = np.unique(np.concatenate([s_id, s_ood]), return_inverse=True)
    tied = np.bincount(inverse, weights=np.concatenate([n_id, n_ood]))
    # A run of c tied examples ending at 1-based rank r shares the midrank
    # r - (c - 1) / 2.  Every sum is of half-integers, so exact.
    ranks = np.cumsum(tied) - (tied - 1) / 2.0
    rank_sum_ood = float(np.sum(ranks[inverse[s_id.shape[0] :]] * n_ood))
    n_i, n_o = int(n_id.sum()), int(n_ood.sum())
    u = rank_sum_ood - n_o * (n_o + 1) / 2.0
    return u / (n_i * n_o)


def detection_metrics(
    scores_id: np.ndarray,
    scores_ood: np.ndarray,
    detector: KnnDetector,
    counts_id: Optional[Sequence[int]] = None,
    counts_ood: Optional[Sequence[int]] = None,
) -> DetectionMetrics:
    """False-positive rates and ranking quality of the fitted detector.

    A score at or below a threshold is accepted as IN, so
    ``fpr_at_threshold`` is the fraction of OOD examples the detector lets
    through, and ``fpr95`` uses the 95th percentile of the ID examples'
    scores as the threshold instead.  A score stands for its count of
    examples (one each by default).
    """
    s_id = np.asarray(scores_id, dtype=float)
    s_ood = np.asarray(scores_ood, dtype=float)
    n_id, n_ood = _counts(counts_id, s_id.shape[0]), _counts(counts_ood, s_ood.shape[0])
    n_o = int(n_ood.sum())
    if n_id.sum() == 0 or n_o == 0:
        raise EvaluationError("detection metrics need nonempty score lists")
    q95 = _quantile(s_id, n_id, 0.95)
    return DetectionMetrics(
        fpr_at_threshold=int(n_ood[s_ood <= detector.threshold].sum()) / n_o,
        fpr95=int(n_ood[s_ood <= q95].sum()) / n_o,
        auroc=auroc_midrank(s_id, s_ood, n_id, n_ood),
    )


@dataclass(frozen=True)
class MetricsReport:
    """``detect``'s metrics, in the order of its JSON report."""

    id_acc: float
    ood_acc: float
    probing_error_rate: float
    probing_error_count: int
    separability: float
    fpr95: float
    auroc: float
    fpr_at_threshold: float

    def __post_init__(self) -> None:
        for name in ("id_acc", "ood_acc", "probing_error_rate", "fpr_at_threshold", "fpr95", "auroc"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise EvaluationError(f"{name} must lie in [0, 1], got {value}")
        if self.separability < 0:
            raise EvaluationError(f"separability must be nonnegative, got {self.separability}")

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
