"""Text embedding providers for the semantic index.

The reference embedder is a signed feature hash of word unigrams and bigrams.
It is deterministic across runs and platforms, which keeps retrieval tests
exact and hermetic. An external provider can be configured for deployments
that want a learned embedding model behind the same interface.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import re
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9]+")

DEFAULT_DIM = 256
MIN_DIM = 8
_FEATURE_MEMO_SIZE = 4096
_NORMALIZER_VERSION = "lc-strip-v1"


class EmbeddingError(ValueError):
    """Raised when no embedding can be produced for the input text."""


class TransportError(RuntimeError):
    """Raised when an external endpoint (embedder or policy) cannot be reached."""


@dataclass(frozen=True)
class EmbedderConfig:
    kind: str = "reference"  # "reference" | "external"
    d: int = DEFAULT_DIM
    endpoint: Optional[str] = None
    model: Optional[str] = None
    timeout: float = 10.0
    retries: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("reference", "external"):
            raise ValueError(f"unknown embedder kind {self.kind!r}")
        if self.d < MIN_DIM:
            raise ValueError(f"embedding dimension must be >= {MIN_DIM}")

    @property
    def embedder_id(self) -> str:
        if self.kind == "reference":
            return f"hashed-bow-v1+{_NORMALIZER_VERSION}:d={self.d}"
        return f"external:{self.model}:d={self.d}"


def normalize_text(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    return _TOKEN_RE.findall(text.lower())


# Captions draw on a small vocabulary (the whole desk suite has 268 distinct
# features), so a bounded memo answers nearly every lookup.
@functools.lru_cache(maxsize=_FEATURE_MEMO_SIZE)
def _hash_feature(feature: str) -> int:
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _buckets(features: Sequence[str], d: int) -> tuple[np.ndarray, np.ndarray]:
    """Each feature's bucket, and its sign (+1.0 or -1.0)."""
    hashes = np.fromiter(map(_hash_feature, features), dtype=np.uint64, count=len(features))
    return (hashes % d).astype(np.intp), np.where(hashes >> 63 != 0, 1.0, -1.0)


def _token_features(tokens: list[str]) -> list[str]:
    """Unigrams, then bigrams."""
    return [*tokens, *(f"{a}_{b}" for a, b in zip(tokens, tokens[1:]))]


# Every task of a scene meets the same few phrases.
@functools.lru_cache(maxsize=_FEATURE_MEMO_SIZE)
def _phrase_features(phrase: str, d: int) -> Optional[tuple[np.ndarray, np.ndarray, str, str]]:
    """A phrase's feature buckets and signs at dimension d (read-only), and
    its first and last token; None for a phrase without tokens."""
    tokens = normalize_text(phrase)
    if not tokens:
        return None
    buckets, signs = _buckets(_token_features(tokens), d)
    buckets.flags.writeable = signs.flags.writeable = False
    return buckets, signs, tokens[0], tokens[-1]


def _reference_embed(text: str, d: int) -> np.ndarray:
    tokens = normalize_text(text)
    if not tokens:
        raise EmbeddingError("text has no tokens after normalization")
    # Sums of +-1.0 are exact in any order, so this equals adding each sign
    # into its bucket in turn, bit for bit.
    vec = np.bincount(*_buckets(_token_features(tokens), d), minlength=d)
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        # Signed-hash cancellation can zero the vector in pathological cases;
        # fall back to a single deterministic unigram bucket.
        vec[:] = 0.0
        vec[_hash_feature(tokens[0]) % d] = 1.0
        norm = 1.0
    return vec / norm


def _default_post(url: str, payload: dict, timeout: float) -> dict:
    import requests

    resp = requests.post(url, json=payload, timeout=timeout)
    resp.raise_for_status()
    return resp.json()


def call_endpoint(post: Callable[[str, dict, float], dict], url: str, payload: dict,
                  timeout: float, retries: int, parse: Callable[[dict], Any]) -> Any:
    """POST payload to url and parse the reply, trying retries + 1 times in
    all (at least once). A failed post or parse counts as one failed try; the
    last failure is raised as TransportError."""
    last_error: Exception | None = None
    for _ in range(max(1, retries + 1)):
        try:
            return parse(post(url, payload, timeout))
        except Exception as exc:  # noqa: BLE001 - transport boundary
            last_error = exc
    raise TransportError(f"endpoint {url} failed: {last_error}")


def _external_embed(
    config: EmbedderConfig,
    text: str,
    post: Callable[[str, dict, float], dict],
) -> np.ndarray:
    if not config.endpoint:
        raise ValueError("external embedder requires an endpoint")
    vec = call_endpoint(
        post, config.endpoint, {"model": config.model, "input": text}, config.timeout, config.retries,
        lambda body: np.asarray(body["vector"], dtype=np.float64),
    )
    if vec.shape != (config.d,):
        raise TransportError(f"endpoint returned shape {vec.shape}, expected ({config.d},)")
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        raise TransportError("endpoint returned a zero vector")
    return vec / norm


def embed_text(
    config: EmbedderConfig,
    text: str,
    post: Callable[[str, dict, float], dict] = _default_post,
) -> np.ndarray:
    """Embed text into a unit-norm vector of dimension config.d."""
    if config.kind == "reference":
        return _reference_embed(text, config.d)
    return _external_embed(config, text, post)


class Embedder:
    """Callable wrapper with in-run memo tables.

    Patrol streams repeat captions heavily (a room looks the same from every
    landmark in it), so memoizing by exact text is a large win when embedding
    queries. Memories embed their captions in one batch (embed_captions),
    from phrase features memoized once per process (_phrase_features).
    """

    def __init__(self, config: EmbedderConfig, post: Callable[[str, dict, float], dict] = _default_post):
        self.config = config
        self._post = post
        self._memo: dict[str, np.ndarray] = {}

    @property
    def d(self) -> int:
        return self.config.d

    @property
    def embedder_id(self) -> str:
        return self.config.embedder_id

    def __call__(self, text: str) -> np.ndarray:
        """The unit-norm embedding of text. A memoized vector is read-only,
        since every later caller (and every record built from it) shares it."""
        hit = self._memo.get(text)
        if hit is not None:
            return hit
        vec = embed_text(self.config, text, post=self._post)
        vec.flags.writeable = False
        self._memo[text] = vec
        return vec

    def embed_captions(self, captions: Sequence[Sequence[str]]) -> np.ndarray:
        """The embeddings of captions given as phrases, as a (k, d) array:
        row i is self("; ".join(captions[i])), bit for bit.

        No token spans "; ", so a reference caption's features are its
        phrases' unigrams and bigrams plus, at each "; ", the bigram of the
        last token before it and the first token after it; a phrase without
        tokens adds none, and the tokens around it make that bigram. Its
        pre-norm vector adds each feature's sign into its bucket; sums of
        +-1.0 are exact in any order, so all captions are summed in one
        pass, and the row norms are those of the joined texts. Each phrase's
        buckets and signs come from a bounded process-wide memo. A caption
        without tokens, or whose counts cancel to zero, and every caption of
        an external embedder, goes through __call__.
        """
        d = self.d
        if self.config.kind != "reference":
            return np.array([self("; ".join(phrases)) for phrases in captions]).reshape(-1, d)
        # Each feature's bucket and sign, and the caption it counts for: the
        # phrases' features, then the bigrams at the "; "s.
        buckets, signs, sizes, pairs, pair_of = [np.empty(0, np.intp)], [np.empty(0)], [], [], []
        for i, phrases in enumerate(captions):
            size, last = 0, None
            for entry in map(_phrase_features, phrases, itertools.repeat(d)):
                if entry is None:
                    continue
                if last is not None:
                    pairs.append(f"{last}_{entry[2]}")
                    pair_of.append(i)
                buckets.append(entry[0])
                signs.append(entry[1])
                size += len(entry[0])
                last = entry[3]
            sizes.append(size)
        pair_b, pair_s = _buckets(pairs, d)
        k = len(captions)
        rows = np.concatenate([np.repeat(np.arange(k), sizes), np.array(pair_of, dtype=np.intp)])
        vecs = np.bincount(rows * d + np.concatenate([*buckets, pair_b]), weights=np.concatenate([*signs, pair_s]),
                           minlength=k * d).reshape(k, d).astype(np.float64, copy=False)
        norms = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))
        direct = norms < 1e-12
        norms[direct] = 1.0
        vecs /= norms[:, None]
        for i in np.flatnonzero(direct).tolist():
            vecs[i] = self("; ".join(captions[i]))
        return vecs


__all__ = [
    "DEFAULT_DIM",
    "MIN_DIM",
    "Embedder",
    "EmbedderConfig",
    "EmbeddingError",
    "TransportError",
    "call_endpoint",
    "embed_text",
    "normalize_text",
]
