"""Text embedding providers for the semantic index.

The reference embedder is a signed feature hash of word unigrams and bigrams.
It is deterministic across runs and platforms, which keeps retrieval tests
exact and hermetic. An external provider can be configured for deployments
that want a learned embedding model behind the same interface.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9]+")

DEFAULT_DIM = 256
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
        if self.d < 8:
            raise ValueError("embedding dimension must be >= 8")

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


def _reference_embed(text: str, d: int) -> np.ndarray:
    tokens = normalize_text(text)
    if not tokens:
        raise EmbeddingError("text has no tokens after normalization")
    features = list(tokens)
    features.extend(f"{a}_{b}" for a, b in zip(tokens, tokens[1:]))
    hashes = [_hash_feature(feat) for feat in features]
    idx = np.fromiter((h % d for h in hashes), dtype=np.intp, count=len(hashes))
    signs = np.fromiter((1.0 if (h >> 63) & 1 else -1.0 for h in hashes), dtype=np.float64,
                        count=len(hashes))
    # Sums of +-1.0 are exact in any order, so this equals adding each sign
    # into its bucket in turn, bit for bit.
    vec = np.bincount(idx, weights=signs, minlength=d)
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
    """Callable wrapper with an optional in-run memo table.

    Patrol streams repeat captions heavily (a room looks the same from every
    landmark in it), so memoizing by exact text is a large win when building
    memories.
    """

    def __init__(self, config: EmbedderConfig, memoize: bool = True,
                 post: Callable[[str, dict, float], dict] = _default_post):
        self.config = config
        self._post = post
        self._memo: Optional[dict[str, np.ndarray]] = {} if memoize else None

    @property
    def d(self) -> int:
        return self.config.d

    @property
    def embedder_id(self) -> str:
        return self.config.embedder_id

    def __call__(self, text: str) -> np.ndarray:
        """The unit-norm embedding of text. A memoized vector is read-only,
        since every later caller (and every record built from it) shares it."""
        if self._memo is not None:
            hit = self._memo.get(text)
            if hit is not None:
                return hit
        vec = embed_text(self.config, text, post=self._post)
        if self._memo is not None:
            vec.flags.writeable = False
            self._memo[text] = vec
        return vec


__all__ = [
    "DEFAULT_DIM",
    "Embedder",
    "EmbedderConfig",
    "EmbeddingError",
    "TransportError",
    "call_endpoint",
    "embed_text",
    "normalize_text",
]
