"""Reference embedder determinism and retrieval-ordering properties."""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objsearch.embed import (
    Embedder,
    EmbedderConfig,
    EmbeddingError,
    TransportError,
    _hash_feature,
    _phrase_features,
    embed_text,
    normalize_text,
)


REF = EmbedderConfig(d=256)


def cosine(a, b):
    return float(a @ b)


def test_normalization_pipeline():
    assert normalize_text("A red MUG, on the table!") == ["a", "red", "mug", "on", "the", "table"]


def test_deterministic_across_calls():
    a = embed_text(REF, "red mug")
    b = embed_text(REF, "red mug")
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


def test_platform_determinism_frozen_digest():
    # Pinned from the reference implementation of the hash pipeline; a change
    # here means embeddings (and all stored memories) are incompatible.
    import hashlib

    vec = embed_text(REF, "a red mug on the kitchen counter")
    digest = hashlib.sha256(vec.tobytes()).hexdigest()
    assert digest == "35ec95f528da19081cd594e48958ea03a1ec42e1b348396fd36174f6806826f1"


def test_unit_norm():
    for text in ("red mug", "a very long caption with many repeated words words words"):
        assert np.linalg.norm(embed_text(REF, text)) == pytest.approx(1.0, abs=1e-6)


def test_dimension_respected():
    cfg = EmbedderConfig(d=64)
    assert embed_text(cfg, "red mug").shape == (64,)
    with pytest.raises(ValueError):
        EmbedderConfig(d=4)


def test_empty_text_raises():
    with pytest.raises(EmbeddingError):
        embed_text(REF, "...!!!")


def test_shared_tokens_order_similarity():
    q = embed_text(REF, "red mug")
    close = embed_text(REF, "red mug on the table")
    far = embed_text(REF, "blue sofa")
    assert cosine(close, q) > cosine(far, q)


def test_identical_caption_scores_one():
    a = embed_text(REF, "a red mug on the sink")
    b = embed_text(REF, "a red mug on the sink")
    assert cosine(a, b) == pytest.approx(1.0, abs=1e-6)


def test_token_overlap_monotonicity():
    """For equal-length captions, sharing strictly more tokens with the query
    should win the cosine comparison in at least 95% of random trials."""
    rng = random.Random(42)
    vocab = [f"tok{i}" for i in range(200)]
    wins = 0
    trials = 400
    for _ in range(trials):
        base = rng.sample(vocab, 6)
        overlap_hi = rng.randrange(3, 6)
        overlap_lo = rng.randrange(0, overlap_hi)
        rest = [w for w in vocab if w not in base]
        b = base[:overlap_hi] + rng.sample(rest, 6 - overlap_hi)
        c = base[:overlap_lo] + rng.sample([w for w in rest if w not in b], 6 - overlap_lo)
        a_vec = embed_text(REF, " ".join(base))
        if cosine(embed_text(REF, " ".join(b)), a_vec) > cosine(embed_text(REF, " ".join(c)), a_vec):
            wins += 1
    assert wins / trials >= 0.95


def test_memo_table_returns_same_vector():
    emb = Embedder(REF)
    v1 = emb("red mug")
    v2 = emb("red mug")
    assert v1 is v2


def test_external_embedder_round_trip():
    calls = []

    def fake_post(url, payload, timeout):
        calls.append((url, payload))
        vec = embed_text(REF, payload["input"])
        return {"vector": [float(x) * 3.0 for x in vec]}  # caller renormalizes

    cfg = EmbedderConfig(kind="external", d=256, endpoint="http://embed.local", model="m1")
    vec = embed_text(cfg, "red mug", post=fake_post)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-6)
    assert calls[0][0] == "http://embed.local"
    assert calls[0][1] == {"model": "m1", "input": "red mug"}


def test_external_embedder_transport_error_after_retries():
    attempts = []

    def failing_post(url, payload, timeout):
        attempts.append(1)
        raise ConnectionError("refused")

    cfg = EmbedderConfig(kind="external", d=8, endpoint="http://embed.local", retries=2)
    with pytest.raises(TransportError):
        embed_text(cfg, "red mug", post=failing_post)
    assert len(attempts) == 3


def test_external_embedder_rejects_bad_shape():
    def bad_post(url, payload, timeout):
        return {"vector": [1.0, 2.0]}

    cfg = EmbedderConfig(kind="external", d=8, endpoint="http://embed.local")
    with pytest.raises(TransportError):
        embed_text(cfg, "red mug", post=bad_post)


def reference_embed_loop(text, d):
    """The per-feature accumulation the reference embedder is defined by."""
    tokens = normalize_text(text)
    features = tokens + [f"{a}_{b}" for a, b in zip(tokens, tokens[1:])]
    vec = np.zeros(d, dtype=np.float64)
    for feat in features:
        h = _hash_feature.__wrapped__(feat)
        vec[h % d] += 1.0 if (h >> 63) & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        vec[:] = 0.0
        vec[_hash_feature.__wrapped__(tokens[0]) % d] = 1.0
        norm = 1.0
    return vec / norm


WORDS = ["a", "red", "mug", "on", "the", "sink", "inside", "drawer", "green", "folder", "x", "7"]


@settings(max_examples=200, deadline=None)
@given(
    text=st.one_of(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=60).map(" ".join),
        st.text(alphabet="abc xyz019_,.;!", min_size=1, max_size=80),
    ),
    d=st.sampled_from([8, 9, 64, 256]),
)
def test_reference_embed_equals_per_feature_loop(text, d):
    if not normalize_text(text):
        with pytest.raises(EmbeddingError):
            embed_text(EmbedderConfig(d=d), text)
        return
    got = embed_text(EmbedderConfig(d=d), text)
    want = reference_embed_loop(text, d)
    assert got.dtype == want.dtype and got.shape == (d,)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_feature_memo_is_bounded():
    for memo in (_hash_feature, _phrase_features):
        info = memo.cache_info()
        assert info.maxsize is not None and info.maxsize <= 65536


def fake_external_post(url, payload, timeout):
    return {"vector": [float(x) for x in embed_text(REF, payload["input"])]}


@pytest.mark.parametrize("config", [
    REF,
    EmbedderConfig(kind="external", d=256, endpoint="http://embed.local", model="m1"),
], ids=["reference", "external"])
def test_memo_vectors_are_read_only(config):
    emb = Embedder(config, post=fake_external_post)
    v = emb("red mug")
    snapshot = v.copy()
    with pytest.raises(ValueError):
        v *= 0.5
    with pytest.raises(ValueError):
        v[0] = 1.0
    assert np.array_equal(emb("red mug"), snapshot)
    assert embed_text(config, "red mug", fake_external_post).flags.writeable


PHRASE_WORDS = ["a", "red", "mug", "on", "the", "sink", "inside", "fridge", "nothing", "notable", "x_y", "7"]
PHRASES = st.one_of(
    st.lists(st.sampled_from(PHRASE_WORDS), min_size=1, max_size=8).map(" ".join),
    st.text(alphabet="ab z09_,.!", max_size=12),  # may have no tokens
)


def assert_rows_equal_calls(emb, texts):
    got = emb.embed_captions(texts)
    want = np.array([embed_text(emb.config, text, fake_external_post) for text in texts]).reshape(len(texts), emb.d)
    assert got.shape == (len(texts), emb.d) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    captions=st.lists(st.lists(PHRASES, min_size=1, max_size=5).map("; ".join), max_size=12),
    d=st.sampled_from([8, 64, 256]),
)
def test_embed_captions_rows_equal_calls(captions, d):
    """Each batch row is the embedding of its caption (phrases joined by
    "; "), bit for bit, also when phrases repeat across captions, on a
    reused phrase memo, and with captions that have no tokens at all (which
    raise, as they do one by one)."""
    emb = Embedder(EmbedderConfig(d=d))
    if any(not normalize_text(c) for c in captions):
        with pytest.raises(EmbeddingError):
            emb.embed_captions(captions)
        return
    assert_rows_equal_calls(emb, captions)
    assert_rows_equal_calls(emb, captions[::-1])


# Parts of texts: words, upper case among them, that repeat; parts without
# tokens; ";" or "; " inside a part, with or without the space; and capitals
# whose lower case is a token (U+0130 lowers to "i" and a combining dot, the
# Kelvin sign U+212A to "k").
TEXT_PARTS = st.one_of(
    st.lists(st.sampled_from(PHRASE_WORDS + ["Red", "MUG", "Sink", "A"]), min_size=1, max_size=6).map(" ".join),
    st.sampled_from(["", " ", "!!", ";", "; ", " ;", ";;", "a;b", "mug;", ";red"]),
    st.text(alphabet="aB z9_;,. \u0130\u212a", max_size=10),
)


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.lists(TEXT_PARTS, min_size=1, max_size=6).map("; ".join), max_size=10),
       d=st.sampled_from([8, 64, 256]))
def test_embed_captions_equals_call_for_any_text(texts, d):
    """embed_captions(texts) is [emb(t) for t in texts], bit for bit, for
    texts split at "; " into parts of any kind (empty, without tokens, with
    a ";" of their own, in upper case, repeated), and raises EmbeddingError
    wherever __call__ does."""
    emb = Embedder(EmbedderConfig(d=d))
    want = []
    for text in texts:
        try:
            want.append(emb(text))
        except EmbeddingError:
            with pytest.raises(EmbeddingError):
                Embedder(EmbedderConfig(d=d)).embed_captions(texts)
            return
    got = Embedder(EmbedderConfig(d=d)).embed_captions(texts)
    assert got.shape == (len(texts), d) and got.dtype == np.float64
    assert got.tobytes() == np.array(want).reshape(len(texts), d).tobytes()


@pytest.mark.parametrize("d", [8, 64, 256])
def test_embed_captions_single_phrase_and_empty_caption(d):
    emb = Embedder(EmbedderConfig(d=d))
    assert_rows_equal_calls(emb, ["nothing notable", "a red mug on the sink"])
    assert_rows_equal_calls(emb, [])
    assert_rows_equal_calls(emb, ["a red mug on the sink; !!; a book inside the fridge"])


def test_embed_captions_zero_norm_goes_through_call(monkeypatch):
    """An odd number of +-1 features never sums to zero, so cancellation can
    only be forced: with every sign zeroed, both paths fall back to the
    caption's first unigram."""
    import objsearch.embed as embed_module

    buckets = embed_module._buckets
    monkeypatch.setattr(embed_module, "_buckets", lambda features, d: (buckets(features, d)[0], np.zeros(len(features))))
    # A fresh phrase memo: the process-wide one may hold these phrases with
    # their true signs, and must not keep the zeroed ones.
    fresh = functools.lru_cache(maxsize=None)(embed_module._phrase_features.__wrapped__)
    monkeypatch.setattr(embed_module, "_phrase_features", fresh)
    emb = Embedder(EmbedderConfig(d=64))
    got = emb.embed_captions(["a red mug; on the sink"])
    assert got.tobytes() == emb("a red mug; on the sink").tobytes()
    assert np.count_nonzero(got) == 1


def test_embed_captions_external_kind_calls_endpoint_per_caption():
    config = EmbedderConfig(kind="external", d=256, endpoint="http://embed.local", model="m1")
    inputs = []

    def post(url, payload, timeout):
        inputs.append(payload["input"])
        return fake_external_post(url, payload, timeout)

    emb = Embedder(config, post=post)
    captions = ["a red mug on the sink; a book on the desk", "nothing notable"]
    assert_rows_equal_calls(emb, captions)
    assert inputs == ["a red mug on the sink; a book on the desk", "nothing notable"]
