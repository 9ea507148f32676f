"""``SimilarityIndex`` <-> snapshot sections: what durability preserves.

A :class:`repro.service.SimilarityIndex` is rebuilt state over one input:
the raw names.  A snapshot persists one shard kernel's *expensive*
derived state -- the tokenized records as interned token-id rows, the
vocab's token table, the token postings and the Lemma 6 length
partition -- as flat ``int64`` columns plus string tables, so a cold
load is array reconstruction instead of re-tokenizing and re-interning
the corpus.  :func:`index_to_sections` / :func:`index_from_sections` are
the flat single-file codec of a one-shard index; the sharded store
writes one such section set per kernel (:func:`shard_to_sections` /
:func:`shard_from_sections`, ``cache_size`` 0) under its manifest.

Deliberately *not* persisted, because it is cheap, lazily built, or
process-local: the Myers ``Peq`` masks (lazy per token on first use;
results and simulated costs are identical by construction since the
vocab memo re-charges metered work on every hit), the encoded
histograms and the probe's dense histogram ids (recomputed from the
restored records in one pass), the result cache and pool publication
tokens (the last already excluded from pickling for the same reason).

Restoration trusts the container's CRCs for byte integrity but still
cross-checks section shapes against each other (row counts, offset
monotonicity, id ranges): a snapshot that passes checksums yet is
internally inconsistent -- a truncated writer bug, a hand-edited file --
must fail as :class:`~repro.api.errors.CorruptSnapshotError`, never
serve wrong results.

Sections::

    meta             JSON: record count, backend, cache_size, tokenizer
    names            string table (raw names, record-id order)
    tokens           string table (vocab tokens, token-id order)
    record_offsets   int64, per record: end offset into record_tokens
    record_tokens    int64, flattened token-id rows (sorted within a row)
    postings_keys    int64, per postings slot: the interned token id
    postings_offsets int64, per slot: end offset into postings
    postings         int64, flattened record-id posting lists
    length_values    int64, sorted aggregate lengths (Lemma 6 partition)
    length_ids       int64, the record ids aligned with length_values
"""

from __future__ import annotations

import json

from repro.api.errors import CorruptSnapshotError
from repro.store.format import (
    pack_int_array,
    pack_strings,
    unpack_int_array,
    unpack_strings,
)
from repro.tokenize import Tokenizer

__all__ = ["index_to_sections", "index_from_sections"]

_REQUIRED_SECTIONS = (
    "meta",
    "names",
    "tokens",
    "record_offsets",
    "record_tokens",
    "postings_keys",
    "postings_offsets",
    "postings",
    "length_values",
    "length_ids",
)


def index_to_sections(index) -> dict[str, bytes]:
    """Serialise a one-shard ``SimilarityIndex`` into named snapshot
    sections (its result-cache capacity goes into the meta)."""
    if len(index.shards) != 1:
        raise ValueError(
            f"the flat snapshot holds one shard; this index has "
            f"{len(index.shards)} (save it with ShardedSnapshotStore)"
        )
    return shard_to_sections(
        index.shards[0], index.tokenizer, index.backend, index.result_cache.capacity
    )


def shard_to_sections(shard, tokenizer, backend: str, cache_size: int):
    """Serialise one shard kernel, with the owning index's tokenizer,
    backend and the ``cache_size`` to record, into snapshot sections."""
    vocab = shard._vocab
    tokens = [vocab.token(token_id) for token_id in range(len(vocab))]
    token_id_of = {token: token_id for token_id, token in enumerate(tokens)}

    record_tokens: list[int] = []
    record_offsets: list[int] = []
    for record in shard.records:
        record_tokens.extend(token_id_of[token] for token in record.tokens)
        record_offsets.append(len(record_tokens))

    token_postings = shard._token_postings
    keys = list(token_postings.interner.signatures())
    postings_flat: list[int] = []
    postings_offsets: list[int] = []
    for postings in token_postings.postings:
        postings_flat.extend(postings)
        postings_offsets.append(len(postings_flat))

    meta = {
        "records": len(shard.records),
        "backend": backend,
        "cache_size": cache_size,
        "tokenizer": {
            "lowercase": tokenizer.lowercase,
            "min_token_length": tokenizer.min_token_length,
            "extra_separators": tokenizer.extra_separators,
        },
    }
    return {
        "meta": json.dumps(meta, ensure_ascii=False).encode("utf-8"),
        "names": pack_strings(shard.names),
        "tokens": pack_strings(tokens),
        "record_offsets": pack_int_array(record_offsets),
        "record_tokens": pack_int_array(record_tokens),
        "postings_keys": pack_int_array(keys),
        "postings_offsets": pack_int_array(postings_offsets),
        "postings": pack_int_array(postings_flat),
        "length_values": pack_int_array(
            length for length, _ in shard._lengths
        ),
        "length_ids": pack_int_array(
            record_id for _, record_id in shard._lengths
        ),
    }


def index_from_sections(sections: dict[str, bytes]):
    """Reconstruct a one-shard ``SimilarityIndex`` from validated
    snapshot sections.

    Raises :class:`~repro.api.errors.CorruptSnapshotError` when the
    sections are missing or mutually inconsistent.
    """
    from repro.service import SimilarityIndex
    from repro.shard.placement import LengthPlacement

    shard, meta = shard_from_sections(sections)
    return SimilarityIndex.from_shards(
        [shard],
        LengthPlacement(1, ()),
        [range(len(shard))],
        tokenizer=Tokenizer(**meta["tokenizer"]),
        backend=meta["backend"],
        cache_size=meta["cache_size"],
    )


def shard_from_sections(sections: dict[str, bytes]):
    """Reconstruct one shard kernel from validated snapshot sections;
    returns ``(kernel, meta)`` (typed errors as :func:`index_from_sections`)."""
    from repro.accel import Vocab
    from repro.candidates import PostingsIndex
    from repro.service.index import _ShardKernel

    def fail(reason: str) -> CorruptSnapshotError:
        return CorruptSnapshotError(f"corrupt snapshot: {reason}")

    missing = [name for name in _REQUIRED_SECTIONS if name not in sections]
    if missing:
        raise fail(f"missing section(s) {missing}")

    meta = _decode_meta(sections["meta"])
    names = unpack_strings(sections["names"], "names")
    tokens = unpack_strings(sections["tokens"], "tokens")
    record_offsets = unpack_int_array(sections["record_offsets"], "record_offsets")
    record_tokens = unpack_int_array(sections["record_tokens"], "record_tokens")
    postings_keys = unpack_int_array(sections["postings_keys"], "postings_keys")
    postings_offsets = unpack_int_array(
        sections["postings_offsets"], "postings_offsets"
    )
    postings_flat = unpack_int_array(sections["postings"], "postings")
    length_values = unpack_int_array(sections["length_values"], "length_values")
    length_ids = unpack_int_array(sections["length_ids"], "length_ids")

    record_count = meta["records"]
    if len(names) != record_count or len(record_offsets) != record_count:
        raise fail(
            f"meta claims {record_count} records but names/record_offsets "
            f"hold {len(names)}/{len(record_offsets)}"
        )
    if len(length_values) != record_count or len(length_ids) != record_count:
        raise fail("length partition rows do not match the record count")
    if len(postings_keys) != len(postings_offsets):
        raise fail("postings_keys and postings_offsets disagree on slot count")

    records, histograms = _decode_records(
        tokens, record_offsets, record_tokens, fail
    )
    postings = _decode_postings(
        postings_keys, postings_offsets, postings_flat, len(tokens),
        record_count, PostingsIndex, fail,
    )

    lengths: list[tuple[int, int]] = []
    previous = None
    for value, record_id in zip(length_values, length_ids):
        if not 0 <= record_id < record_count:
            raise fail(f"length partition names record id {record_id}")
        entry = (value, record_id)
        if previous is not None and entry < previous:
            raise fail("length partition is not sorted")
        previous = entry
        lengths.append(entry)

    shard = _ShardKernel(meta["backend"])
    shard.names = names
    shard.records = records
    shard._vocab = Vocab(tokens)
    shard._token_postings = postings
    shard._lengths = lengths
    shard._histogram_ids = [shard._histogram_slot(h) for h in histograms]

    expected = sorted(
        (record.aggregate_length, record_id)
        for record_id, record in enumerate(records)
    )
    if expected != lengths:
        raise fail("length partition disagrees with the restored records")
    return shard, meta


def _decode_meta(payload: bytes) -> dict:
    def fail(reason: str) -> CorruptSnapshotError:
        return CorruptSnapshotError(f"corrupt snapshot: meta section {reason}")

    try:
        meta = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise fail(f"is undecodable: {exc}") from exc
    if not isinstance(meta, dict):
        raise fail("is not an object")
    records = meta.get("records")
    tokenizer = meta.get("tokenizer")
    if (
        not isinstance(records, int)
        or records < 0
        or not isinstance(meta.get("backend"), str)
        or not isinstance(meta.get("cache_size"), int)
        or meta["cache_size"] < 0
        or not isinstance(tokenizer, dict)
        or not isinstance(tokenizer.get("lowercase"), bool)
        or not isinstance(tokenizer.get("min_token_length"), int)
        or not isinstance(tokenizer.get("extra_separators"), str)
        or set(tokenizer) != {"lowercase", "min_token_length", "extra_separators"}
    ):
        raise fail("holds malformed fields")
    return meta


def _decode_records(tokens, record_offsets, record_tokens, fail):
    """Record rows plus their encoded histograms, in one decode pass."""
    from repro.tokenize import TokenizedString

    records = []
    histograms = []
    token_count = len(tokens)
    start = 0
    for stop in record_offsets:
        if stop < start or stop > len(record_tokens):
            raise fail("record_offsets are non-monotonic or out of range")
        row_ids = record_tokens[start:stop]
        if row_ids and not 0 <= min(row_ids) <= max(row_ids) < token_count:
            raise fail("a record row names an unknown token id")
        row = [tokens[token_id] for token_id in row_ids]
        # Rows are persisted in each record's canonical order (sorted,
        # no empty tokens: the empty string would sort first), which the
        # trusted constructor below relies on; anything else is writer
        # damage the container CRCs cannot see.
        if row != sorted(row) or (row and not row[0]):
            raise fail("a record row is not in canonical token order")
        records.append(TokenizedString._from_canonical(tuple(row)))
        counts: dict[int, int] = {}
        for token in row:
            length = len(token)
            counts[length] = counts.get(length, 0) + 1
        histograms.append(tuple(sorted(counts.items())))
        start = stop
    if start != len(record_tokens):
        raise fail("record_tokens holds bytes past the last record row")
    return records, histograms


def _decode_postings(
    keys, offsets, flat, token_count, record_count, postings_cls, fail
):
    postings_index = postings_cls()
    interner_ids = postings_index.interner._ids
    columns = postings_index.postings
    start = 0
    for slot, (key, stop) in enumerate(zip(keys, offsets)):
        if not 0 <= key < token_count:
            raise fail(f"postings slot {slot} keys unknown token id {key}")
        if key in interner_ids:
            raise fail(f"postings key {key} appears in two slots")
        if stop < start or stop > len(flat):
            raise fail("postings_offsets are non-monotonic or out of range")
        column = flat[start:stop]
        if len(column) and not 0 <= min(column) <= max(column) < record_count:
            raise fail(f"postings slot {slot} names an unknown record id")
        interner_ids[int(key)] = slot
        columns.append(column)
        start = stop
    if start != len(flat):
        raise fail("postings holds bytes past the last slot")
    return postings_index
