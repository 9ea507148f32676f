"""The :class:`TokenizedString` value type.

A tokenized string ``x^t = {x^t1, ..., x^tm}`` is a finite *multiset* of
tokens (Sec. II-A of the paper).  Duplicate tokens are permitted and
significant: ``{"ann", "ann"}`` differs from ``{"ann"}``.

The class is immutable and hashable so instances can be used as MapReduce
keys and set members.  It caches the statistics the TSJ filters need:

* ``aggregate_length`` -- ``L(x^t)``, the sum of token lengths;
* ``token_count``      -- ``T(x^t)``, the number of tokens;
* ``length_histogram`` -- a mapping ``token length -> multiplicity`` used by
  the distance-lower-bound filter (Sec. III-E.2).

The multiset views (``length_histogram``, ``token_multiset``,
``distinct_tokens``) are built lazily on first access and cached: the TSJ
fan-out jobs touch every record once per pipeline stage, and rebuilding a
Counter/frozenset per stage dominated their map-side allocation.
``length_histogram`` returns a read-only mapping proxy over the cached
dict; ``token_multiset`` hands out a cheap per-call copy of the cached
Counter (so callers may still mutate their result, as before).
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping


class TokenizedString:
    """An immutable multiset of string tokens.

    Tokens are stored in sorted order so that two tokenized strings with the
    same multiset of tokens compare and hash equal regardless of the order in
    which tokens were supplied.

    Parameters
    ----------
    tokens:
        Any iterable of tokens.  Empty tokens are dropped on construction:
        the set-level edits ``AddEmptyToken`` / ``RemoveEmptyToken`` are free
        (Def. 3), so empty tokens never change any distance and keeping them
        would only distort ``T(.)``.

    Examples
    --------
    >>> name = TokenizedString(["lee", "ann", "", "ann"])
    >>> name
    TokenizedString(['ann', 'ann', 'lee'])
    >>> name.aggregate_length, name.token_count, dict(name.length_histogram)
    (9, 3, {3: 3})
    >>> name == TokenizedString(["ann", "lee", "ann"])
    True
    """

    __slots__ = (
        "_tokens",
        "_aggregate_length",
        "_hash",
        "_histogram",
        "_multiset",
        "_distinct",
    )

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        cleaned = sorted(token for token in tokens if token)
        object.__setattr__(self, "_tokens", tuple(cleaned))
        object.__setattr__(
            self, "_aggregate_length", sum(len(token) for token in cleaned)
        )
        object.__setattr__(self, "_hash", hash(self._tokens))
        # Lazily-built cached views (see the module docstring).
        object.__setattr__(self, "_histogram", None)
        object.__setattr__(self, "_multiset", None)
        object.__setattr__(self, "_distinct", None)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_canonical(cls, tokens: tuple[str, ...]) -> "TokenizedString":
        """Trusted constructor for already-canonical token tuples.

        ``tokens`` must be sorted and hold no empty strings -- the
        invariants ``__init__`` establishes.  The snapshot decoder uses
        this to skip the clean-and-sort pass on rows it has already
        validated; everyone else should construct normally.
        """
        self = cls.__new__(cls)
        object.__setattr__(self, "_tokens", tokens)
        object.__setattr__(self, "_aggregate_length", sum(map(len, tokens)))
        object.__setattr__(self, "_hash", hash(tokens))
        object.__setattr__(self, "_histogram", None)
        object.__setattr__(self, "_multiset", None)
        object.__setattr__(self, "_distinct", None)
        return self

    @classmethod
    def from_text(cls, text: str, separator: str | None = None) -> "TokenizedString":
        """Build from raw text using naive whitespace splitting.

        This is a convenience for tests and examples; real pipelines should
        use :class:`repro.tokenize.Tokenizer`, which also strips punctuation.
        """
        return cls(text.split(separator))

    # -- multiset protocol ----------------------------------------------------

    @property
    def tokens(self) -> tuple[str, ...]:
        """The tokens in canonical (sorted) order."""
        return self._tokens

    @property
    def token_count(self) -> int:
        """``T(x^t)`` -- the number of tokens."""
        return len(self._tokens)

    @property
    def aggregate_length(self) -> int:
        """``L(x^t)`` -- the total number of characters over all tokens."""
        return self._aggregate_length

    @property
    def length_histogram(self) -> Mapping[int, int]:
        """Histogram mapping each token length to its multiplicity.

        TSJ ships this histogram with each tokenized-string id so reducers
        can compute SLD lower bounds without materialising the tokens
        (Sec. III-E.2).  Cached after the first access and returned as a
        read-only mapping proxy (mutation raises ``TypeError``).
        """
        histogram = self._histogram
        if histogram is None:
            histogram = MappingProxyType(
                dict(Counter(len(token) for token in self._tokens))
            )
            object.__setattr__(self, "_histogram", histogram)
        return histogram

    def token_multiset(self) -> Counter:
        """The tokens as a :class:`collections.Counter` multiset.

        The Counter is built once and cached; each call returns a shallow
        copy (``O(distinct tokens)``, no re-hashing of the token strings)
        so callers may mutate their result safely.
        """
        multiset = self._multiset
        if multiset is None:
            multiset = Counter(self._tokens)
            object.__setattr__(self, "_multiset", multiset)
        return multiset.copy()

    def distinct_tokens(self) -> frozenset[str]:
        """The distinct token values (multiplicity discarded).

        Cached after the first access (frozensets are immutable anyway).
        """
        distinct = self._distinct
        if distinct is None:
            distinct = frozenset(self._tokens)
            object.__setattr__(self, "_distinct", distinct)
        return distinct

    def __iter__(self) -> Iterator[str]:
        return iter(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: object) -> bool:
        return token in self._tokens

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenizedString):
            return NotImplemented
        return self._tokens == other._tokens

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "TokenizedString") -> bool:
        if not isinstance(other, TokenizedString):
            return NotImplemented
        return self._tokens < other._tokens

    def __repr__(self) -> str:
        return f"TokenizedString({list(self._tokens)!r})"

    def __str__(self) -> str:
        return " ".join(self._tokens)

    # -- immutability ---------------------------------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TokenizedString is immutable")

    def __reduce__(self):
        return (TokenizedString, (list(self._tokens),))
