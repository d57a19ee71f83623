"""Locality-preserving file-path encoding (paper section V-E).

"To convert a file path, we assign a unique numerical index to each level of
the path.  Each index is combined together to form a unique number that
describes one path. ... we did not use hashes since we want files located in
similar locations to have close IDs to maintain a sense of locality.  For
example, a unique path and filename foo/bar/bat.root can be translated into
123 if foo is assigned to 1, bar is assigned to 2, and bat is assigned to 3."

The paper's digit-concatenation example is ambiguous once any level's
vocabulary exceeds nine entries, so this implementation combines per-level
indices positionally in a fixed ``base`` (default 1000): paths sharing a
prefix differ only in low-order digits, preserving the locality property the
paper wants, while remaining collision-free and decodable.
"""

from __future__ import annotations

from repro.errors import FeatureError


class PathEncoder:
    """Bidirectional path <-> integer codec with per-depth vocabularies."""

    def __init__(self, base: int = 1000, max_depth: int = 8) -> None:
        if base < 2:
            raise FeatureError(f"base must be >= 2, got {base}")
        if max_depth < 1:
            raise FeatureError(f"max_depth must be >= 1, got {max_depth}")
        self.base = int(base)
        self.max_depth = int(max_depth)
        # One vocabulary per path depth; index 0 is reserved for "absent
        # level" so shallow paths do not collide with deep ones.
        self._vocab: list[dict[str, int]] = [dict() for _ in range(max_depth)]
        self._reverse: list[list[str]] = [[""] for _ in range(max_depth)]

    @staticmethod
    def _split(path: str) -> list[str]:
        parts = [p for p in path.strip("/").split("/") if p]
        if not parts:
            raise FeatureError(f"cannot encode empty path {path!r}")
        return parts

    def encode(self, path: str) -> int:
        """Encode a path, growing the per-level vocabularies as needed."""
        parts = self._split(path)
        if len(parts) > self.max_depth:
            raise FeatureError(
                f"path depth {len(parts)} exceeds max_depth={self.max_depth}: "
                f"{path!r}"
            )
        code = 0
        for depth in range(self.max_depth):
            if depth < len(parts):
                index = self._index_for(depth, parts[depth])
            else:
                index = 0
            code = code * self.base + index
        return code

    def _index_for(self, depth: int, component: str) -> int:
        vocab = self._vocab[depth]
        index = vocab.get(component)
        if index is None:
            index = len(vocab) + 1  # 0 is the "absent" sentinel
            if index >= self.base:
                raise FeatureError(
                    f"vocabulary at depth {depth} exceeded base={self.base}; "
                    "construct the encoder with a larger base"
                )
            vocab[component] = index
            self._reverse[depth].append(component)
        return index

    def decode(self, code: int) -> str:
        """Invert :func:`encode` for a previously encoded path."""
        if code < 0:
            raise FeatureError(f"codes are non-negative, got {code}")
        indices = []
        for _ in range(self.max_depth):
            code, index = divmod(code, self.base)
            indices.append(index)
        indices.reverse()
        parts = []
        for depth, index in enumerate(indices):
            if index == 0:
                break
            try:
                parts.append(self._reverse[depth][index])
            except IndexError:
                raise FeatureError(
                    f"code contains unknown index {index} at depth {depth}"
                ) from None
        if not parts:
            raise FeatureError(f"code {code} decodes to an empty path")
        return "/".join(parts)

    def __len__(self) -> int:
        """Total number of distinct components seen across all depths."""
        return sum(len(v) for v in self._vocab)
