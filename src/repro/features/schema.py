"""Field registry for access telemetry.

The CERN EOS access logs describe each file interaction with 32 values
(paper section V-D).  This module catalogues the fields the paper discusses,
records their expected correlation sign with throughput (used when planting
correlations in the synthetic EOS trace, and asserted when reproducing
Fig. 4), and names the two feature sets the paper uses:

* :data:`LIVE_FEATURES` -- the six features used on the live Bluesky
  system (Z = 6).
* :data:`EOS_MODEL_FEATURES` -- the thirteen features used when training on
  the CERN EOS trace (Z = 13, section VIII).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FeatureError


@dataclass(frozen=True)
class FieldSpec:
    """Metadata for one telemetry field.

    ``expected_sign`` is the qualitative correlation with throughput the
    paper reports in Fig. 4: +1 positively correlated, -1 negatively,
    0 roughly uncorrelated.
    """

    name: str
    description: str
    expected_sign: int
    categorical: bool = False


#: The EOS access-log fields discussed in the paper (a representative subset
#: of the 32 raw values; every field the paper names appears here).
EOS_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("rb", "bytes read during the access", +1),
    FieldSpec("wb", "bytes written during the access", +1),
    FieldSpec("ots", "open timestamp, seconds part", +1),
    FieldSpec("otms", "open timestamp, milliseconds part", 0),
    FieldSpec("cts", "close timestamp, seconds part", +1),
    FieldSpec("ctms", "close timestamp, milliseconds part", 0),
    FieldSpec("fid", "EOS file id", 0),
    FieldSpec("fsid", "file-system (storage device) id", 0),
    FieldSpec("rt", "time spent in read calls", -1),
    FieldSpec("wt", "time spent in write calls", -1),
    FieldSpec("nrc", "number of read calls", -1),
    FieldSpec("nwc", "number of write calls", -1),
    FieldSpec("osize", "file size at open", +1),
    FieldSpec("csize", "file size at close", +1),
    FieldSpec("sfwdb", "seek-forward bytes", 0),
    FieldSpec("sbwdb", "seek-backward bytes", 0),
    FieldSpec("nfwds", "number of forward seeks", 0),
    FieldSpec("nbwds", "number of backward seeks", 0),
    FieldSpec("secgrps", "client security group", 0, categorical=True),
    FieldSpec("secrole", "client security role", 0, categorical=True),
    FieldSpec("secapp", "application identifier", 0, categorical=True),
    FieldSpec("day", "day of week of the access", 0),
)

_FIELDS_BY_NAME = {f.name: f for f in EOS_FIELDS}

#: The six features used for the live Bluesky experiment (Z = 6).
LIVE_FEATURES: tuple[str, ...] = ("rb", "wb", "ots", "otms", "cts", "ctms")

#: Identity features appended by the live pipeline (file and device ids,
#: paper: "File ID (fid)" and "File System ID (fsid)").
IDENTITY_FEATURES: tuple[str, ...] = ("fid", "fsid")

#: The thirteen features used for the CERN EOS model (Z = 13).
EOS_MODEL_FEATURES: tuple[str, ...] = (
    "rb", "wb", "ots", "otms", "cts", "ctms", "fid", "fsid",
    "osize", "csize", "nrc", "sfwdb", "day",
)


def field(name: str) -> FieldSpec:
    """Look up a field's metadata by name."""
    try:
        return _FIELDS_BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_FIELDS_BY_NAME))
        raise FeatureError(f"unknown field {name!r}; known: {known}") from None
