"""The whole ``bases x locations`` probe in one array.

``DRLEngine._score_locations`` builds these rows a block of bases at a
time from ``FeaturePipeline.build_location_probe_parts`` and never holds
them all; tests hold its blocks to this tensor.
"""

from __future__ import annotations


def location_probe_batch(pipeline, bases, fsids):
    """Every (base access, candidate location) probe row in one array.

    Row ``i * len(fsids) + j`` replicates base access ``i`` (``bases`` is
    a window of columns) with only the ``fsid`` column varying, set to
    ``fsids[j]``.
    """
    return pipeline.build_location_probe_block(
        *pipeline.build_location_probe_parts(
            pipeline.feature_matrix_from_columns(bases), fsids
        )
    )
