"""Tests for the BELLE II file population."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads import files as files_module
from repro.workloads.files import (
    DEFAULT_FILE_COUNT,
    MAX_FILE_BYTES,
    MIN_FILE_BYTES,
    FileSpec,
    belle2_file_population,
)


class TestPopulation:
    def test_default_is_24_files(self):
        files = belle2_file_population()
        assert len(files) == DEFAULT_FILE_COUNT == 24

    def test_sizes_span_paper_range(self):
        files = belle2_file_population(seed=1)
        sizes = [f.size_bytes for f in files]
        assert min(sizes) == MIN_FILE_BYTES == 583_000
        assert max(sizes) == MAX_FILE_BYTES == 1_100_000_000
        assert all(MIN_FILE_BYTES <= s <= MAX_FILE_BYTES for s in sizes)

    def test_fids_sequential(self):
        files = belle2_file_population()
        assert [f.fid for f in files] == list(range(24))

    def test_paths_unique(self):
        files = belle2_file_population()
        assert len({f.path for f in files}) == 24

    def test_deterministic_per_seed(self):
        assert belle2_file_population(seed=3) == belle2_file_population(seed=3)

    def test_seeds_differ(self):
        a = belle2_file_population(seed=1)
        b = belle2_file_population(seed=2)
        assert [f.size_bytes for f in a] != [f.size_bytes for f in b]

    def test_custom_prefix(self):
        files = belle2_file_population(path_prefix="other/run")
        assert files[0].path.startswith("other/run/")

    def test_too_few_files_rejected(self):
        with pytest.raises(ConfigurationError):
            belle2_file_population(1)

    def test_invalid_bounds_rejected(self):
        assert 0 < files_module.MIN_FILE_BYTES < files_module.MAX_FILE_BYTES

    def test_filespec_positive_size(self):
        with pytest.raises(ConfigurationError):
            FileSpec(0, "a", 0)
