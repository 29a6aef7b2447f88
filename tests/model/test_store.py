"""Tests for optimizer-table persistence (§6: 'stored for repeated
future use')."""

from __future__ import annotations

import json

import pytest

from repro.model.optimizer import OptimizerTable, hull_of_optimality
from repro.model.params import hypothetical, ipsc860
from repro.model.store import (
    load_shard,
    load_table,
    params_fingerprint,
    save_shard,
    save_table,
    table_from_dict,
    table_to_dict,
)


@pytest.fixture(scope="module")
def table():
    return hull_of_optimality(5, ipsc860())


class TestRoundtrip:
    def test_dict_roundtrip(self, table):
        doc = table_to_dict(table, ipsc860())
        restored, params = table_from_dict(doc)
        assert restored == table
        assert params == ipsc860()

    def test_file_roundtrip(self, table, tmp_path):
        path = save_table(table, ipsc860(), tmp_path / "d5.json")
        restored, params = load_table(path)
        assert restored.lookup(40.0) == table.lookup(40.0)
        assert restored.boundaries == table.boundaries
        assert params.name == "iPSC-860"

    def test_lookup_after_restore(self, table, tmp_path):
        path = save_table(table, ipsc860(), tmp_path / "d5.json")
        restored, _ = load_table(path)
        for m in (0.0, 50.0, 100.0, 400.0):
            assert restored.lookup(m) == table.lookup(m)


class TestValidation:
    def test_parameter_fingerprint_guard(self, table, tmp_path):
        path = save_table(table, ipsc860(), tmp_path / "d5.json")
        with pytest.raises(ValueError, match="different constants"):
            load_table(path, expected_params=hypothetical())

    def test_matching_fingerprint_accepted(self, table, tmp_path):
        path = save_table(table, ipsc860(), tmp_path / "d5.json")
        restored, _ = load_table(path, expected_params=ipsc860())
        assert restored == table

    def test_rejects_unknown_format(self, table, tmp_path):
        doc = table_to_dict(table, ipsc860())
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="format"):
            table_from_dict(doc)

    def test_rejects_corrupt_segments(self, table, tmp_path):
        doc = table_to_dict(table, ipsc860())
        doc["segments"][0] = [9, 9]
        with pytest.raises(ValueError, match="partition"):
            table_from_dict(doc)

    @pytest.mark.parametrize("segment", [[7, 0], [8, -1]])
    def test_rejects_non_partition_segments_that_sum_right(self, segment):
        # both shapes sum to d=7; only a full partition check catches them
        doc = table_to_dict(hull_of_optimality(7, ipsc860()), ipsc860())
        doc["segments"][0] = segment
        with pytest.raises(ValueError, match="corrupt table: segment .* positive"):
            table_from_dict(doc)

    def test_rejects_mismatched_lengths(self, table):
        doc = table_to_dict(table, ipsc860())
        doc["boundaries"].append(500.0)
        with pytest.raises(ValueError, match="segments"):
            table_from_dict(doc)

    def test_file_is_plain_json(self, table, tmp_path):
        path = save_table(table, ipsc860(), tmp_path / "d5.json")
        doc = json.loads(path.read_text())
        assert doc["d"] == 5

    def test_rejects_tampered_fingerprint(self, table):
        doc = table_to_dict(table, ipsc860())
        doc["params"]["latency"] = 1.0
        with pytest.raises(ValueError, match="fingerprint"):
            table_from_dict(doc)

    def test_rejects_unsorted_boundaries(self, table):
        doc = table_to_dict(table, ipsc860())
        if len(doc["boundaries"]) < 2:
            doc["boundaries"] = [50.0, 10.0]
            doc["segments"] = [doc["segments"][0]] * 3
        else:
            doc["boundaries"] = list(reversed(doc["boundaries"]))
        with pytest.raises(ValueError, match="sorted"):
            table_from_dict(doc)


class TestFormatCompat:
    def test_documents_are_v2(self, table):
        doc = table_to_dict(table, ipsc860())
        assert doc["format_version"] == 2
        assert doc["fingerprint"] == params_fingerprint(ipsc860())

    def test_unknown_params_field_is_a_clean_error(self, table):
        doc = table_to_dict(table, ipsc860())
        doc["params"]["bogus_key"] = 1
        with pytest.raises(ValueError, match="bad machine parameters"):
            table_from_dict(doc)

    def test_v2_document_without_fingerprint_rejected(self, table):
        doc = table_to_dict(table, ipsc860())
        del doc["fingerprint"]
        with pytest.raises(ValueError, match="missing its parameter fingerprint"):
            table_from_dict(doc)

    def test_v1_documents_still_load(self, table):
        """Fingerprint-less documents written by earlier releases keep
        loading through the same entry points."""
        doc = table_to_dict(table, ipsc860())
        doc["format_version"] = 1
        del doc["fingerprint"]
        restored, params = table_from_dict(doc)
        assert restored == table
        assert params == ipsc860()

    def test_v1_file_roundtrip(self, table, tmp_path):
        doc = table_to_dict(table, ipsc860())
        doc["format_version"] = 1
        del doc["fingerprint"]
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        restored, _ = load_table(path, expected_params=ipsc860())
        assert restored == table


class TestDegenerateTables:
    """The d=1 family: trivial and empty tables must round-trip."""

    def test_d1_roundtrip(self, tmp_path):
        table = hull_of_optimality(1, ipsc860())
        path = save_table(table, ipsc860(), tmp_path / "d1.json")
        restored, _ = load_table(path)
        assert restored == table
        assert restored.lookup(40.0) == (1,)

    def test_empty_segments_roundtrip(self):
        empty = OptimizerTable(d=1, params_name="iPSC-860", boundaries=(), segments=())
        doc = table_to_dict(empty, ipsc860())
        restored, _ = table_from_dict(doc)
        assert restored == empty

    def test_empty_table_lookup_raises_clearly(self):
        empty = OptimizerTable(d=1, params_name="iPSC-860", boundaries=(), segments=())
        with pytest.raises(ValueError, match="empty"):
            empty.lookup(10.0)

    def test_boundaries_without_segments_rejected(self):
        empty = OptimizerTable(d=1, params_name="iPSC-860", boundaries=(), segments=())
        doc = table_to_dict(empty, ipsc860())
        doc["boundaries"] = [10.0]
        with pytest.raises(ValueError, match="no segments"):
            table_from_dict(doc)


class TestShardFiles:
    @pytest.fixture(scope="class")
    def tables(self):
        params = ipsc860()
        return {d: hull_of_optimality(d, params) for d in (1, 5, 6)}

    def test_roundtrip_all_dims(self, tables, tmp_path):
        path = save_shard(tables, ipsc860(), tmp_path / "ipsc860.shard")
        shard = load_shard(path)
        assert shard.dims == (1, 5, 6)
        assert shard.params == ipsc860()
        for d, expected in tables.items():
            assert shard.load(d) == expected

    def test_lazy_load_caches(self, tables, tmp_path):
        path = save_shard(tables, ipsc860(), tmp_path / "s.shard")
        shard = load_shard(path)
        assert shard.load(5) is shard.load(5)

    def test_unload_forces_rematerialization(self, tables, tmp_path):
        path = save_shard(tables, ipsc860(), tmp_path / "s.shard")
        shard = load_shard(path)
        first = shard.load(5)
        shard.unload(5)
        again = shard.load(5)
        assert again is not first and again == first
        shard.unload(4)  # never loaded: a no-op, not an error

    def test_contains_and_missing_dim(self, tables, tmp_path):
        path = save_shard(tables, ipsc860(), tmp_path / "s.shard")
        shard = load_shard(path)
        assert 5 in shard and 4 not in shard
        with pytest.raises(KeyError, match="no table for d=4"):
            shard.load(4)

    def test_accepts_iterable_of_tables(self, tables, tmp_path):
        path = save_shard(tables.values(), ipsc860(), tmp_path / "s.shard")
        assert load_shard(path).dims == (1, 5, 6)

    def test_rejects_foreign_table(self, tables, tmp_path):
        with pytest.raises(ValueError, match="built on"):
            save_shard(tables, hypothetical(), tmp_path / "bad.shard")

    def test_rejects_non_shard_file(self, tmp_path):
        path = tmp_path / "not.shard"
        path.write_bytes(b"definitely not a shard")
        with pytest.raises(ValueError, match="not an optimizer shard"):
            load_shard(path)

    def test_rejects_tampered_header(self, tables, tmp_path):
        path = save_shard(tables, ipsc860(), tmp_path / "s.shard")
        raw = path.read_bytes()
        tampered = raw.replace(b'"latency": 95.0', b'"latency": 90.0')
        assert tampered != raw
        path.write_bytes(tampered)
        with pytest.raises(ValueError, match="fingerprint"):
            load_shard(path)

    def test_truncated_payload_is_a_clean_error(self, tables, tmp_path):
        path = save_shard(tables, ipsc860(), tmp_path / "s.shard")
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="corrupt shard .* holds"):
            load_shard(path)

    def test_missing_header_field_is_a_clean_error(self, tables, tmp_path):
        import json
        import struct

        path = save_shard(tables, ipsc860(), tmp_path / "s.shard")
        raw = path.read_bytes()
        header_len = struct.unpack("<QQ", raw[8:24])[1]
        header = json.loads(raw[24 : 24 + header_len])
        del header["fingerprint"]
        new_header = json.dumps(header, sort_keys=True).encode()
        prefix = raw[:8] + struct.pack("<QQ", 2, len(new_header))
        pad = b"\0" * ((-(len(prefix) + len(new_header))) % 8)
        old_payload = 24 + header_len + ((-(24 + header_len)) % 8)
        path.write_bytes(prefix + new_header + pad + raw[old_payload:])
        with pytest.raises(ValueError, match="missing header field"):
            load_shard(path)

    @pytest.mark.parametrize("bad", [(7, 0), (8, -1)])
    def test_rejects_non_partition_segments_that_sum_right(self, tmp_path, bad):
        import struct

        table = OptimizerTable(
            d=7, params_name=ipsc860().name, boundaries=(), segments=((4, 3),)
        )
        path = save_shard({7: table}, ipsc860(), tmp_path / "s.shard")
        raw = path.read_bytes()
        good = struct.pack("<qq", 4, 3)
        assert raw.count(good) == 1
        path.write_bytes(raw.replace(good, struct.pack("<qq", *bad)))
        shard = load_shard(path)  # the header is intact; tables load lazily
        with pytest.raises(ValueError, match="corrupt table: segment .* positive"):
            shard.load(7)

    def test_rejects_empty_shard(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            save_shard({}, ipsc860(), tmp_path / "empty.shard")

    def test_fingerprint_distinguishes_presets(self):
        assert params_fingerprint(ipsc860()) != params_fingerprint(hypothetical())
        assert params_fingerprint(ipsc860()) == params_fingerprint(ipsc860())
