import json

import numpy as np
import pytest

import _oracles as orc
from berezin import bergman, finite, fock, hardy
from berezin.io import (
    dump_matrix,
    load_matrix,
    load_matrix_obj,
    model_from_descriptor,
    model_to_descriptor,
    parse_model_spec,
    save_matrix,
)


class TestMatrixRoundTrip:
    def test_bit_identical(self, rng, tmp_path):
        a = orc.rand_complex(rng, 5) * 1e3
        a[0, 0] = 1e-308  # subnormal-adjacent values must survive too
        path = tmp_path / "m.json"
        save_matrix(path, a)
        b = load_matrix(path)
        assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_json_is_plain_data(self, rng, tmp_path):
        a = orc.rand_complex(rng, 2)
        path = tmp_path / "m.json"
        save_matrix(path, a)
        obj = json.loads(path.read_text())
        assert set(obj) == {"rows", "cols", "data"}
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert len(obj["data"]) == 4 and all(len(p) == 2 for p in obj["data"])

    def test_row_major_order(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        obj = dump_matrix(a)
        assert [p[0] for p in obj["data"]] == [1.0, 2.0, 3.0, 4.0]

    def test_rectangular(self, tmp_path):
        a = np.arange(6, dtype=float).reshape(2, 3).astype(complex)
        path = tmp_path / "r.json"
        save_matrix(path, a)
        assert np.array_equal(load_matrix(path), a)


class TestMatrixValidation:
    def _ok(self):
        return {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}

    def test_accepts_minimal(self):
        assert load_matrix_obj(self._ok()).shape == (1, 1)

    def test_rejects_missing_key(self):
        obj = self._ok()
        del obj["cols"]
        with pytest.raises(ValueError):
            load_matrix_obj(obj)

    def test_rejects_extra_key(self):
        obj = self._ok()
        obj["comment"] = "hi"
        with pytest.raises(ValueError):
            load_matrix_obj(obj)

    def test_rejects_wrong_length(self):
        obj = self._ok()
        obj["rows"] = 2
        with pytest.raises(ValueError):
            load_matrix_obj(obj)

    def test_rejects_nonfinite(self):
        obj = self._ok()
        obj["data"] = [[float("inf"), 0.0]]
        with pytest.raises(ValueError):
            load_matrix_obj(obj)

    def test_rejects_bool_entries(self):
        obj = self._ok()
        obj["data"] = [[True, 0.0]]
        with pytest.raises(ValueError):
            load_matrix_obj(obj)

    def test_rejects_bad_pair(self):
        obj = self._ok()
        obj["data"] = [[1.0]]
        with pytest.raises(ValueError):
            load_matrix_obj(obj)

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            load_matrix_obj({"rows": 0, "cols": 1, "data": []})

    @pytest.mark.parametrize("pair", [[10**401, 0], [0, -(10**401)], [2**1024, 0]])
    def test_rejects_entries_a_float64_cannot_hold(self, pair):
        obj = self._ok()
        obj["data"] = [pair]
        with pytest.raises(ValueError, match="within float64 range"):
            load_matrix_obj(obj)

    def test_accepts_a_large_integer_a_float64_holds(self):
        obj = self._ok()
        obj["data"] = [[10**308, -(10**308)]]
        assert load_matrix_obj(obj)[0, 0] == complex(1e308, -1e308)

    @pytest.mark.parametrize("shape", [(True, True), (1, True), (True, 1)])
    def test_rejects_bool_shape(self, shape):
        # a bool is an int in Python, but not a JSON integer
        rows, cols = shape
        with pytest.raises(ValueError, match="rows and cols must be positive integers"):
            load_matrix_obj({"rows": rows, "cols": cols, "data": [[1, 0]]})


class TestModelDescriptors:
    def test_round_trip_finite(self):
        m = finite(4)
        assert model_from_descriptor(model_to_descriptor(m)) == m

    def test_round_trip_hardy(self):
        m = hardy(12, 0.5)
        assert model_from_descriptor(model_to_descriptor(m)) == m

    def test_round_trip_bergman(self):
        m = bergman(7, 0.8)
        assert model_from_descriptor(model_to_descriptor(m)) == m

    def test_round_trip_fock(self):
        m = fock(9, 2.5)
        desc = model_to_descriptor(m)
        assert desc == {"kind": "fock", "degree": 9, "R": 2.5}
        assert model_from_descriptor(desc) == m

    def test_absent_fields_take_the_factory_defaults(self):
        assert model_from_descriptor({"kind": "fock"}) == fock()
        assert model_from_descriptor({"kind": "hardy", "rho": 0.5}) == hardy(rho=0.5)
        assert model_from_descriptor({"kind": "bergman", "degree": 4}) == bergman(4)

    def test_finite_needs_n(self):
        with pytest.raises(ValueError, match="finite model needs n"):
            model_from_descriptor({"kind": "finite"})

    @pytest.mark.parametrize("desc", [
        {"kind": "hardy", "degree": None},
        {"kind": "finite", "n": [2]},
        {"kind": "finite", "n": True},
        {"kind": "fock", "R": True},
        {"kind": "fock", "R": "3"},
        {"kind": "hardy", "degree": 15.0},
        {"kind": "bergman", "rho": {"value": 0.5}},
    ])
    def test_rejects_fields_that_are_not_json_numbers_of_their_type(self, desc):
        with pytest.raises(ValueError, match="must be a JSON (integer|number)"):
            model_from_descriptor(desc)

    @pytest.mark.parametrize("desc", [
        {"kind": "fock", "R": 10**401},
        {"kind": "hardy", "rho": -(10**401)},
        {"kind": "bergman", "rho": 2**1024},
    ])
    def test_rejects_float_fields_a_float64_cannot_hold(self, desc):
        with pytest.raises(ValueError, match="must be a JSON number within float64 range"):
            model_from_descriptor(desc)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            model_from_descriptor({"kind": "sobolev", "n": 3})

    @pytest.mark.parametrize("kind", [None, ["hardy"], 3])
    def test_rejects_a_kind_that_is_not_a_string(self, kind):
        with pytest.raises(ValueError, match="unknown model kind"):
            model_from_descriptor({"kind": kind, "n": 3})

    def test_rejects_extra_field(self):
        with pytest.raises(ValueError):
            model_from_descriptor({"kind": "finite", "n": 3, "rho": 0.5})


class TestModelSpecs:
    def test_compact_forms(self):
        assert str(parse_model_spec("finite:4")) == "finite:4"
        assert str(parse_model_spec("hardy:15:0.95")) == "hardy:15:0.95"
        assert str(parse_model_spec("fock:15:3")) == "fock:15:3"

    def test_defaults_fill_in(self):
        m = parse_model_spec("hardy")
        assert m.degree == 15 and m.radius == pytest.approx(0.95)

    def test_rejects_garbage(self):
        for bad in ("", "finite", "finite:x", "hardy:15:2", "nope:3"):
            with pytest.raises(ValueError):
                parse_model_spec(bad)

    @pytest.mark.parametrize("bad", ["finite:4:1", "hardy:15:0.5:1", "fock:15:3:0", "hardy:15.0"])
    def test_rejects_extra_fields_and_fractional_degrees(self, bad):
        with pytest.raises(ValueError, match="bad model spec"):
            parse_model_spec(bad)

    @pytest.mark.parametrize("spec, desc", [
        ("finite:4", {"kind": "finite", "n": 4}),
        ("hardy:12", {"kind": "hardy", "degree": 12}),
        ("bergman:7:0.8", {"kind": "bergman", "degree": 7, "rho": 0.8}),
        ("fock:9:2.5", {"kind": "fock", "degree": 9, "R": 2.5}),
        ("fock", {"kind": "fock"}),
    ])
    def test_spec_is_the_descriptor_in_field_order(self, spec, desc):
        assert parse_model_spec(spec) == model_from_descriptor(desc)
