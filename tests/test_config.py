"""Run configuration defaults and validation."""

import json
import math

import pytest

from orbitnet.config import RunConfig, load_config


class TestDefaults:
    def test_reference_configuration(self):
        cfg = RunConfig()
        assert cfg.filter_size == 6
        assert cfg.num_layers == 4
        assert cfg.num_groups == 5
        assert cfg.group_order == 4
        assert cfg.alpha == 0.01
        assert cfg.lr == 0.01
        assert cfg.epochs == 100
        assert cfg.mu == 0.001
        assert cfg.loss_variant == "aux_inverse"

    def test_mu_default_tracks_variant(self):
        assert RunConfig(loss_variant="svd_sum").mu == 0.01
        assert RunConfig(loss_variant="svd_logdet").mu == 0.01
        assert RunConfig(loss_variant="aux_inverse").mu == 0.001
        assert RunConfig(loss_variant="svd_sum", mu=0.5).mu == 0.5


class TestValidation:
    def test_valid_default_passes(self):
        RunConfig().validate()

    def test_all_problems_enumerated_before_work(self):
        cfg = RunConfig(dataset="imagenet", task="detection", epochs=-1,
                        alpha=0.0)
        with pytest.raises(ValueError) as err:
            cfg.validate()
        message = str(err.value)
        for fragment in ("dataset", "task", "epochs", "alpha"):
            assert fragment in message

    def test_bad_loss_variant(self):
        with pytest.raises(ValueError, match="loss_variant"):
            RunConfig(loss_variant="ridge").validate()

    def test_bad_subset(self):
        with pytest.raises(ValueError, match="subset"):
            RunConfig(subset=0).validate()

    @pytest.mark.parametrize("field, value", [
        ("num_layers", 2.5), ("seed", 1.5), ("epochs", "5"),
        ("num_layers", True), ("alpha", False), ("subset", 2.0),
        ("dataset", 3)])
    def test_wrong_type_rejected(self, field, value, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: value}))
        message = rf"invalid configuration:\s+{field} must be a "
        with pytest.raises(ValueError, match=message):
            load_config(path)

    @pytest.mark.parametrize("field", ["alpha", "lr", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, field, value, tmp_path):
        # json.load reads NaN and Infinity, and --lr nan parses as a float
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: value}))
        message = rf"invalid configuration:\s+{field} must be finite"
        with pytest.raises(ValueError, match=message):
            load_config(path)
        with pytest.raises(ValueError, match=message):
            load_config(overrides={field: value})

    @pytest.mark.parametrize("value", [["svd_sum"], {"svd_sum": 1}])
    def test_unhashable_loss_variant_rejected(self, value, tmp_path):
        # the per-variant mu default must not look an unhashable value up
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"loss_variant": value}))
        with pytest.raises(ValueError, match=r"invalid configuration:\s+"
                                             r"loss_variant must be a str"):
            load_config(path)

    def test_int_counts_as_float_and_none_as_unset(self):
        RunConfig(alpha=1, lr=1, mu=0).validate()
        cfg = RunConfig(subset=None)
        cfg.mu = None
        cfg.validate()


class TestLoadConfig:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epochs": 7, "seed": 3}))
        cfg = load_config(path, {"seed": 9, "out_dir": None})
        assert cfg.epochs == 7
        assert cfg.seed == 9          # override wins
        assert cfg.out_dir == "runs/default"   # None override ignored

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"leerning_rate": 1.0}))
        with pytest.raises(ValueError, match="leerning_rate"):
            load_config(path)

    def test_overrides_keep_only_config_fields(self, tmp_path):
        # the CLI hands over its whole namespace, options like --threads
        # included
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epochs": 7}))
        cfg = load_config(path, {"command": "train", "threads": 1,
                                 "config": str(path), "seed": 4})
        assert (cfg.epochs, cfg.seed) == (7, 4)
        path.write_text(json.dumps({"epochs": 7, "threads": 1}))
        with pytest.raises(ValueError, match="threads"):
            load_config(path)

    def test_retired_keys_load_at_their_one_value(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epochs": 7, "squared_frobenius": False,
                                    "one_sided": True, "tied": False}))
        assert load_config(path) == RunConfig(epochs=7)

    @pytest.mark.parametrize("key, value", [
        ("squared_frobenius", True), ("one_sided", False), ("one_sided", 1),
        ("tied", True), ("tied", "no")])
    def test_retired_keys_at_another_value_rejected(self, tmp_path, key,
                                                     value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=key):
            load_config(path)

    @pytest.mark.parametrize("text, kind", [
        ("3", "number"), ("2.5", "number"), ("null", "null"),
        ('[{"a": 1}]', "array"), ('["tied"]', "array"), ('"tied"', "string"),
        ("true", "boolean")])
    def test_non_object_file_rejected(self, tmp_path, text, kind):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"invalid configuration: "
                                             rf".*cfg\.json.* JSON {kind}"):
            load_config(path)

    def test_no_file_all_defaults(self):
        assert load_config().epochs == 100
