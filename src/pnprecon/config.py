"""Sectioned key-value experiment configs: parse, validate, canonicalize.

Format: `[section]` headers, `key = value` lines, `#` comments, one global
`seed` key allowed before the first section.  Unknown sections or keys are
hard errors with line diagnostics; the canonical re-serialization is what
gets hashed into provenance records.
"""

import hashlib
import os
from dataclasses import dataclass

from .util import fmt

__all__ = ["ConfigError", "FileFormatError", "ExperimentConfig",
           "parse_config", "load_config", "canonical_text", "config_hash"]


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


class FileFormatError(ConfigError):
    """A data, image or checkpoint file that is malformed or truncated."""


def _floats(text):
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


# section -> key -> (parser, default); sections in canonical order
_SCHEMA = {
    "": {
        "seed": (int, 12345),
    },
    "phantoms": {
        "count": (int, 5),
        "n_test": (int, 1),
        "grid_size": (int, 48),
        "family_seed": (int, 7),
    },
    "geometry": {
        "n_angles": (int, 48),
        "n_bins": (int, 69),
        "bin_width": (float, 1.0),
    },
    "simulation": {
        "n_doses": (int, 5),
        "dose_center": (float, 1.0),
        "dose_decades": (float, 1.0),
        "background_fraction": (float, 0.2),
    },
    "osem": {
        "n_iterations": (int, 8),
    },
    "net": {
        "n_layers": (int, 5),
        "channels": (int, 16),
        "init_scale": (float, 0.1),
        "certify_power_iters": (int, 30),
    },
    "train.pre": {
        "epochs": (int, 50),
        "learning_rate": (float, 0.001),
        "batch_size": (int, 1),
        "power_iters": (int, 10),
        "sigma_eval_samples": (int, 8),
    },
    "train.jac": {
        "epochs": (int, 14),
        "learning_rate": (float, 0.0005),
        "batch_size": (int, 5),
        "beta": (float, 10.0),
        "alpha": (float, 0.1),
        "epsilon": (float, 0.05),
        "power_iters": (int, 10),
        "sigma_eval_samples": (int, 8),
    },
    "admm": {
        "rho": (float, 10.0),
        "iterations": (int, 40),
        "prox_inner": (int, 30),
        "n_test_sims": (int, 3),
        "filter_sigmas": (_floats, [0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]),
    },
    "sweep": {
        "rhos": (str, "0.001,0.01,0.3,3.0,30.0"),
        "iterations": (int, 40),
    },
    "paths": {
        "data": (str, "runs/data"),
        "train": (str, "runs/train"),
        "recon": (str, "runs/recon"),
        "sweep": (str, "runs/sweep"),
        "certify": (str, "runs/certify"),
    },
}


@dataclass
class ExperimentConfig:
    values: dict          # section -> key -> parsed value
    base_dir: str = "."

    def __getitem__(self, section):
        return self.values[section]

    @property
    def seed(self):
        return self.values[""]["seed"]


def parse_config(text, base_dir="."):
    values = {sec: dict() for sec in _SCHEMA}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA or section == "":
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        schema = _SCHEMA[section]
        if key not in schema:
            where = f"[{section}]" if section else "the global scope"
            raise ConfigError(f"line {lineno}: unknown key {key!r} in {where}")
        if key in values[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parser = schema[key][0]
        try:
            values[section][key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    for sec, schema in _SCHEMA.items():
        for key, (_, default) in schema.items():
            if key not in values[sec]:
                values[sec][key] = default if not isinstance(default, list) else list(default)
    return ExperimentConfig(values=values, base_dir=base_dir)


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def _fmt_value(v):
    if isinstance(v, list):
        return ",".join(fmt(x) for x in v)
    return fmt(v)


def canonical_text(cfg):
    """Fixed section and key order; parsing it back is the identity."""
    lines = []
    for sec in _SCHEMA:
        if sec:
            lines.append(f"[{sec}]")
        for key in _SCHEMA[sec]:
            lines.append(f"{key} = {_fmt_value(cfg.values[sec][key])}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg):
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()
