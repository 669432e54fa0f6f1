"""Directory-backed sequence manifest tying the pipeline stages together.

A sequence lives in one directory with a ``manifest.json`` naming every
artifact by a relative path; ``new_item`` and ``write_trace`` make every
name.  Stages record a provenance tag (name plus config snapshot) when
they run; later stages refuse to start until their prerequisites are
tagged, and re-running a stage drops the tags of every stage downstream
of it.  All JSON is written with sorted keys and no timestamps so
re-running a stage on unchanged inputs is byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .fields import Field2
from .formats import (read_pfm, read_pfm_samples, read_ppm, write_json, write_pfm,
                      write_ppm)
from .warpmap import UVMap

MANIFEST_NAME = "manifest.json"
# Top-level manifest keys that describe the sequence; every other key but
# ``has_parts`` names an artifact.
LAYOUT_KEYS = ("version", "image_size", "texture_size", "frames", "stages")
# Each stage's prerequisite, listed before the stages that depend on it.
STAGE_PREREQ = {"corrupt": "gen", "extend": "corrupt", "optimize": "extend",
                "relocate": "optimize", "synth": "relocate", "retexture": "relocate",
                "metrics": "synth"}


def config_dict(cfg) -> dict:
    """A config dataclass's fields as the stage tag's snapshot."""
    return dataclasses.asdict(cfg)


def uv_silhouette(samples: np.ndarray) -> np.ndarray:
    """The (H, W) silhouette of packed UV samples: third channel above 0.5."""
    return samples[..., 2] > 0.5


def uv_pairs(samples: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Float64 (u, v) offsets of packed UV samples, (H, W, 2); with an
    (H, W) boolean ``mask``, those of the masked pixels in row-major
    order, (n, 2).

    Each pixel's pair is widened as a complex number: one strided loop
    instead of a two-element inner loop per pixel.
    """
    h, w, _ = samples.shape
    pixels = samples.reshape(h * w, 3)
    if mask is not None:
        # A boolean selection from a 1-D array of 12-byte items copies each
        # run of selected pixels at once.
        items = pixels.view(np.dtype((np.void, 12))).reshape(-1)
        pixels = items[mask.reshape(-1)].view(samples.dtype).reshape(-1, 3)
    pair = np.dtype(np.complex64).newbyteorder(samples.dtype.byteorder)
    uv = pixels[:, :2].view(pair).astype(np.complex128).view(np.float64)
    return uv if mask is not None else uv.reshape(h, w, 2)


def _check_shape(path: Path, samples: np.ndarray, size, kind: str,
                 channels: int | None = 3):
    """Raise unless a ``kind`` file's (H, W, C) ``samples`` are ``size``
    (width, height) with ``channels`` channels, or with any number when
    ``channels`` is None."""
    w, h = size
    fh, fw, c = samples.shape
    if (fh, fw) != (h, w) or channels not in (None, c):
        expected = f"{w}x{h}" if channels is None else f"{w}x{h} with {channels}"
        raise ValidationError(
            f"{path.name}: {kind} file is {fw}x{fh} with {c} channel(s), "
            f"expected {expected}")


def _file_names(directory: str) -> set:
    """Names of the entries of ``directory`` that are files, symlinks
    followed; empty when it cannot be listed."""
    try:
        with os.scandir(directory) as entries:
            return {e.name for e in entries if e.is_file()}
    except OSError:
        return set()


class Manifest:
    def __init__(self, root, data: dict):
        self.root = Path(root)
        self.data = data

    @classmethod
    def create(cls, root, image_size, texture_size, n_frames: int) -> "Manifest":
        root = Path(root)
        (root / "frames").mkdir(parents=True, exist_ok=True)
        data = {
            "version": 1,
            "image_size": list(image_size),
            "texture_size": list(texture_size),
            "frames": [{"index": i} for i in range(n_frames)],
            "stages": {},
        }
        return cls(root, data)

    @classmethod
    def load(cls, root) -> "Manifest":
        root = Path(root)
        path = root / MANIFEST_NAME
        if not path.is_file():
            raise ValidationError(f"no manifest at {path}")
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as e:
                raise ValidationError(f"malformed manifest: {e}")
        if not isinstance(data, dict):
            raise ValidationError("malformed manifest: not a JSON object")
        for key in LAYOUT_KEYS:
            if key not in data:
                raise ValidationError(f"manifest missing key {key!r}")
        for key in ("image_size", "texture_size"):
            size = data[key]
            if not (isinstance(size, list) and len(size) == 2
                    and all(type(v) is int and v > 0 for v in size)):
                raise ValidationError(f"manifest {key} must be two positive integers")
        if not isinstance(data["stages"], dict):
            raise ValidationError("manifest stages must be an object")
        frames = data["frames"]
        if not (isinstance(frames, list) and all(isinstance(fr, dict) for fr in frames)):
            raise ValidationError("manifest frames must be a list of objects")
        if not frames:
            raise ValidationError("manifest frames must list at least one frame")
        for i, fr in enumerate(frames):
            if fr.get("index") != i:
                raise ValidationError("manifest frame indices must be contiguous from 0")
            if not all(isinstance(rel, str) for key, rel in fr.items() if key != "index"):
                raise ValidationError(f"manifest frame {i} has a path that is not a string")
        if data.get("has_parts", False):
            raise ValidationError("manifest has_parts is not supported: "
                                  "UV maps hold one chart and a silhouette")
        items = {key: rel for key, rel in data.items()
                 if key not in LAYOUT_KEYS and key != "has_parts"}
        for key, rel in items.items():
            if not isinstance(rel, str):
                raise ValidationError(f"manifest {key} is not a path")
        # One listing per directory instead of one stat per file: a name
        # listed as a file is one, and only an unlisted name is checked
        # on its own, so what fails fails with Path.is_file's verdict.
        listed = {}
        for rel in [*items.values(),
                    *(rel for fr in frames for key, rel in fr.items() if key != "index")]:
            folder, name = os.path.split(rel)
            names = listed.get(folder)
            if names is None:
                names = listed[folder] = _file_names(os.path.join(root, folder))
            if name not in names and not (root / rel).is_file():
                raise ValidationError(f"manifest references missing file {rel}")
        return cls(root, data)

    def save(self):
        write_json(self.root / MANIFEST_NAME, self.data, indent=2)

    @property
    def n_frames(self) -> int:
        return len(self.data["frames"])

    @property
    def image_size(self):
        return tuple(self.data["image_size"])

    @property
    def texture_size(self):
        return tuple(self.data["texture_size"])

    def mark_stage(self, name: str, cfg: dict | None = None):
        """Tag ``name`` as run and drop the tags of every stage downstream."""
        stages = self.data["stages"]
        stages[name] = {"config": cfg or {}}
        stale = {name}
        for stage, prereq in STAGE_PREREQ.items():
            if prereq in stale:
                stale.add(stage)
                stages.pop(stage, None)

    def require_stage(self, name: str):
        if name not in self.data["stages"]:
            raise ValidationError(f"stage '{name}' must run before this one")

    def require_prereq(self, stage: str):
        """Raise unless the stage that ``stage`` runs after has run."""
        self.require_stage(STAGE_PREREQ[stage])

    # -- artifact helpers ---------------------------------------------------

    def new_item(self, key: str, suffix: str, frame: int | None = None) -> Path:
        """Name the sequence's ``key`` artifact ``<key>.<suffix>``, or frame
        ``frame``'s ``frames/f<frame>_<key>.<suffix>``, and return its path.
        The name may precede the file: stages save the manifest only once
        every write has succeeded."""
        if frame is None:
            rel = self.data[key] = f"{key}.{suffix}"
        else:
            rel = self.data["frames"][frame][key] = f"frames/f{frame:04d}_{key}.{suffix}"
        return self.root / rel

    def write_trace(self, index: int, stage: str, record: dict):
        """Write frame ``index``'s ``stage`` record as sorted-key JSON,
        ``traces/f<index>_<stage>.json``, item ``<stage>_trace``; the first
        record makes ``traces/``."""
        rel = f"traces/f{index:04d}_{stage}.json"
        (self.root / "traces").mkdir(exist_ok=True)
        write_json(self.root / rel, record)
        self.data["frames"][index][f"{stage}_trace"] = rel

    def frame_item(self, index: int, key: str):
        """Path of frame ``index``'s ``key`` artifact; ValidationError if unnamed."""
        rel = self.data["frames"][index].get(key)
        if rel is None:
            raise ValidationError(f"frame {index} has no {key!r} artifact")
        return self.root / rel

    def item(self, key: str):
        """Path of the sequence's ``key`` artifact; ValidationError if unnamed."""
        rel = self.data.get(key)
        if rel is None:
            raise ValidationError(f"manifest has no {key!r} artifact")
        return self.root / rel

    # -- typed readers/writers ----------------------------------------------

    def write_uv(self, index: int, key: str, P: UVMap):
        """Frame ``index``'s packed UV item ``key``: (u, v) and the silhouette."""
        packed = np.concatenate([P.uv.data, P.silhouette[..., None].astype(np.float64)],
                                axis=2)
        write_pfm(self.new_item(key, "pfm", frame=index), packed)

    def read_uv_samples(self, index: int, key: str) -> np.ndarray:
        """A packed UV file's samples as stored: float32 (H, W, 3), the (u, v)
        offsets and a channel that ``uv_silhouette`` reads.

        Raises ValidationError unless the file holds the sequence's image
        size, three channels and only finite samples.
        """
        path = self.frame_item(index, key)
        samples = read_pfm_samples(path)
        _check_shape(path, samples, self.image_size, "packed UV")
        if not np.isfinite(samples).all():
            raise ValidationError(f"{path.name}: packed UV file holds non-finite samples")
        return samples

    def read_uv(self, index: int, key: str) -> UVMap:
        samples = self.read_uv_samples(index, key)
        # the samples are finite, so the UV field needs no second check
        return UVMap(Field2._wrap(uv_pairs(samples)), uv_silhouette(samples))

    def write_mask(self, index: int, key: str, mask: np.ndarray):
        write_pfm(self.new_item(key, "pfm", frame=index), mask.astype(np.float64))

    def read_mask(self, index: int, key: str) -> np.ndarray:
        """Channel 0 above 0.5 of a mask file of the image size, any channel count."""
        path = self.frame_item(index, key)
        samples = read_pfm(path)
        _check_shape(path, samples, self.image_size, "mask", channels=None)
        return samples[..., 0] > 0.5

    def write_image(self, index: int, key: str, img: Field2):
        write_ppm(self.new_item(key, "ppm", frame=index), img.data)

    def read_image(self, index: int, key: str, valid: np.ndarray | None = None) -> Field2:
        """An image file of the image size as a 3-channel ``Field2``."""
        path = self.frame_item(index, key)
        img = read_ppm(path)
        _check_shape(path, img, self.image_size, "image")
        return Field2(img, valid=valid)

    def write_texture(self, key: str, T: Field2):
        """The sequence's texture item ``key``."""
        write_pfm(self.new_item(key, "pfm"), T.data)

    def read_texture(self, key: str) -> Field2:
        """The sequence's texture item ``key`` as a 3-channel ``Field2``.

        Raises ValidationError unless the file holds the sequence's texture
        size and three channels.
        """
        path = self.item(key)
        tex = read_pfm(path)
        _check_shape(path, tex, self.texture_size, "texture")
        return Field2(tex)

    def write_corr(self, index: int, key: str, Q: Field2):
        """Frame ``index``'s packed correspondence item ``key``: positions in
        frame 0's texture and their validity."""
        packed = np.concatenate([Q.data, Q.mask()[..., None].astype(np.float64)],
                                axis=2)
        write_pfm(self.new_item(key, "pfm", frame=index), packed)
