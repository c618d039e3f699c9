"""Parameter checkpoints: named arrays plus an optional config echo.

Values are stored and read back as float64, to which float32 widens
exactly; the caller records the dtype to narrow back to in the config echo
(`models.save_model` does).  Two on-disk variants share the same logical
content:

* text: a `mtvqa-ckpt v2 text <n>` header, a `config <json>` line, then one
  line per parameter: name, tab, space-joined dims, tab, the hex of the
  values' big-endian float64 bytes (bit-exact, NaN payloads included).
  `v1` files, whose values field holds space-joined decimals, still load.
* binary: a numpy .npz archive (`meta` json member + one array member per
  parameter).  Round-trips are bit-exact.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import FormatError, open_archive, open_text

_TEXT_VALUES = {"v1": lambda vals: np.array(vals.split(), dtype=np.float64),  # by header version
                "v2": lambda vals: np.frombuffer(bytes.fromhex(vals), ">f8").astype(np.float64)}


def save_checkpoint(path, params, config=None, binary=True):
    """Write `params` (mapping name -> ndarray) to `path`."""
    names = list(params.keys())
    if binary:
        meta = json.dumps({"version": 1, "names": names, "config": config})
        arrays = {f"arr_{i}": np.asarray(params[n], dtype=np.float64) for i, n in enumerate(names)}
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(meta), **arrays)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"mtvqa-ckpt v2 text {len(names)}\n")
        fh.write("config " + json.dumps(config) + "\n")
        for n in names:
            arr = np.asarray(params[n], dtype=np.float64)
            dims = " ".join(str(d) for d in arr.shape) or "-"
            vals = arr.astype(">f8").tobytes().hex()
            fh.write(f"{n}\t{dims}\t{vals}\n")


def load_checkpoint(path):
    """Read a checkpoint in either variant. Returns (params dict, config)."""
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"PK":
        return _load_binary(path)
    return _load_text(path)


def _load_binary(path):
    with open_archive(path, "checkpoint") as z:
        meta = json.loads(str(z["meta"]))
        if meta.get("version") != 1:
            raise FormatError(f"{path}: unsupported checkpoint version {meta.get('version')}")
        params = {n: np.asarray(z[f"arr_{i}"], dtype=np.float64)
                  for i, n in enumerate(meta["names"])}
    return params, meta.get("config")


def _load_text(path):
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    head = lines[0].split(" ", 3) if lines else []
    if len(head) < 3 or head[0] != "mtvqa-ckpt" or head[2] != "text":
        raise FormatError(f"{path}: missing checkpoint header")
    try:
        decode, count = _TEXT_VALUES[head[1]], int(head[3])
    except (KeyError, IndexError, ValueError) as exc:
        raise FormatError(f"{path}: bad checkpoint header {lines[0]!r}") from exc
    if len(lines) < 2 or not lines[1].startswith("config "):
        raise FormatError(f"{path}: missing config line")
    params = {}
    try:  # bad JSON, or a wrong field count, dim or value, or dims the values do not fill
        config = json.loads(lines[1][len("config "):])
        for ln in lines[2:2 + count]:
            name, dims, vals = ln.split("\t")
            shape = () if dims == "-" else tuple(int(d) for d in dims.split())
            if min(shape, default=0) < 0:
                raise ValueError(f"negative dimension in {dims!r}")
            params[name] = decode(vals).reshape(shape)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed checkpoint ({exc})") from exc
    if len(params) != count or len(lines) != 2 + count:  # no line may follow the counted ones
        raise FormatError(f"{path}: header counts {count} parameters, found {len(params)} "
                          f"in {len(lines) - 2} lines")
    return params, config
