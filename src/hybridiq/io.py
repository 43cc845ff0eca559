"""JSON encodings for matrices, spaces, kernels, states, channels, protocols.

One codec pair, matrices_to_json / matrices_from_json, reads and writes every list
of complex matrices as row-major re/im floats, bit-exactly (signed zeros too) and
one (k, rows, cols) stack per list.  Schema problems raise :class:`ParseError`;
domain invariant violations raise the domain errors of the constructing module.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .channel import HybridChannel, from_coeff_kernel, from_rows, non_interacting, pair_starts
from .classical import ClassicalSpace, MarkovKernel, counting_space
from .errors import IoError, ParseError, require_integer
from .locc import LoccProtocol, LoccRound
from .state import HybridState, new_state


def _integer(value: Any, what: str) -> int:
    """Read a JSON integer field: floats, booleans and strings raise ParseError, not truncate."""
    return require_integer(value, what, ParseError)


def _complex_array(re: Any, im: Any, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The re/im parsing core: one complex array from number lists of exactly ``shape``."""
    try:
        re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: re and im must hold numbers only") from exc
    if re.shape != shape or im.shape != shape:
        raise ParseError(f"{what}: every re and im must be a flat list of {shape[-1]} numbers")
    out = re.astype(complex)
    out.imag = im  # set, not added: re + 1j * im loses the sign of zero entries
    return out


def matrices_to_json(stack: np.ndarray) -> list[dict]:
    """Encode a (k, rows, cols) stack as k {"dim", "re", "im"} objects; "dim" is the row count."""
    k, rows, cols = np.shape(stack)
    flat = np.asarray(stack, dtype=complex).reshape(k, rows * cols)
    return [{"dim": rows, "re": r, "im": i} for r, i in zip(flat.real.tolist(), flat.imag.tolist())]


def matrices_from_json(objs: Any, what: Any, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Decode a list of matrix objects into one (k, rows, cols) complex stack.

    Entries are ``shape`` matrices whose "dim" is the row count, else square of the
    first entry's dim; no entries give a (0, 0, 0) stack.  Errors name entry i
    ``what(i)`` if ``what`` is callable (``what(None)`` is the list), else ``what[i]``.
    """
    name = what if callable(what) else (lambda i: what if i is None else f"{what}[{i}]")
    try:
        objs = list(objs)
    except TypeError as exc:
        raise ParseError(f"{name(None)}: expected a list of matrices, got {objs!r:.120}") from exc
    if not objs:
        return np.zeros((0, 0, 0), dtype=complex)
    res, ims = [], []
    for i, obj in enumerate(objs):
        try:
            dim, re, im = _integer(obj["dim"], "matrix dim"), obj["re"], obj["im"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{name(i)}: expected keys dim/re/im, got {obj!r:.120}") from exc
        rows, cols = shape = shape or (dim, dim)
        size = rows * cols
        if not (dim == rows >= 1 and cols >= 1 and type(re) is type(im) is list
                and len(re) == len(im) == size):
            raise ParseError(
                f"{name(i)}: {rows}x{cols} matrix needs dim {rows} and {size} re and im entries"
            )
        res.append(re)
        ims.append(im)
    return _complex_array(res, ims, (len(res), size), name(None)).reshape(-1, rows, cols)


def matrix_to_json(m: np.ndarray) -> dict:
    return matrices_to_json(np.asarray(m)[None])[0]


def matrix_from_json(obj: Any, what: str = "matrix") -> np.ndarray:
    """Decode one square matrix: the k = 1 case of :func:`matrices_from_json`."""
    return matrices_from_json([obj], lambda i: what)[0]


def space_to_json(space: ClassicalSpace) -> dict:
    out: dict = {"weights": space.weights.tolist()}
    if space.labels is not None:
        out["labels"] = [list(l) if isinstance(l, tuple) else l for l in space.labels]
    return out


def space_from_json(obj: Any) -> ClassicalSpace:
    """Load a space; "labels", when given, must be a JSON list (a string or object is refused)."""
    try:
        weights = np.asarray(obj["weights"], dtype=float)
        labels = obj.get("labels")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"space: expected weights and optional labels, got {obj!r:.120}") from exc
    if labels is not None:
        if not isinstance(labels, list):
            raise ParseError(f"space: labels must be a list, got {labels!r:.120}")
        labels = tuple(tuple(l) if isinstance(l, list) else l for l in labels)
    return ClassicalSpace(weights, labels)


def kernel_to_json(kernel: MarkovKernel) -> dict:
    return {"P": kernel.matrix.ravel().tolist(), "rows": kernel.dst.size, "cols": kernel.src.size}


def kernel_from_json(
    obj: Any, src: ClassicalSpace | None = None, dst: ClassicalSpace | None = None
) -> MarkovKernel:
    """Load a kernel; without explicit spaces, counting-measure spaces are assumed."""
    matrix = kernel_matrix_from_json(obj)
    rows, cols = matrix.shape
    return MarkovKernel(src or counting_space(cols), dst or counting_space(rows), matrix)


def kernel_matrix_from_json(obj: Any) -> np.ndarray:
    try:
        rows, cols = _integer(obj["rows"], "kernel rows"), _integer(obj["cols"], "kernel cols")
        flat = np.asarray(obj["P"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"kernel: expected keys P/rows/cols, got {obj!r:.120}") from exc
    if rows < 1 or cols < 1 or flat.shape != (rows * cols,):
        raise ParseError(f"kernel: {rows}x{cols} matrix needs {rows * cols} entries")
    return flat.reshape(rows, cols)


def state_to_json(state: HybridState) -> dict:
    masses = matrices_to_json(state.masses)
    return {"space": space_to_json(state.space), "qdim": state.qdim, "masses": masses}


def state_parts_from_json(obj: Any) -> tuple[ClassicalSpace, np.ndarray]:
    """Schema-check a state object into the arguments of new_state: (space, masses)."""
    try:
        space_obj, masses_obj = obj["space"], obj["masses"]
        qdim = _integer(obj["qdim"], "state qdim")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"state: expected keys space/qdim/masses, got {obj!r:.120}") from exc
    space = space_from_json(space_obj)
    if not isinstance(masses_obj, list) or len(masses_obj) != space.size:
        raise ParseError(f"state: need one mass matrix per cell ({space.size})")
    return space, matrices_from_json(masses_obj, "mass", (qdim, qdim))


def state_from_json(obj: Any) -> HybridState:
    return new_state(*state_parts_from_json(obj))


def channel_to_json(channel: HybridChannel) -> dict:
    rows, starts = matrices_to_json(channel.kraus), pair_starts(channel)
    bounds = [*starts.tolist(), len(rows)]
    pairs = zip(channel.dst[starts].tolist(), channel.src[starts].tolist(), bounds, bounds[1:])
    return {
        "src_space": space_to_json(channel.src_space),
        "dst_space": space_to_json(channel.dst_space),
        "qdim_src": channel.qdim_src,
        "qdim_dst": channel.qdim_dst,
        "blocks": [{"m": m, "n": n, "L": rows[a:z]} for m, n, a, z in pairs],
    }


def _complex_tensor_from_json(obj: Any, what: str) -> np.ndarray:
    try:
        shape = tuple(_integer(s, f"{what}: shape") for s in obj["shape"])
        re, im = obj["re"], obj["im"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{what}: expected keys shape/re/im, got {obj!r:.120}") from exc
    if any(s < 0 for s in shape):
        raise ParseError(f"{what}: shape {shape} has a negative extent")
    return _complex_array(re, im, (math.prod(shape),), what).reshape(shape)


def complex_tensor_to_json(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=complex)
    flat = arr.ravel()
    return {"shape": list(arr.shape), "re": flat.real.tolist(), "im": flat.imag.tolist()}


def channel_from_json(obj: Any) -> HybridChannel:
    """Load a channel, its rows decoded in one pass into from_rows, or lower a spec."""
    if not isinstance(obj, dict):
        raise ParseError(f"channel: expected an object, got {obj!r:.120}")
    spec_type = obj.get("type")
    if spec_type == "non_interacting":
        src = space_from_json(obj["src_space"]) if "src_space" in obj else None
        dst = space_from_json(obj["dst_space"]) if "dst_space" in obj else None
        if "kernel" not in obj or "kraus" not in obj:
            raise ParseError("non_interacting spec needs 'kernel' and 'kraus'")
        kernel = kernel_from_json(obj["kernel"], src, dst)
        return non_interacting(kernel, matrices_from_json(obj["kraus"], "kraus"))
    if spec_type == "coeff_kernel":
        if "basis" not in obj or "k" not in obj:
            raise ParseError("coeff_kernel spec needs 'basis' and 'k'")
        basis = matrices_from_json(obj["basis"], "basis")
        coeffs = _complex_tensor_from_json(obj["k"], "k")
        if coeffs.ndim != 4:
            raise ParseError(f"k must be a rank-4 tensor, got shape {coeffs.shape}")
        rows, cols = coeffs.shape[:2]
        src = space_from_json(obj["src_space"]) if "src_space" in obj else counting_space(cols)
        dst = space_from_json(obj["dst_space"]) if "dst_space" in obj else counting_space(rows)
        return from_coeff_kernel(src, dst, basis, coeffs)
    if spec_type is not None:
        raise ParseError(f"unknown channel spec type {spec_type!r}")

    try:
        src = space_from_json(obj["src_space"])
        dst = space_from_json(obj["dst_space"])
        qdim_src, qdim_dst = (_integer(obj[k], f"channel {k}") for k in ("qdim_src", "qdim_dst"))
        entries = iter(obj["blocks"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("channel: expected src_space/dst_space/qdim_src/qdim_dst/blocks") from exc
    seen, owners, rows = set(), [], []  # owners: the (m, n) of each row
    for entry in entries:
        try:
            key = (_integer(entry["m"], "channel block m"), _integer(entry["n"], "channel block n"))
            ops = list(entry["L"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"channel block entry malformed: {entry!r:.120}") from exc
        if key in seen or not ops:
            raise ParseError(f"block{key}: {'duplicate entry' if ops else 'no Kraus rows'}")
        seen.add(key)
        owners += [key] * len(ops)
        rows += ops
    name = lambda i: "channel" if i is None else f"block{owners[i]}"
    kraus = matrices_from_json(rows, name, (qdim_dst, qdim_src))
    try:
        qdim_src, qdim_dst = int(np.intp(qdim_src)), int(np.intp(qdim_dst))
        dst_cells, src_cells = np.array(owners, dtype=np.intp).reshape(-1, 2).T
    except OverflowError as exc:
        raise ParseError("channel: a block index or qdim exceeds the platform integer") from exc
    return from_rows(src, dst, qdim_src, qdim_dst, dst_cells, src_cells, kraus)


def protocol_to_json(protocol: LoccProtocol) -> dict:
    return {
        "dims": list(protocol.dims),
        "rounds": [
            {
                "side": rnd.side,
                "outcomes": rnd.outcomes,
                "instrument": {
                    ".".join(map(str, h)): matrices_to_json(ops)
                    for h, ops in sorted(rnd.instrument.items())
                },
            }
            for rnd in protocol.rounds
        ],
    }


def protocol_from_json(obj: Any) -> LoccProtocol:
    try:
        d1, d2 = (_integer(d, "protocol dims") for d in obj["dims"])
        rounds_obj = list(obj["rounds"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"protocol: expected keys dims/rounds, got {obj!r:.120}") from exc
    rounds = []
    for r, entry in enumerate(rounds_obj):
        try:
            outcomes = _integer(entry["outcomes"], f"protocol round {r} outcomes")
            instrument_obj = entry["instrument"].items()
            side = entry.get("side")
            side = None if side is None else _integer(side, f"protocol round {r} side")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"protocol round {r} malformed: {entry!r:.120}") from exc
        instrument, keys = {}, {}
        for key, ops in instrument_obj:
            # "" or dot-separated ASCII digits: int() alone also reads "+1", " 1" and "1_0"
            if not isinstance(key, str) or (
                key and not all(x.isascii() and x.isdigit() for x in key.split("."))
            ):
                raise ParseError(f"protocol round {r}: bad history key {key!r}")
            history = tuple(int(x) for x in key.split(".")) if key else ()
            if history in keys:  # "1" and "01" read as one history
                raise ParseError(
                    f"protocol round {r}: history keys {keys[history]!r} and {key!r} "
                    f"both name history {history}"
                )
            keys[history] = key
            instrument[history] = matrices_from_json(ops, f"round {r} history {key!r}")
        rounds.append(LoccRound(outcomes, instrument, side))
    return LoccProtocol((d1, d2), tuple(rounds))


def load_json(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def dump_json(obj: Any, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
