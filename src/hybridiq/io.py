"""JSON encodings for matrices, spaces, kernels, states, channels, protocols.

Complex matrices are serialized as row-major real/imaginary float lists, which
round-trips bit-exactly.  Schema problems raise :class:`ParseError`; domain
invariant violations raise the usual domain errors of the constructing module.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .channel import HybridChannel, from_blocks, from_coeff_kernel, non_interacting, pair_starts
from .classical import ClassicalSpace, MarkovKernel, counting_space
from .errors import IoError, ParseError
from .locc import LoccProtocol, LoccRound
from .state import HybridState, new_state


def matrix_to_json(m: np.ndarray) -> dict:
    arr = np.asarray(m, dtype=complex)
    return {
        "dim": int(arr.shape[0]),
        "re": arr.real.ravel().tolist(),
        "im": arr.imag.ravel().tolist(),
    }


def matrix_from_json(
    obj: Any, what: str = "matrix", shape: tuple[int, int] | None = None
) -> np.ndarray:
    """Decode a dim x dim matrix, or a ``shape`` matrix whose "dim" is its row count.

    matrix_to_json writes the row count as "dim", so a rectangular Kraus row
    (whose shape the channel header gives) round-trips through the same encoding.
    """
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{what}: expected keys dim/re/im, got {obj!r:.120}") from exc
    rows, cols = shape or (dim, dim)
    size = rows * cols
    if dim != rows or rows < 1 or cols < 1 or re.shape != (size,) or im.shape != (size,):
        raise ParseError(
            f"{what}: {rows}x{cols} matrix needs dim {rows} and {size} re and im entries"
        )
    return (re + 1j * im).reshape(rows, cols)


def space_to_json(space: ClassicalSpace) -> dict:
    out: dict = {"weights": space.weights.tolist()}
    if space.labels is not None:
        out["labels"] = [list(l) if isinstance(l, tuple) else l for l in space.labels]
    return out


def space_from_json(obj: Any) -> ClassicalSpace:
    try:
        weights = np.asarray(obj["weights"], dtype=float)
        labels = obj.get("labels")
        if labels is not None:
            labels = tuple(tuple(l) if isinstance(l, list) else l for l in labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"space: expected weights and optional labels, got {obj!r:.120}") from exc
    return ClassicalSpace(weights, labels)


def kernel_to_json(kernel: MarkovKernel) -> dict:
    return {
        "P": kernel.matrix.ravel().tolist(),
        "rows": kernel.dst.size,
        "cols": kernel.src.size,
    }


def kernel_from_json(
    obj: Any,
    src: ClassicalSpace | None = None,
    dst: ClassicalSpace | None = None,
) -> MarkovKernel:
    """Load a kernel; without explicit spaces, counting-measure spaces are assumed."""
    matrix = kernel_matrix_from_json(obj)
    rows, cols = matrix.shape
    return MarkovKernel(src or counting_space(cols), dst or counting_space(rows), matrix)


def kernel_matrix_from_json(obj: Any) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        flat = np.asarray(obj["P"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"kernel: expected keys P/rows/cols, got {obj!r:.120}") from exc
    if rows < 1 or cols < 1 or flat.shape != (rows * cols,):
        raise ParseError(f"kernel: {rows}x{cols} matrix needs {rows * cols} entries")
    return flat.reshape(rows, cols)


def state_to_json(state: HybridState) -> dict:
    return {
        "space": space_to_json(state.space),
        "qdim": state.qdim,
        "masses": [matrix_to_json(m) for m in state.masses],
    }


def state_parts_from_json(obj: Any) -> tuple[ClassicalSpace, np.ndarray, int]:
    """Schema-check a state object into the arguments of new_state: (space, masses, qdim)."""
    try:
        space_obj, qdim, masses_obj = obj["space"], int(obj["qdim"]), obj["masses"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"state: expected keys space/qdim/masses, got {obj!r:.120}") from exc
    space = space_from_json(space_obj)
    if not isinstance(masses_obj, list) or len(masses_obj) != space.size:
        raise ParseError(f"state: need one mass matrix per cell ({space.size})")
    masses = [matrix_from_json(m, f"mass[{i}]") for i, m in enumerate(masses_obj)]
    if any(m.shape[0] != qdim for m in masses):
        raise ParseError(f"state: mass matrices must be {qdim}x{qdim}")
    return space, np.stack(masses), qdim


def state_from_json(obj: Any) -> HybridState:
    return new_state(*state_parts_from_json(obj))


def channel_to_json(channel: HybridChannel) -> dict:
    starts = pair_starts(channel)
    ends = np.r_[starts[1:], channel.dst.size]
    return {
        "src_space": space_to_json(channel.src_space),
        "dst_space": space_to_json(channel.dst_space),
        "qdim_src": channel.qdim_src,
        "qdim_dst": channel.qdim_dst,
        "blocks": [
            {
                "m": int(channel.dst[a]),
                "n": int(channel.src[a]),
                "L": [matrix_to_json(b) for b in channel.kraus[a:z]],
            }
            for a, z in zip(starts, ends)
        ],
    }


def _complex_tensor_from_json(obj: Any, what: str) -> np.ndarray:
    try:
        shape = tuple(int(s) for s in obj["shape"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{what}: expected keys shape/re/im, got {obj!r:.120}") from exc
    size = int(np.prod(shape)) if shape else 0
    if re.shape != (size,) or im.shape != (size,):
        raise ParseError(f"{what}: shape {shape} needs {size} re and im entries")
    return (re + 1j * im).reshape(shape)


def complex_tensor_to_json(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=complex)
    return {
        "shape": list(arr.shape),
        "re": arr.real.ravel().tolist(),
        "im": arr.imag.ravel().tolist(),
    }


def channel_from_json(obj: Any) -> HybridChannel:
    """Load a block-form channel or lower a constructor-level spec to blocks."""
    if not isinstance(obj, dict):
        raise ParseError(f"channel: expected an object, got {obj!r:.120}")
    spec_type = obj.get("type")
    if spec_type == "non_interacting":
        src = space_from_json(obj["src_space"]) if "src_space" in obj else None
        dst = space_from_json(obj["dst_space"]) if "dst_space" in obj else None
        if "kernel" not in obj or "kraus" not in obj:
            raise ParseError("non_interacting spec needs 'kernel' and 'kraus'")
        kernel = kernel_from_json(obj["kernel"], src, dst)
        kraus = [matrix_from_json(k, f"kraus[{i}]") for i, k in enumerate(obj["kraus"])]
        return non_interacting(kernel, kraus)
    if spec_type == "coeff_kernel":
        if "basis" not in obj or "k" not in obj:
            raise ParseError("coeff_kernel spec needs 'basis' and 'k'")
        basis = [matrix_from_json(b, f"basis[{i}]") for i, b in enumerate(obj["basis"])]
        coeffs = _complex_tensor_from_json(obj["k"], "k")
        if coeffs.ndim != 4:
            raise ParseError(f"k must be a rank-4 tensor, got shape {coeffs.shape}")
        src = (
            space_from_json(obj["src_space"])
            if "src_space" in obj
            else counting_space(coeffs.shape[1])
        )
        dst = (
            space_from_json(obj["dst_space"])
            if "dst_space" in obj
            else counting_space(coeffs.shape[0])
        )
        return from_coeff_kernel(src, dst, basis, coeffs)
    if spec_type is not None:
        raise ParseError(f"unknown channel spec type {spec_type!r}")

    try:
        src = space_from_json(obj["src_space"])
        dst = space_from_json(obj["dst_space"])
        qdim_src, qdim_dst = int(obj["qdim_src"]), int(obj["qdim_dst"])
        entries = obj["blocks"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("channel: expected src_space/dst_space/qdim_src/qdim_dst/blocks") from exc
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for entry in entries:
        try:
            key = (int(entry["m"]), int(entry["n"]))
            mats = [matrix_from_json(b, f"block{key}", (qdim_dst, qdim_src)) for b in entry["L"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"channel block entry malformed: {entry!r:.120}") from exc
        if key in blocks:
            raise ParseError(f"duplicate channel block entry for {key}")
        blocks[key] = np.stack(mats)
    return from_blocks(src, dst, qdim_src, qdim_dst, blocks)


def _history_key(history: tuple[int, ...]) -> str:
    return ".".join(str(x) for x in history)


def protocol_to_json(protocol: LoccProtocol) -> dict:
    return {
        "dims": list(protocol.dims),
        "rounds": [
            {
                "side": rnd.side,
                "outcomes": rnd.outcomes,
                "instrument": {
                    _history_key(h): [matrix_to_json(v) for v in ops]
                    for h, ops in sorted(rnd.instrument.items())
                },
            }
            for rnd in protocol.rounds
        ],
    }


def protocol_from_json(obj: Any) -> LoccProtocol:
    try:
        d1, d2 = (int(d) for d in obj["dims"])
        rounds_obj = obj["rounds"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"protocol: expected keys dims/rounds, got {obj!r:.120}") from exc
    rounds = []
    for r, entry in enumerate(rounds_obj):
        try:
            outcomes = int(entry["outcomes"])
            instrument_obj = entry["instrument"]
            side = entry.get("side")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"protocol round {r} malformed: {entry!r:.120}") from exc
        instrument = {}
        for key, ops in instrument_obj.items():
            try:
                history = tuple(int(x) for x in key.split(".")) if key else ()
            except ValueError as exc:
                raise ParseError(f"protocol round {r}: bad history key {key!r}") from exc
            instrument[history] = [
                matrix_from_json(v, f"round {r} history {key!r}") for v in ops
            ]
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
