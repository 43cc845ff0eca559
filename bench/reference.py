"""Dense-superoperator reference for the ``evolve-*`` workloads.

The reference is built from the channels' JSON encoding (the schema of
``hybridiq.io``) with numpy alone, so it shares no code with the library's
``apply``.  It runs in a child process (this file run as a script), so that
its matrices, q^2 times the size of the Kraus blocks (64 MiB per channel on
``evolve-qubits``), stay out of the measured process's ``peak_rss_mb``.
Parent and child exchange pickles over the child's stdin and stdout.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys

import numpy as np


def dense_superoperator(encoded: dict) -> np.ndarray:
    """Matrix S with vec(apply(ch, w).masses) = S @ vec(w.masses), from the JSON blocks."""
    q_src, q_dst = encoded["qdim_src"], encoded["qdim_dst"]
    n_src = len(encoded["src_space"]["weights"])
    n_dst = len(encoded["dst_space"]["weights"])
    a, b = q_dst * q_dst, q_src * q_src
    s = np.zeros((n_dst * a, n_src * b), dtype=complex)
    for entry in encoded["blocks"]:
        m, n = entry["m"], entry["n"]
        kraus = np.stack([
            (np.asarray(L["re"]) + 1j * np.asarray(L["im"])).reshape(q_dst, q_src)
            for L in entry["L"]
        ])
        s[m * a:(m + 1) * a, n * b:(n + 1) * b] += np.einsum(
            "xij,xlk->iljk", kraus, kraus.conj()
        ).reshape(a, b)
    return s


def serve(inp, out) -> None:
    """Read the channel texts, then answer each (before, after) masses pair
    with max |S_k ... S_1 vec(before) - vec(after)| until the input closes."""
    ops = [dense_superoperator(json.loads(text)) for text in pickle.load(inp)]
    while True:
        try:
            before, after = pickle.load(inp)
        except EOFError:
            return
        vec = before.reshape(-1)
        for s in ops:
            vec = s @ vec
        pickle.dump(float(np.abs(vec - after.reshape(-1)).max()), out)
        out.flush()


class SuperoperatorReference:
    """Client of the reference process; calls are lockstep, between ops."""

    def __init__(self, channel_texts: list[str]):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        pickle.dump(channel_texts, self._proc.stdin)
        self._proc.stdin.flush()

    def deviation(self, before: np.ndarray, after: np.ndarray) -> float:
        pickle.dump((before, after), self._proc.stdin)
        self._proc.stdin.flush()
        return pickle.load(self._proc.stdout)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    serve(sys.stdin.buffer, sys.stdout.buffer)
