"""Scaling sweep of single layers, run once and not gated.

    python3 bench/run.py --sweep

Re-measures the baseline of ROADMAP open item 1 and prints it beside the
figures the ROADMAP quotes: ``channel.apply`` on a dense ``random_channel``
(q=2, branching 1) at N = 8, 32, 64 and 128 cells, ``random_channel`` with
its validation at N = 128, ``compose`` at N = 32, and
``as_hybrid_channels`` on 4, 6 and 7 two-outcome rounds.  Each figure is the
median of several calls; the table also goes to ``.bench_out/sweep.json``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter

from hybridiq.channel import apply, compose, random_channel
from hybridiq.classical import counting_space
from hybridiq.locc import as_hybrid_channels
from hybridiq.rand import seeded_rng
from hybridiq.state import random_state

import workloads

# (layer, size) -> milliseconds quoted in ROADMAP open item 1
ROADMAP_MS = {
    ("channel.apply", "N=8 q=2"): 0.44,
    ("channel.apply", "N=32 q=2"): 7.2,
    ("channel.apply", "N=64 q=2"): 34,
    ("channel.apply", "N=128 q=2"): 101,
    ("channel.random_channel", "N=128 q=2"): 498,
    ("channel.compose", "N=32 q=2"): 456,
    ("locc.as_hybrid_channels", "R=4 (81 cells)"): 16,
    ("locc.as_hybrid_channels", "R=6 (729 cells)"): 334,
    ("locc.as_hybrid_channels", "R=7 (2187 cells)"): 2250,
}


def _median_ms(fn, *args, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn(*args)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def main(facts: dict, out_dir: Path) -> int:
    rng = seeded_rng(0, "bench.sweep")
    rows = []
    for n in (8, 32, 64, 128):
        space = counting_space(n)
        ch = random_channel(space, space, 2, 2, 1, rng)
        w = random_state(space, 2, rng)
        rows.append(("channel.apply", f"N={n} q=2", _median_ms(apply, ch, w, repeats=11)))
    space = counting_space(128)
    rows.append(("channel.random_channel", "N=128 q=2",
                 _median_ms(random_channel, space, space, 2, 2, 1, rng, repeats=3)))
    space = counting_space(32)
    first, second = (random_channel(space, space, 2, 2, 1, rng) for _ in range(2))
    rows.append(("channel.compose", "N=32 q=2", _median_ms(compose, second, first, repeats=3)))
    for rounds in (4, 6, 7):
        protocol = workloads.random_protocol(rng, rounds)
        rows.append(("locc.as_hybrid_channels", f"R={rounds} ({3**rounds} cells)",
                     _median_ms(as_hybrid_channels, protocol, repeats=3)))

    print(f"{'layer':26s} {'size':18s} {'median ms':>10s} {'ROADMAP ms':>10s} {'ratio':>6s}")
    for layer, size, ms in rows:
        quoted = ROADMAP_MS[(layer, size)]
        print(f"{layer:26s} {size:18s} {ms:10.2f} {quoted:10.2f} {ms / quoted:6.2f}")
    out_dir.mkdir(exist_ok=True)
    (out_dir / "sweep.json").write_text(json.dumps({
        "facts": facts,
        "rows": [{"layer": layer, "size": size, "median_ms": ms, "roadmap_ms": ROADMAP_MS[(layer, size)]}
                 for layer, size, ms in rows],
    }, indent=1) + "\n")
    return 0
