"""Shared fixtures and writers for the benchmarks.

Each bench regenerates one of the paper's tables/figures and writes the
formatted exhibit to ``benchmarks/results/``; pytest-benchmark records the
runtime of the regeneration itself. The figure and table benches time
their exhibit's data function and write its text with
:func:`bench_exhibit`, which renders through the exhibit's one renderer in
:data:`repro.analysis.EXHIBITS` (the one ``repro experiments`` uses), so
a bench run reproduces the committed files byte for byte. The ablation
benches use the ``report_dir`` fixture and :func:`save_report` directly.
The engine-throughput, serving and workload benches run on
``_harness.py``, whose one results writer calls :func:`save_report` and
:func:`save_json` for both their standalone full run and their pytest
entry.
"""

import pathlib

import pytest

from repro.analysis import EXHIBITS

#: The sweep used by bench targets: the paper's 256..6400 range at a
#: coarser step so the whole harness runs in minutes. Pass the full grid
#: via experiments.DEFAULT_SIZES (step 256) or range(256, 6401, 128).
BENCH_SIZES = tuple(range(256, 6401, 512))


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    out = pathlib.Path(__file__).parent / "results"
    out.mkdir(exist_ok=True)
    return out


def save_report(report_dir: pathlib.Path, name: str, text: str) -> None:
    (report_dir / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n[saved to benchmarks/results/{name}.txt]")


def bench_exhibit(benchmark, report_dir: pathlib.Path, name: str):
    """Time one exhibit's data function at :data:`BENCH_SIZES`, save its
    rendered text and return the data for the bench's shape checks."""
    exhibit = EXHIBITS[name]
    data = benchmark(exhibit.run, BENCH_SIZES)
    save_report(report_dir, name, exhibit.render(data, BENCH_SIZES))
    return data


def save_json(report_dir: pathlib.Path, name: str, report) -> None:
    """Write a :class:`repro.obs.RunReport` next to the text exhibit."""
    path = report_dir / f"{name}.json"
    report.write(str(path))
    print(f"[saved to benchmarks/results/{name}.json]")
