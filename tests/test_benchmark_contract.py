"""The replay benchmark's own ops and output checks accept the library's outputs.

`perfbench/` runs `audiokv` through the CLI, reads the result files back and
checks them with its own code. Running one small fixture through that code
here makes a change that breaks the benchmark's readers fail with the unit
tests.
"""

import sys
from pathlib import Path

import pytest

from audiokv.fixtures import generate_fixture

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
import replay  # noqa: E402


@pytest.fixture(scope="module")
def spike_plateau(tmp_path_factory):
    fixture = generate_fixture("spike-plateau", 7)
    assert (fixture.trace.num_layers, fixture.trace.num_heads) == (2, 4)
    directory = tmp_path_factory.mktemp("bench") / "spike-plateau-7"
    inp = harness.write_input(directory, fixture.trace, fixture.words, replay.Tracer())
    harness.quiet_main(
        ["score-heads", "--trace", str(inp.trace), "--alignment", str(inp.alignment),
         "--out", str(inp.scores)]
    )
    return inp


@pytest.mark.parametrize("kind", ["compare", "simulate"])
def test_ops_pass_the_benchmark_checks(spike_plateau, kind):
    digests = harness.Digests()
    # The first check of an input is the full one (for simulate, every result
    # file is loaded and validated); the second requires the same digests.
    for _ in range(2):
        harness.run_op(kind, spike_plateau)
        digests.check(kind, spike_plateau)
    # The traced path replays the op layer by layer and byte-checks it.
    harness.traced_op(kind, spike_plateau, replay.Tracer(), digests, cli_first=True)
