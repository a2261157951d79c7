"""Command-line outputs for fixed seeds match the files under tests/golden/.

Files are compared byte for byte, except the ``rounding`` cases declared in
``tests/golden/generate.py``: there every number must agree to 1e-10
relative, integers exactly, and all text between numbers byte for byte.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN_DIR / "generate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)
same_up_to_rounding = golden.same_up_to_rounding


@pytest.mark.parametrize("seed", golden.SEEDS)
def test_cli_outputs_match_golden_files(seed):
    want_dir = GOLDEN_DIR / f"seed{seed}"
    got = golden.run_cases(seed)
    want = {path.name: path.read_bytes() for path in want_dir.iterdir()}
    problems = [f"missing {name}" for name in sorted(set(want) - set(got))]
    problems += [f"unexpected {name}" for name in sorted(set(got) - set(want))]
    for name in sorted(set(got) & set(want)):
        rounding = golden.is_rounding(name)
        same = same_up_to_rounding(got[name], want[name]) if rounding else got[name] == want[name]
        if not same:
            problems.append(f"{name} differs ({'rounding' if rounding else 'exact'} case)")
    assert not problems, (
        f"outputs for seed {seed} differ from {want_dir}: {problems}. If the change "
        "is intended, rewrite the files with `PYTHONPATH=src python tests/golden/generate.py` "
        "and say in CHANGES.md whether each changed file is an exact or a rounding case."
    )


def test_rounding_comparer():
    # %.17g writes an integral float without a point; it may still round away
    assert same_up_to_rounding(b"a,1.0000000000000002,3\n", b"a,1,3\n")
    assert same_up_to_rounding(b"x,-2.0000000000000004e-05\n", b"x,-2.0000000000000001e-05\n")
    assert not same_up_to_rounding(b"x,2.001\n", b"x,2.0\n")
    assert not same_up_to_rounding(b"k,4\n", b"k,5\n")
    assert not same_up_to_rounding(b"k,4\n", b"j,4\n")
    assert not same_up_to_rounding(b"1.5,2.5\n", b"1.5\n")
