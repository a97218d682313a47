"""The golden corpus of ``tests/golden.py``: each command's exit code,
stdout and stderr against the digest checked in for it."""
import os
import subprocess
import sys
from pathlib import Path

import aspexplain

import golden

# The programs whose commands also run in fresh interpreters.
SAMPLE = ("example41", "q8", "spaced")
REPLAY = """
import sys
from pathlib import Path
import golden
found = golden.replay(Path(sys.argv[1]), programs=sys.argv[2:])
sys.stdout.write(golden.format_digests(found))
"""


def test_every_command_gives_its_digest(tmp_path):
    moved = golden.moved(golden.read_digests(), golden.replay(tmp_path))
    assert not moved, "%d commands moved:\n%s" % (len(moved), "\n".join(moved))


def test_a_sample_gives_its_digests_under_two_hash_seeds(tmp_path):
    """Under ``PYTHONHASHSEED`` 0 and 1 in fresh interpreters, so that an
    output that depends on set or dict order shows."""
    paths = [str(Path(aspexplain.__file__).parents[1]), str(Path(golden.__file__).parent)]
    children = []
    for seed in ("0", "1"):
        root = tmp_path / seed
        root.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(paths))
        children.append(subprocess.Popen(
            [sys.executable, "-c", REPLAY, str(root), *SAMPLE],
            env=env, stdout=subprocess.PIPE, text=True,
        ))
    expected = golden.read_digests()
    for child in children:
        out, _ = child.communicate(timeout=300)
        assert child.returncode == 0
        found = golden.parse_digests(out)
        assert len(found) > 500
        moved = golden.moved({c: expected[c] for c in found if c in expected}, found)
        assert not moved, "%d commands moved:\n%s" % (len(moved), "\n".join(moved))
