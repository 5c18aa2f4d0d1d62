"""Random command-line requests: each exits 0; or 1 for a sweep with a failed
row or a check-batch divergence; or 2 with exactly one ``fecdiff
<command>: error:`` line, or argparse's usage form. No exception escapes
``main`` and nothing issues a ``RuntimeWarning``, so neither a traceback
nor a numpy warning reaches the user.

Requests draw a command, then up to four configuration-file keys and up
to three flags from pools that mix valid and invalid values: the keys the
command reads, two unknown keys and ``[run] edit_prompts``, which four
commands do not read; the flags the command takes and ``--precision``,
which none takes. Every request reads a base file that sets ``[denoiser]
dim = 16`` and ``[run] steps = 2`` (a drawn key or flag may override
either, to at most 3 steps), so a request that runs is small.
"""

import contextlib
import io
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fecdiff.cli import COMMANDS, build_parser, main
from fecdiff.harness import CONFIG_KEYS
from fecdiff.io_formats import write_mask

FILE_VALUES = {
    ("schedule", "kind"): ("linear-beta", "constant-beta", "cosine"),
    # With constant-beta, alpha_bar floors at 1.2e-322 and the run diverges.
    ("schedule", "total_steps"): ("10", "40000", "0", "-1"),
    ("denoiser", "layers"): ("1", "0", "-1"),
    ("denoiser", "heads"): ("2", "3"),
    ("denoiser", "dim"): ("5", "0"),
    ("denoiser", "seed"): ("1", "-1"),
    ("run", "steps"): ("1", "3", "0"),
    ("run", "methods"): ("fec-kv-reuse", "fec-noise; fec-ref", "direct; direct", "warp", ";"),
    ("run", "inv_guidances"): ("1", "1e300", "nan"),
    ("run", "samp_guidances"): ("1, 7.5", "inf"),
    ("run", "seeds"): ("1", "0 0", "-1"),
    ("run", "embed_seed"): ("2", "-1"),
    ("run", "data_kind"): ("blocks", "checkerboard"),
    ("run", "prompts"): ("", "a cat; a dog", "a cat; ; a dog"),
    ("run", "edit_prompts"): ("a dog sitting on a mat", "a; b"),
    ("run", "blend_word"): ("dog", "zebra"),
    ("run", "layer_start"): ("0", "3"),
    ("run", "layer_end"): ("1", "99"),
    ("run", "out"): ("out.txt", "", "missing/out.txt"),
    ("run", "step"): ("3",),
    ("denoiser", "attn_scale"): ("1",),
}

FLAG_VALUES = {
    "--method": ("direct", "fec-kv-reuse", "fec-v-reuse", "fec-noise", "fec-ref", "neg-prompt",
                 "warp"),
    "--guidance": ("1", "7.5", "1e300", "nan"),
    "--inv-guidance": ("1", "-2"),
    "--steps": ("1", "3", "0", "x"),
    "--seed": ("1", "-1"),
    "--prompt": ("a cat", "", "a cat sitting on a mat"),
    "--edit-prompt": ("a dog sitting on a mat", "a cat", "a b c d e f g h dog"),
    "--blend-word": ("dog", "cat"),
    "--mask": ("{masks}/box.fecmask", "{masks}/off-grid.fecmask", "{masks}/truncated.fecmask",
               "{masks}/missing.fecmask", ""),
    "--layers": ("1:2", "0:99", "2:1", "a:b"),
    "--out": ("out.bin", "", "missing/out.bin"),
    "--kv-out": ("kv.feckv", "", "out.bin"),
    "--precision": ("16",),
}
# The keys no command reads, and one that invert, reconstruct, sweep and check-batch do not.
_FOREIGN_KEYS = [("run", "step"), ("denoiser", "attn_scale"), ("run", "edit_prompts")]
(_SUB,) = [a for a in build_parser()._actions if a.dest == "command"]


@st.composite
def requests(draw):
    """(argv, configuration-file text) of one request."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    reads = COMMANDS[command][1]
    own_keys = [(section, key) for section, key, _, name in CONFIG_KEYS if name in reads]
    keys = draw(st.lists(st.sampled_from(own_keys + _FOREIGN_KEYS), max_size=4, unique=True))
    values = {("denoiser", "dim"): "16", ("run", "steps"): "2"}
    values.update((key, draw(st.sampled_from(FILE_VALUES[key]))) for key in keys)
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for (s, k), v in values.items() if s == section)
        for section in dict.fromkeys(section for section, _ in values)
    )
    argv = [command, "--config", "base.cfg"]
    own_flags = [f for a in _SUB.choices[command]._actions for f in a.option_strings
                 if f in FLAG_VALUES]
    for flag in draw(st.lists(st.sampled_from(own_flags + ["--precision"]), max_size=3,
                              unique=True)):
        argv += [flag, draw(st.sampled_from(FLAG_VALUES[flag]))]
    return argv, text


@pytest.fixture(scope="module")
def masks(tmp_path_factory):
    """A valid mask on the 16x16 latent grid, one off it, and a truncated one."""
    root = tmp_path_factory.mktemp("masks")
    box = np.zeros((16, 16))
    box[4:12, 4:12] = 1.0
    write_mask(root / "box.fecmask", box)
    write_mask(root / "off-grid.fecmask", np.ones((8, 8)))
    (root / "truncated.fecmask").write_bytes((root / "box.fecmask").read_bytes()[:-9])
    return str(root)


def _run(argv, text) -> tuple[object, str, str]:
    """``main(argv)``'s exit code (argparse's ``SystemExit`` code included),
    stdout and stderr, run in a fresh directory holding ``base.cfg``."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="fecdiff-request-") as tmp:
        with open(os.path.join(tmp, "base.cfg"), "w") as f:
            f.write(text)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                # A numpy warning escapes as an exception: the one error line
                # must hold outside pytest too, where warnings print.
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(request=requests())
def test_every_request_exits_0_1_or_2_with_one_error_line(masks, request):
    argv, text = request
    argv = [a.replace("{masks}", masks) for a in argv]
    code, out, err = _run(argv, text)
    command, lines = argv[0], err.splitlines()
    if code == 0:
        return
    if code == 1:
        assert command in ("sweep", "check-batch"), (argv, text, err)
        if command == "sweep":
            assert lines and re.fullmatch(r"\d+ cell\(s\) failed; see report for details",
                                          lines[-1]), (argv, text, err)
        else:
            assert "passed = False" in out.splitlines(), (argv, text, out)
        return
    assert code == 2, (argv, text, code, err)
    if lines and lines[0].startswith("usage: fecdiff"):
        # argparse's form: the command's usage, then its one error line.
        lines = [line for line in lines if not line.startswith(" ")][1:]
    assert len(lines) == 1 and lines[0].startswith(f"fecdiff {command}: error: "), (
        argv, text, err)
