"""Seeded mutations of qmemsim, each run against the tests that must catch it.

    python scripts/mutants.py [name ...]

For each mutation in MUTANTS (or only those named), the script copies src/
to a temporary directory, applies one source substitution there (the
working tree is never edited), and runs the mutation's tests with pytest
against the copy.  It prints one line per mutation: "killed" and the tests
that failed, or "survived".  An unmutated copy runs every listed test
first, so a kill is never a test that fails anyway.  The script exits 1 if
a mutation survived or the unmutated run failed.

pytest collects only tests/, so nothing here runs with the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the hit-list rounds' residual classes against the exact law and against
# the dense register, and the dense register's kicked rounds against the
# exact law, in distribution
HIT_GATE = [
    "tests/test_protocols.py::test_rounds_sample_matches_dense_register",
    "tests/test_protocols.py::test_kicked_dense_register_matches_exact_law",
    "tests/test_protocols.py::test_rounds_sample_single_trial_matches_dense_register"]

# the circuit model above threshold (t_prot 0.08, 3 levels), where many
# touched blocks also draw fresh ones, against the exact law
ABOVE_GATE = ("tests/test_protocols.py::"
              "test_circuit_above_threshold_matches_exact_law")

# the frames of fresh blocks against Binomial(5, p) given >= 2 hits
FRESH_CHECK = ("tests/test_protocols.py::"
               "test_fresh_frames_follow_binomial_given_two_hits")

# the kicked exact law against its 50-digit decimal reference
COMPOSE_CHECK = ("tests/test_protocols.py::"
                 "test_kicked_fault_weight_matches_decimal_reference")

# the dense register's kicked rounds against the exact law
KICKED_GATE = ("tests/test_protocols.py::"
               "test_kicked_dense_register_matches_exact_law")

# clock pass 2's sampled faults and X, Z and Y counts against each trial's
# exact channel
KICK_CHECK = "tests/test_protocols.py::test_clock_sampled_faults_see_the_kicks"

# name -> (file under src/qmemsim, text, replacement, tests that must fail)
MUTANTS = {
    # up flips before equal down flips: the up mark sorts first, and the
    # steps read it back inverted
    "sort_flips_up_first": (
        "clock.py",
        "keys |= up\n"
        "    keys.sort(axis=-1)\n"
        "    steps = (keys & 1)",
        "keys |= ~up\n"
        "    keys.sort(axis=-1)\n"
        "    steps = (1 - (keys & 1))",
        ["tests/test_clock.py::test_flip_steps_puts_up_flips_after_equal_down_flips",
         "tests/test_clock.py::test_sample_trajectory_matches_argsort_reference"]),
    # the steps keep the order the flips were drawn in while the times sort
    "sort_flips_steps_unsorted": (
        "clock.py",
        "    keys.sort(axis=-1)\n"
        "    steps = (keys & 1).astype(np.int8) * 4 - 2\n",
        "    steps = (keys & 1).astype(np.int8) * 4 - 2\n"
        "    keys.sort(axis=-1)\n",
        ["tests/test_clock.py::test_flip_steps_puts_up_flips_after_equal_down_flips",
         "tests/test_clock.py::test_sample_trajectory_matches_argsort_reference",
         "tests/test_passages.py::test_leaf_pieces_form_the_path"]),
    # a window's inside segments keep their starts sorted but their ends in
    # the order they were found, level by level
    "passages_sort_starts_only": (
        "clock.py",
        "_passage(starts[seg], ends[seg], t_dec)",
        "_passage(starts[seg], ends[np.sort(seg)], t_dec)",
        ["tests/test_passages.py"]),
    # one path's band exit in a leaf clears the band flag of every path of
    # its batch
    "band_exit_leaks_across_trials": (
        "clock.py",
        "in_band[p_path[np.nonzero(check)[0][exits]]] = False",
        "in_band[:] &= not exits.any()",
        ["tests/test_passages.py::test_passages_match_event_sampler"]),
    # the exact logical channel at 1.5 times the storage noise rate
    "rounds_exact_rate_1_5x": (
        "protocols.py",
        "q = -0.75 * np.expm1(-rate_r * durations)",
        "q = -0.75 * np.expm1(-1.5 * rate_r * durations)",
        ["tests/test_protocols.py",
         KICKED_GATE,
         "tests/test_acceptance.py::test_criterion_5_circuit_log_scaling",
         "tests/test_acceptance.py::test_criterion_5_exact_count_with_power",
         "tests/test_acceptance.py::test_criterion_6_clock_controlled_protocol"]),
    # the exact logical channel without the clock's decode kicks
    "rounds_exact_no_kicks": (
        "protocols.py",
        "        if kicks is not None:\n",
        "        if False:\n",
        ["tests/test_protocols.py",
         KICKED_GATE,
         "tests/test_acceptance.py::test_criterion_6_clock_controlled_protocol"]),
    # each kick composed before its own round's decode, in the exact law
    # and so in clock pass 2
    "rounds_kick_before_its_decode": (
        "protocols.py",
        "        w = b_exact(_depolarized(w, q[..., j]))\n"
        "        if kicks is not None:\n"
        "            w = _depolarized(w, kicks[:, j])\n",
        "        if kicks is not None:\n"
        "            w = _depolarized(w, kicks[:, j])\n"
        "        w = b_exact(_depolarized(w, q[..., j]))\n",
        [*HIT_GATE, COMPOSE_CHECK,
         "tests/test_protocols.py::test_clock_exact_channel_composes_kicks"]),
    # the last kick left out, in the exact law and so in clock pass 2
    "rounds_last_kick_dropped": (
        "protocols.py",
        "if kicks is not None:",
        "if kicks is not None and j < q.shape[-1] - 1:",
        [*HIT_GATE, COMPOSE_CHECK,
         "tests/test_protocols.py::test_clock_exact_channel_composes_kicks"]),
    # a residual's site read from the block's digit instead of the cell's,
    # so two residuals of one touched block land on one site
    "hits_site_wrong_digit": (
        "protocols.py",
        "frames[np.cumsum(first) - 1, cells % BLOCK] ^= codes",
        "frames[np.cumsum(first) - 1, blocks % BLOCK] ^= codes",
        HIT_GATE),
    # a fresh block's frame drawn with one hit fewer than its count, so a
    # block of two hits decodes as a block of one
    "rounds_shared_drops_last_hit": (
        "protocols.py",
        "lo, hi = starts[count], starts[count + 1]",
        "lo, hi = starts[count - 1], starts[count]",
        [*HIT_GATE, FRESH_CHECK]),
    # a fresh block's hit count drawn given >= 1 hit, while the fresh
    # blocks are still chosen at P(>= 2 hits)
    "fresh_count_given_one": (
        "protocols.py",
        "v = gen.random((size, 1)) * tails[1]",
        "v = gen.random((size, 1)) * tails[0]",
        [*HIT_GATE, FRESH_CHECK]),
    # a touched block's noise drawn like a fresh block's, given >= 2 hits
    "touched_drawn_given_two": (
        "protocols.py",
        "frames = _draw_frames((touched.size, BLOCK), q, gen)",
        "frames = _fresh_frames(tails, touched.size, gen)",
        HIT_GATE),
    # a touched block also kept in the fresh choice, so it can take a
    # fresh frame on top of its own
    "touched_kept_fresh": (
        "protocols.py",
        'mode="clip") != new',
        'mode="clip") >= 0',
        [*HIT_GATE, ABOVE_GATE]),
    # the exclusion of touched blocks from the fresh list dropped: the
    # fresh blocks are looked up among the residual cells, one level down,
    # instead of the touched blocks, so a touched block keeps its fresh
    # frame and some other fresh blocks are lost.  Of a 1e4-trial call,
    # about 270 blocks are both fresh and touched at t_prot 0.08, and about
    # 0.04 at the circuit point, too few to see there
    "fresh_excluded_by_cells": (
        "protocols.py",
        "free = touched.take(np.searchsorted(touched, new),",
        "free = cells.take(np.searchsorted(cells, new),",
        [ABOVE_GATE]),
    # a one-row draw redraws its collisions within their row of the
    # register, not anywhere in it.  The (100_000, 25) cases at the cut and
    # at 0.3 see it, and the (200_000, 5) case below the cut, where it
    # adds a quarter to the rows of two hits; at 10_000 x 625 and
    # p = 0.0037 it moves the hits per row by O(p) and about 43 collisions
    # a call, too little to see
    "hit_cells_redraw_in_row": (
        "pauli.py",
        "        redo = gen.integers(0, n, np.count_nonzero(repeat))\n",
        "        redo = cells[1:][repeat]\n"
        "        redo -= redo % shape[-1]\n"
        "        redo += gen.integers(0, shape[-1], redo.size)\n",
        ["tests/test_pauli.py::test_sparse_draw_matches_dense_draw"]),
    # clock pass 2 draws each fault's code from X and Z alone, so Y appears
    # only as an abort
    "clock_pass2_never_y": (
        "protocols.py",
        "residuals[faults] = gen.integers(1, 4, faults.size, dtype=np.uint8)",
        "residuals[faults] = gen.integers(1, 3, faults.size, dtype=np.uint8)",
        [KICK_CHECK]),
    # two weight-2 failing strings, of classes X and Z, trade residuals:
    # every count, the 256-string classes and b_exact stay as they are
    "decoder_residuals_swapped": (
        "fivequbit.py",
        "        counts = np.bincount(weights[residuals != I], minlength=6)\n",
        "        a, b = (np.flatnonzero((weights == 2) & (residuals == c))[0]\n"
        "                for c in (1, 2))\n"
        "        residuals[[a, b]] = residuals[[b, a]]\n"
        "        counts = np.bincount(weights[residuals != I], minlength=6)\n",
        ["tests/test_fivequbit.py::test_decode_invariant_under_stabilizer",
         "tests/test_fivequbit.py::test_decode_covariant_under_logicals"]),
    # the samplers take clocks up to the int64 limit itself, where the
    # 2 K polarization sums no longer fit
    "max_bits_int64_limit": (
        "clock.py",
        "MAX_BITS = 2 ** 62 - 1",
        "MAX_BITS = 2 ** 63 - 1",
        ["tests/test_clock.py::test_samplers_bound_register_size_by_int64_sums"]),
    # a list field's entries go unchecked
    "config_list_entries_unchecked": (
        "cli.py",
        "for x in value if entries else (value,):",
        "for x in () if entries else (value,):",
        ["tests/test_cli.py::test_config_rejections"]),
    # every field takes null, as if each default were None
    "config_null_everywhere": (
        "cli.py",
        "            if spec.default is not None:\n",
        "            if False:\n",
        ["tests/test_cli.py::test_config_rejections"]),
    # a subcommand that is not a string reaches the schema lookup
    "config_subcommand_untyped": (
        "cli.py",
        "if not isinstance(sub, str) or sub not in SCHEMAS:",
        "if sub not in SCHEMAS:",
        ["tests/test_cli.py::test_config_rejections"]),
}


def run_tests(src: Path, tests) -> tuple[int, list[str]]:
    """(pytest exit code, ids of the failed tests) for tests run on src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--tb=no", "-rf", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    return proc.returncode, failed


def by_function(failed) -> str:
    """Failed test ids as their function names, with a count of cases."""
    counts = {}
    for test_id in failed:
        name = test_id.split("::")[-1].split("[")[0]
        counts[name] = counts.get(name, 0) + 1
    return ", ".join(name if n == 1 else f"{name} ({n} cases)"
                     for name, n in counts.items())


def copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def mutate(src: Path, name: str) -> None:
    file, text, replacement, _ = MUTANTS[name]
    path = src / "qmemsim" / file
    source = path.read_text()
    if source.count(text) != 1:
        raise SystemExit(f"{name}: the text to replace is not in {file} "
                         "exactly once")
    path.write_text(source.replace(text, replacement))


def main(names) -> int:
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        raise SystemExit(f"unknown mutation {unknown[0]}; "
                         f"known: {', '.join(MUTANTS)}")
    names = names or list(MUTANTS)
    all_tests = sorted({t for name in names for t in MUTANTS[name][3]})
    with tempfile.TemporaryDirectory(prefix="qmemsim-mutants-") as tmp:
        code, failed = run_tests(copy_src(Path(tmp) / "clean"), all_tests)
        if code != 0:
            print(f"unmutated copy: pytest exit {code}, failed {failed}")
            return 1
        print(f"unmutated copy: {len(all_tests)} test targets pass")
        survived = 0
        for name in names:
            src = copy_src(Path(tmp) / name)
            mutate(src, name)
            code, failed = run_tests(src, MUTANTS[name][3])
            if code == 0:
                survived += 1
                print(f"{name}: survived")
            elif code == 1:
                print(f"{name}: killed by {by_function(failed)}")
            else:
                print(f"{name}: killed (pytest exit {code}, no test ran "
                      "to a verdict)")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
