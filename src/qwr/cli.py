"""Command-line surface: parse codes, run transform pipelines, build
schedules, compute exact and effective distances, emit JSON reports.

Matrix files use the `mtxf2` text format: a "rows cols" header line, then
one line per row listing the 1-based column indices of its ones (a blank
line is a zero row).  An alist importer is provided as a thin adapter.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

from . import __version__
from .codes import INF, CapExceeded, CssCode, ClassicalCode, css_search
from .f2la import BinMatrix, bit_indices, transpose
from .faultdist import DEFAULT_MAX_D, effective_distance
from .reduce import greedy_heights, kept_z_rows
from .schedule import BALANCES, TRANSFORMS, Schedule, baseline_schedule, carry, format_schedule, parse_schedule

REPORT_SCHEMA = 2


class UsageError(ValueError):
    """Bad flags or a malformed input file: exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse, its subcommands too, raising UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def parse_matrix_file(path: str) -> BinMatrix:
    """Read an mtxf2 matrix; malformed lines and bad indices name their line."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise UsageError(f"{path}: empty file")
    head = _line_ints(path, 1, lines[0])
    if len(head) != 2:
        raise UsageError(f"{path}: line 1: header must be 'rows cols'")
    nrows, ncols = head
    if nrows < 0 or ncols < 0:
        raise UsageError(f"{path}: line 1: negative dimensions")
    if len(lines) - 1 < nrows:
        raise UsageError(f"{path}: expected {nrows} row lines, found {len(lines) - 1}")
    rows = [_line_bits(path, no, lines[no - 1], ncols) for no in range(2, nrows + 2)]
    for ln in range(nrows + 1, len(lines)):
        if lines[ln].strip():
            raise UsageError(f"{path}: line {ln + 1}: more row lines than the {nrows} declared")
    return BinMatrix(rows, ncols)


def _line_ints(path: str, no: int, text: str) -> list[int]:
    """The integers on line `no` of a matrix file."""
    try:
        return [int(t) for t in text.split()]
    except ValueError as e:
        raise UsageError(f"{path}: line {no}: {e}") from e


def _line_bits(path: str, no: int, text: str, bound: int, padding: bool = False) -> int:
    """The bit-vector of the distinct 1-based indices on line `no`; with
    `padding`, the index 0 stands for nothing."""
    v = 0
    for j in _line_ints(path, no, text):
        if padding and j == 0:
            continue
        if not 1 <= j <= bound:
            raise UsageError(f"{path}: line {no}: index {j} out of range 1..{bound}")
        if v >> (j - 1) & 1:
            raise UsageError(f"{path}: line {no}: index {j} repeated")
        v |= 1 << (j - 1)
    return v


def write_matrix_file(path: str, m: BinMatrix) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_matrix(m))


def format_matrix(m: BinMatrix) -> str:
    lines = [f"{m.nrows} {m.ncols}"]
    for i in range(m.nrows):
        lines.append(" ".join(str(j + 1) for j in m.row_support(i)))
    return "\n".join(lines) + "\n"


def parse_alist_file(path: str) -> BinMatrix:
    """Read an alist parity check matrix (checks as rows).

    Line-based, so both zero-padded and reduced alist writers parse.  The
    m row lines must list the same ones as the n column lines.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = [(no, ln) for no, ln in enumerate(f.read().splitlines(), 1) if ln.strip()]
    if len(lines) < 4:
        raise UsageError(f"{path}: truncated alist file")
    head = _line_ints(path, *lines[0])
    if len(head) < 2 or min(head[:2]) < 0:
        raise UsageError(f"{path}: line {lines[0][0]}: header must be 'n m'")
    n, m = head[:2]
    if len(lines) != 4 + n + m:
        raise UsageError(f"{path}: expected {n} column lines and {m} row lines, found {len(lines) - 4}")
    cols = [_line_bits(path, no, ln, m, padding=True) for no, ln in lines[4:4 + n]]
    rows = transpose(BinMatrix(cols, m)).rows
    for (no, ln), row in zip(lines[4 + n:], rows):
        if _line_bits(path, no, ln, n, padding=True) != row:
            raise UsageError(f"{path}: line {no}: row line contradicts the column lines")
    return BinMatrix(rows, n)


def load_matrix(path: str) -> BinMatrix:
    if path.endswith(".alist"):
        return parse_alist_file(path)
    return parse_matrix_file(path)


def _digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _code_params(q: CssCode) -> dict:
    return {
        "n": q.n, "k": q.k, "n_x": q.n_x, "n_z": q.n_z,
        "w_x": q.w_x, "w_z": q.w_z, "q_x": q.q_x, "q_z": q.q_z,
    }


def _dist_value(v) -> int | str:
    return "inf" if v == INF else int(v)


def run_pipeline(cfg: argparse.Namespace) -> dict:
    """Apply the configured transforms, derive schedules, compute distances.
    cfg holds the options by dest, as main or PipelineConfig builds them; the
    transform names, --classical and --heights are checked before any runs."""
    t0 = time.monotonic()
    timing = {}
    transforms = cfg.names + cfg.transforms
    hx = load_matrix(cfg.hx_path)
    hz = load_matrix(cfg.hz_path)
    code = CssCode(hx, hz)
    timing["parse"] = time.monotonic() - t0

    schedule, seed = None, cfg.seed
    schedule_mode = f"seed:{seed}" if cfg.schedule == "derived" else cfg.schedule
    if schedule_mode:
        if schedule_mode.startswith("seed:"):
            seed = _spec_int(schedule_mode)
            schedule = baseline_schedule(code, seed)
        elif schedule_mode.startswith("file:"):
            path, seed = schedule_mode.split(":", 1)[1], None  # no seed built it
            with open(path, "r", encoding="utf-8") as f:
                try:
                    schedule = parse_schedule(f.read())
                except ValueError as e:
                    raise UsageError(f"{path}: {e}") from e
        else:
            raise UsageError(f"bad --schedule value {schedule_mode!r}")
        schedule.validate(code)

    for name in transforms:
        if name not in TRANSFORMS:
            raise UsageError(f"unknown transform {name!r}")
    balances = [name for name in transforms if name in BALANCES]
    if balances and not cfg.classical_path:
        raise UsageError(f"{balances[0]} needs --classical <file>")
    classical = ClassicalCode(load_matrix(cfg.classical_path)) if balances else None
    heights = _heights_rule(cfg.heights) if cfg.heights else None

    t1 = time.monotonic()
    provenance = []
    prev = None
    for name in transforms:
        code, schedule, prev, note = carry(
            name, code, schedule, prev, ell=cfg.ell, heights=heights, classical=classical,
            cone_threshold=cfg.cone_threshold, cone_ell=cfg.cone_ell,
        )
        provenance.append({"transform": name, **note, "params": _code_params(code)})
    timing["transform"] = time.monotonic() - t1

    bases = ["X", "Z"] if cfg.basis == "both" else [cfg.basis]
    t2 = time.monotonic()
    distances = _compute_distances(code, schedule, bases, cfg.max_d)
    timing["distance"] = time.monotonic() - t2
    timing["total"] = time.monotonic() - t0

    report = {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "inputs": {
            "hx": {"path": cfg.hx_path, "sha256": _digest(cfg.hx_path)},
            "hz": {"path": cfg.hz_path, "sha256": _digest(cfg.hz_path)},
        },
        "seed": seed,
        "code": _code_params(code),
        "transforms": provenance,
        "distances": distances,
        "timing_s": {k: round(v, 6) for k, v in timing.items()},
    }
    if schedule is not None:
        report["schedule_steps"] = len(schedule.steps)
    if cfg.out_prefix:
        write_matrix_file(cfg.out_prefix + ".hx.mtxf2", code.h_x)
        write_matrix_file(cfg.out_prefix + ".hz.mtxf2", code.h_z)
        if schedule is not None:
            with open(cfg.out_prefix + ".schedule", "w", encoding="utf-8") as f:
                f.write(format_schedule(schedule))
        report["outputs"] = {
            "hx": cfg.out_prefix + ".hx.mtxf2",
            "hz": cfg.out_prefix + ".hz.mtxf2",
        }
    return report


def _heights_rule(spec: str):
    """thicken's heights(thickened code, BalanceMap) for a --heights value,
    whose syntax is checked here, before any transform runs."""
    if spec.startswith("greedy:"):
        target_w = _spec_int(spec, minimum=1)
        return lambda q_thick, bm: greedy_heights(q_thick, bm, target_w).heights
    if spec.startswith("explicit:"):
        heights = _spec_ints(spec)

        def fitted(q_thick, bm):
            try:
                kept_z_rows(bm, heights)
            except ValueError as e:
                raise UsageError(f"bad --heights value {spec!r}: {e}") from None
            return heights

        return fitted
    raise UsageError(f"bad --heights value {spec!r}")


def _spec_ints(spec: str) -> list[int]:
    """The comma-separated integers after the ':' of a 'kind:values' flag."""
    try:
        return [int(t) for t in spec.split(":", 1)[1].split(",")]
    except ValueError:
        raise UsageError(f"bad value {spec!r}: expected integers after ':'") from None


def _spec_int(spec: str, minimum: int | None = None) -> int:
    values = _spec_ints(spec)
    if len(values) != 1 or (minimum is not None and values[0] < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise UsageError(f"bad value {spec!r}: expected one integer{at_least} after ':'")
    return values[0]


def _positive_int(text: str) -> int:
    """argparse type of the count flags: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def _compute_distances(code: CssCode, schedule: Schedule | None, bases, max_d: int | None) -> dict:
    """Entries in sorted key order; with a schedule but no max_d the
    effective distances are labelled skipped."""
    entries = {f"code_{b}": _entry(css_search, code, b) for b in bases}
    if schedule is None:
        return entries
    if max_d is None:
        skipped = {"value": None, "method": "skipped", "bound": "no --max-d given"}
        return entries | {f"effective_{b}": dict(skipped) for b in bases}
    return entries | {f"effective_{b}": _entry(effective_distance, code, schedule, b, max_d, bound=max_d)
                      for b in bases}


def _entry(search, *args, bound=None) -> dict:
    """The report entry of the Search that search(*args) returns, under the
    given bound; skipped, with the cap's message as bound, when a cap stops it."""
    try:
        found = search(*args)
    except CapExceeded as e:
        return {"value": None, "method": "skipped", "bound": str(e)}
    entry = {"value": _dist_value(found.distance), "method": found.route, "bound": bound}
    if found.witness is not None:
        entry["witness"] = [
            {
                "kind": g.kind,
                "basis": g.basis,
                "qubit": None if g.qubit is None else g.qubit + 1,
                "step": None if g.step is None else g.step + 1,
                "cut": g.cut,
                "residual": [j + 1 for j in bit_indices(g.residual)],
            }
            for g in found.witness
        ]
    return entry


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text, flush=True)  # a closed stdout raises here, inside main


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qwr parser, built on first use and shared by every `main` call.
    Each option's dest is the name run_pipeline reads."""

    def options(**defaults) -> argparse.ArgumentParser:
        """The options of one subcommand, built afresh so that its defaults stay its own."""
        shared = argparse.ArgumentParser(add_help=False)
        shared.add_argument("--hx", dest="hx_path", metavar="HX", required=True,
                            help="X check matrix (mtxf2 or .alist)")
        shared.add_argument("--hz", dest="hz_path", metavar="HZ", required=True,
                            help="Z check matrix (mtxf2 or .alist)")
        shared.add_argument("--transform", dest="transforms", metavar="TRANSFORM", default=[], action="extend",
                            type=lambda text: [t for t in text.split(",") if t],
                            help="comma-separated transform list, run after the positional names; repeats add")
        shared.add_argument("--ell", type=_positive_int, default=2, help="thickening length")
        shared.add_argument("--heights", help="greedy:<w> (w >= 1) or explicit:<csv>, checked before any transform")
        shared.add_argument("--classical", dest="classical_path", metavar="CLASSICAL",
                            help="classical check matrix for balancing")
        shared.add_argument("--cone-threshold", type=_positive_int, default=5)
        shared.add_argument("--cone-ell", type=_positive_int, default=1)
        shared.add_argument("--schedule", help="seed:<n> | file:<path> | derived")
        shared.add_argument("--basis", choices=["X", "Z", "both"], default="both")
        shared.add_argument("--max-d", type=_positive_int)
        shared.add_argument("--seed", type=int, default=0)
        shared.add_argument("--out", help="write the JSON report here instead of stdout")
        shared.add_argument("--out-prefix", help="write transformed matrices/schedule files")
        shared.set_defaults(**defaults)
        return shared

    p = _Parser(prog="qwr", description=__doc__)
    p.set_defaults(names=[])
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("info", parents=[options()], help="code parameters and exact distances")
    names = argparse.ArgumentParser(add_help=False)  # so usage errors list `names` first
    names.add_argument("names", nargs="+", help=" ".join(TRANSFORMS))
    sub.add_parser("transform", parents=[names, options()], help="apply a transform pipeline")
    faultdist_options = options(schedule="derived", max_d=DEFAULT_MAX_D)
    sub.add_parser("faultdist", parents=[faultdist_options], help="effective distance under a schedule")
    return p


def PipelineConfig(**opts) -> argparse.Namespace:
    """run_pipeline's options for a caller without a command line: what
    `qwr info` parses, with opts (by dest) in place of the defaults."""
    return argparse.Namespace(**vars(build_parser().parse_args(["info", "--hx=", "--hz="])) | opts)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = build_parser().parse_args(argv)
        _emit(run_pipeline(cfg), cfg.out)
    except SystemExit:  # --help
        return 0
    except BrokenPipeError:  # the reader closed stdout (`| head`): quiet the exit flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (UsageError, OSError, UnicodeDecodeError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ValueError, CapExceeded) as e:
        print(f"audit failure: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
