"""Command-line front end.

Subcommands: growth, gkdim, compare, charclosure, cayley, pipeline,
exbig.  Presentations are read from small text documents::

    # lines starting with '#' are comments
    label: laurent-pair
    ring: ratfunc x          # or: poly x1 x2 ...   or: rationals
    size: 1
    generator:
    x
    generator:
    1/x

Each ``generator:`` is followed by ``size`` lines of ``size``
comma-separated entries in the polynomial expression grammar (with ``/``
division allowed for rational-function rings).  Documents are UTF-8 text.

Exit codes: 0 success, 2 malformed input, 3 resource cap exceeded,
4 semisimple quotient does not split over the base field, 5 internal
consistency failure (a bug, never a property of the input).

The same document and configuration always produce byte-identical
output; the optional cache (``--cache-dir``) stores the rendered output
keyed by a content hash of (gkgrowth version, cache schema, command,
document, configuration) and replays it verbatim.  Each document is read
once, and the bytes hashed are the bytes parsed.  Entries are written to
a temporary file and renamed into place.

``main(argv)`` may be called any number of times in one process; the calls
share one argument parser, built on the first call.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from ._ratio import ratio_str
from .algebras import AlgebraPresentation, growth_sequence
from .charpoly import cayley_hamilton_check
from .closure import build_diagonal_embedding_example, module_finiteness_check, trace_algebra_generators
from .errors import (
    CapExceededError,
    GkGrowthError,
    InputError,
    InsufficientDataError,
    InternalCheckError,
    NotSplitOverBaseError,
)
from .growth import equivalence_check, gk_estimate
from .matrices import Matrix
from .parse import parse_entry
from .pipeline import PipelineConfig, run_pipeline
from .poly import PolyRing, RatFuncField, RationalField

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_NOT_SPLIT = 4
EXIT_INTERNAL = 5

# Bump when the rendering of any cached output changes without a version bump.
CACHE_SCHEMA = 1


# ---------------------------------------------------------------------------
# presentation documents


@dataclass(frozen=True)
class PresentationDocument:
    label: str
    ring: object
    size: int
    entries: tuple  # per generator: tuple of row tuples of entry strings

    def presentation(self) -> AlgebraPresentation:
        gens = []
        for grid in self.entries:
            rows = [[parse_entry(cell, self.ring) for cell in row] for row in grid]
            gens.append(Matrix(self.ring, rows))
        return AlgebraPresentation(self.ring, self.size, gens, self.label)


def _parse_ring(descriptor: str, lineno: int):
    parts = descriptor.split()
    if not parts:
        raise InputError(f"line {lineno}: empty ring descriptor")
    kind = parts[0]
    if kind == "rationals":
        if len(parts) != 1:
            raise InputError(f"line {lineno}: 'rationals' takes no variables")
        return RationalField()
    if kind == "poly":
        if len(parts) < 2:
            raise InputError(f"line {lineno}: 'poly' needs at least one variable")
        return PolyRing(tuple(parts[1:]))
    if kind == "ratfunc":
        if len(parts) != 2:
            raise InputError(f"line {lineno}: 'ratfunc' needs exactly one variable")
        return RatFuncField(parts[1])
    raise InputError(f"line {lineno}: unknown ring kind {kind!r}")


def parse_presentation_document(text: str) -> PresentationDocument:
    label = None
    ring = None
    size = None
    generators = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i]
        line = raw.strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        if line.startswith("label:"):
            label = line[len("label:"):].strip()
        elif line.startswith("ring:"):
            ring = _parse_ring(line[len("ring:"):].strip(), i)
        elif line.startswith("size:"):
            try:
                size = int(line[len("size:"):].strip())
            except ValueError:
                raise InputError(f"line {i}: size must be an integer") from None
        elif line == "generator:":
            if size is None or ring is None:
                raise InputError(f"line {i}: 'generator:' before ring/size declarations")
            grid = []
            for _ in range(size):
                while i < len(lines) and (not lines[i].strip() or lines[i].strip().startswith("#")):
                    i += 1
                if i >= len(lines):
                    raise InputError(f"line {i}: generator matrix is missing rows")
                cells = [c.strip() for c in lines[i].split(",")]
                if len(cells) != size:
                    raise InputError(
                        f"line {i + 1}: expected {size} comma-separated entries, got {len(cells)}"
                    )
                grid.append(tuple(cells))
                i += 1
            generators.append(tuple(grid))
        else:
            raise InputError(f"line {i}: unrecognized directive {line!r}")
    if ring is None or size is None:
        raise InputError("document must declare 'ring:' and 'size:'")
    if not generators:
        raise InputError("document declares no generators")
    return PresentationDocument(label or "algebra", ring, size, tuple(generators))


def _read_payload(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _parse_payload(payload: bytes, path: str) -> AlgebraPresentation:
    """Parse the bytes of the document at ``path``, exactly as read once."""
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_presentation_document(text).presentation()


def load_presentation(path: str) -> AlgebraPresentation:
    return _parse_payload(_read_payload(path), path)


# ---------------------------------------------------------------------------
# configuration, caching, rendering


@dataclass(frozen=True)
class RunConfig:
    max_level: int = 12
    window: Optional[tuple] = None
    word_length: Optional[int] = None
    basis_cap: int = 20000
    out_format: str = "csv"
    cache_dir: Optional[str] = None
    out_path: Optional[str] = None

    def canonical(self) -> str:
        return json.dumps(
            {
                "max_level": self.max_level,
                "window": list(self.window) if self.window else None,
                "word_length": self.word_length,
                "basis_cap": self.basis_cap,
                "format": self.out_format,
            },
            sort_keys=True,
        )


def _parse_window(text: str) -> tuple:
    try:
        lo, hi = text.split(":")
        window = (int(lo), int(hi))
    except ValueError:
        raise InputError(f"--window expects LO:HI, got {text!r}") from None
    if window[0] < 0 or window[0] > window[1]:
        raise InputError(f"empty window {text!r}")
    return window


def _config_from_args(args, default_format: str) -> RunConfig:
    return RunConfig(
        max_level=args.max_n,
        window=_parse_window(args.window) if args.window else None,
        word_length=args.word_len,
        basis_cap=args.cap,
        out_format=args.format or default_format,
        cache_dir=args.cache_dir,
        out_path=args.out,
    )


def _render_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _render_csv_rows(header: str, rows) -> str:
    return header + "\n" + "\n".join(rows) + "\n"


def _emit(text: str, config: RunConfig):
    if config.out_path:
        Path(config.out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cache_key(command: str, payloads: Sequence[bytes], config: RunConfig) -> str:
    digest = hashlib.sha256()
    digest.update(f"gkgrowth {__version__} cache {CACHE_SCHEMA}\x00".encode())
    digest.update(command.encode())
    digest.update(config.canonical().encode())
    for payload in payloads:
        digest.update(b"\x00")
        digest.update(payload)
    return digest.hexdigest()


def _with_cache(command: str, payloads: Sequence[bytes], config: RunConfig, compute):
    if not config.cache_dir:
        _emit(compute(), config)
        return
    cache_dir = Path(config.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    entry = cache_dir / f"{_cache_key(command, payloads, config)}.out"
    if entry.exists():
        _emit(entry.read_text(encoding="utf-8"), config)
        return
    text = compute()
    # Write a temporary file beside the entry and rename it into place, so
    # an interrupted write never leaves a partial entry to be replayed.
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, entry)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _emit(text, config)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_growth(args) -> int:
    config = _config_from_args(args, "csv")
    payload = _read_payload(args.file)

    def compute() -> str:
        pres = _parse_payload(payload, args.file)
        table = growth_sequence(pres, config.max_level, basis_cap=config.basis_cap)
        if config.out_format == "csv":
            rows = [f"{n},{dim}" for n, dim in enumerate(table.dims)]
            return _render_csv_rows("n,dim", rows)
        return _render_json(
            {
                "schema": "growth-table",
                "label": table.label,
                "max_n": table.max_level,
                "dims": list(table.dims),
                "stabilized_at": table.stabilized_at,
            }
        )

    _with_cache("growth", [payload], config, compute)
    return EXIT_OK


def _cmd_gkdim(args) -> int:
    config = _config_from_args(args, "csv")
    payload = _read_payload(args.file)

    def compute() -> str:
        pres = _parse_payload(payload, args.file)
        table = growth_sequence(pres, config.max_level, basis_cap=config.basis_cap)
        estimate = gk_estimate(table, config.window)
        if config.out_format == "csv":
            row = f"{estimate.method},{ratio_str(estimate.value)},{estimate.window[0]},{estimate.window[1]}"
            return _render_csv_rows("method,value,window_lo,window_hi", [row])
        return _render_json({"schema": "gk-estimate", "label": table.label, **estimate.as_record()})

    _with_cache("gkdim", [payload], config, compute)
    return EXIT_OK


def _cmd_compare(args) -> int:
    config = _config_from_args(args, "json")
    _require_json(config, "compare")
    payloads = [_read_payload(args.file_a), _read_payload(args.file_b)]

    def compute() -> str:
        pres_a = _parse_payload(payloads[0], args.file_a)
        pres_b = _parse_payload(payloads[1], args.file_b)
        window = config.window or (1, config.max_level)
        if window[1] > config.max_level:
            raise InputError("window upper bound exceeds --max-n")
        table_a = growth_sequence(pres_a, config.max_level, basis_cap=config.basis_cap)
        table_b = growth_sequence(pres_b, config.max_level, basis_cap=config.basis_cap)
        report = equivalence_check(table_a, table_b, window)
        return _render_json({"schema": "equivalence-report", **report.as_record()})

    _with_cache("compare", payloads, config, compute)
    return EXIT_OK


def _cmd_charclosure(args) -> int:
    config = _config_from_args(args, "json")
    _require_json(config, "charclosure")
    payload = _read_payload(args.file)

    def compute() -> str:
        pres = _parse_payload(payload, args.file)
        word_length = config.word_length or pres.size * pres.size
        closure = trace_algebra_generators(pres, word_length)
        base_table = growth_sequence(pres, config.max_level, basis_cap=config.basis_cap)
        closure_table = growth_sequence(closure.closure, config.max_level,
                                        basis_cap=config.basis_cap)
        finiteness = module_finiteness_check(closure)
        return _render_json(
            {
                "schema": "char-closure",
                "label": pres.label,
                "word_length": word_length,
                "central_generators": [pres.ring.element_str(c) for c in closure.central_generators],
                "base": {"dims": list(base_table.dims),
                         **gk_estimate(base_table, config.window).as_record()},
                "closure": {"dims": list(closure_table.dims),
                            **gk_estimate(closure_table, config.window).as_record()},
                "module_finiteness": {
                    "stabilized": finiteness.stabilized,
                    "rank": finiteness.rank,
                    "note": finiteness.note,
                },
            }
        )

    _with_cache("charclosure", [payload], config, compute)
    return EXIT_OK


def _cmd_cayley(args) -> int:
    config = _config_from_args(args, "json")
    _require_json(config, "cayley")
    payload = _read_payload(args.file)

    def compute() -> str:
        pres = _parse_payload(payload, args.file)
        subjects = list(pres.generators)
        subjects += [a * b for a in pres.generators for b in pres.generators]
        results = []
        for idx, mat in enumerate(subjects):
            witness = cayley_hamilton_check(mat)
            if not witness.is_zero:
                raise InternalCheckError(
                    f"characteristic polynomial does not annihilate element {idx}"
                )
            results.append({"element": idx, "result": "Zero"})
        return _render_json(
            {"schema": "cayley-check", "label": pres.label, "checked": len(results),
             "results": results, "verdict": "all checks Zero"}
        )

    _with_cache("cayley", [payload], config, compute)
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    config = _config_from_args(args, "json")
    _require_json(config, "pipeline")
    payload = _read_payload(args.file)

    def compute() -> str:
        pres = _parse_payload(payload, args.file)
        window = config.window or (min(4, config.max_level), config.max_level)
        pipeline_config = PipelineConfig(
            max_level=config.max_level,
            window=window,
            word_length=config.word_length,
            basis_cap=config.basis_cap,
        )
        report = run_pipeline(pres, pipeline_config)
        return _render_json({"schema": "pipeline-report", **report.as_record()})

    _with_cache("pipeline", [payload], config, compute)
    return EXIT_OK


def _cmd_exbig(args) -> int:
    config = _config_from_args(args, "json")
    _require_json(config, "exbig")
    if args.m < 1:
        raise InputError("m must be a positive integer")

    def compute() -> str:
        pres, _embedding = build_diagonal_embedding_example(args.m)
        word_length = config.word_length or 1
        closure = trace_algebra_generators(pres, word_length)
        base_table = growth_sequence(pres, config.max_level, basis_cap=config.basis_cap)
        closure_table = growth_sequence(closure.closure, config.max_level,
                                        basis_cap=config.basis_cap)
        return _render_json(
            {
                "schema": "diagonal-example",
                "m": args.m,
                "central_generators": [pres.ring.element_str(c) for c in closure.central_generators],
                "base": {"dims": list(base_table.dims),
                         **gk_estimate(base_table, config.window).as_record()},
                "closure": {"dims": list(closure_table.dims),
                            **gk_estimate(closure_table, config.window).as_record()},
            }
        )

    _with_cache(f"exbig:{args.m}", [], config, compute)
    return EXIT_OK


def _require_json(config: RunConfig, command: str):
    if config.out_format != "json":
        raise InputError(f"'{command}' emits structured reports; use --format json")


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(parser: argparse.ArgumentParser, default_max_n: int):
    parser.add_argument("--max-n", type=int, default=default_max_n,
                        help="highest filtration level to compute")
    parser.add_argument("--window", type=str, default=None, help="analysis window LO:HI")
    parser.add_argument("--word-len", type=int, default=None,
                        help="characteristic-closure word length cutoff")
    parser.add_argument("--cap", type=int, default=20000, help="span basis size cap")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (growth/gkdim default csv, reports are json)")
    parser.add_argument("--cache-dir", type=str, default=None, help="result cache directory")
    parser.add_argument("--out", type=str, default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkgrowth",
        description="Exact growth filtrations and growth-equivalence analysis "
        "for finitely generated matrix algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", help="print the growth table of a presentation")
    p.add_argument("file")
    _add_common(p, 12)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("gkdim", help="estimate the growth degree of a presentation")
    p.add_argument("file")
    _add_common(p, 12)
    p.set_defaults(func=_cmd_gkdim)

    p = sub.add_parser("compare", help="two-sided dominance report for two presentations")
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_common(p, 12)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("charclosure", help="characteristic closure and its growth")
    p.add_argument("file")
    _add_common(p, 12)
    p.set_defaults(func=_cmd_charclosure)

    p = sub.add_parser("cayley", help="Cayley-Hamilton zero checks for the generators")
    p.add_argument("file")
    _add_common(p, 12)
    p.set_defaults(func=_cmd_cayley)

    p = sub.add_parser("pipeline", help="run the commutative-witness reduction pipeline")
    p.add_argument("file")
    _add_common(p, 12)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("exbig", help="the m-variable diagonal example and its closure")
    p.add_argument("m", type=int)
    _add_common(p, 10)
    p.set_defaults(func=_cmd_exbig)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call of the process shares, built on first use.

    ``parse_args`` leaves a parser unchanged, so reusing it spares each call
    the cost of rebuilding the tree; building it here rather than at import
    keeps ``import gkgrowth.cli`` as cheap as before.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NotSplitOverBaseError as exc:
        print(f"not split over the base field: {exc}", file=sys.stderr)
        return EXIT_NOT_SPLIT
    except CapExceededError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InputError, InsufficientDataError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GkGrowthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
