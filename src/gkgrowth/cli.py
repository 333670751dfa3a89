"""Command-line front end.

Each subcommand is one row of ``_COMMANDS``: help text, document
arguments, default ``--max-n``, allowed formats (default first) and a
render function ``(config, *inputs) -> str``.  One runner, ``_run``,
serves them all.  Presentations are read from small text documents::

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
keyed by a content hash of (the package's own source files, read when
this module is imported, command, document, configuration) and replays
it verbatim.  Each document is read once, and the bytes hashed are the
bytes parsed.  Entries are written to a temporary file and renamed into
place.

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
from typing import Callable, Optional, Sequence

from ._ratio import ratio_str
from .algebras import DEFAULT_BASIS_CAP, AlgebraPresentation, growth_sequence
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
    basis_cap: int = DEFAULT_BASIS_CAP
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


def _config_from_args(args, formats: tuple) -> RunConfig:
    """The run's configuration; ``formats`` are the command's, its default first."""
    if args.max_n < 0:
        raise InputError(f"--max-n must be at least 0, got {args.max_n}")
    if args.word_len is not None and args.word_len < 1:
        raise InputError(f"--word-len must be at least 1, got {args.word_len}")
    if args.cap < 0:
        raise InputError(f"--cap must be at least 0, got {args.cap}")
    config = RunConfig(
        max_level=args.max_n,
        window=_parse_window(args.window) if args.window else None,
        word_length=args.word_len,
        basis_cap=args.cap,
        out_format=args.format or formats[0],
        cache_dir=args.cache_dir,
        out_path=args.out,
    )
    if config.out_format not in formats:
        raise InputError(f"'{args.command}' emits structured reports; use --format json")
    return config


def _render_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _render_csv_rows(header: str, rows) -> str:
    return header + "\n" + "\n".join(rows) + "\n"


def _emit(text: str, config: RunConfig):
    if config.out_path:
        Path(config.out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _source_digest() -> str:
    """SHA-256 of the package's ``.py`` files, names and bytes."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        for data in (path.name.encode(), path.read_bytes()):
            digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


# Read as this module is imported, right after the package's modules are
# loaded, so an entry is replayed only by code from the sources that wrote it.
_SOURCE_DIGEST = _source_digest()


def _cache_key(command: str, payloads: Sequence[bytes], config: RunConfig) -> str:
    digest = hashlib.sha256()
    digest.update(f"gkgrowth {_SOURCE_DIGEST}\x00".encode())
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
# subcommands: one render function and one table row each


def _growth_table(config: RunConfig, pres: AlgebraPresentation):
    return growth_sequence(pres, config.max_level, basis_cap=config.basis_cap)


def _render_growth(config: RunConfig, pres: AlgebraPresentation) -> str:
    table = _growth_table(config, pres)
    if config.out_format == "csv":
        return _render_csv_rows("n,dim", [f"{n},{dim}" for n, dim in enumerate(table.dims)])
    return _render_json({"schema": "growth-table", "label": table.label, "max_n": table.max_level,
                         "dims": list(table.dims), "stabilized_at": table.stabilized_at})


def _render_gkdim(config: RunConfig, pres: AlgebraPresentation) -> str:
    table = _growth_table(config, pres)
    estimate = gk_estimate(table, config.window)
    if config.out_format == "csv":
        value = "" if estimate.value is None else ratio_str(estimate.value)
        row = f"{estimate.method},{value},{estimate.window[0]},{estimate.window[1]}"
        return _render_csv_rows("method,value,window_lo,window_hi", [row])
    return _render_json({"schema": "gk-estimate", "label": table.label, **estimate.as_record()})


def _render_compare(config: RunConfig, pres_a, pres_b) -> str:
    window = config.window or (1, config.max_level)
    if window[0] > window[1]:
        raise InputError("the default window 1:0 is empty; --max-n must be at least 1")
    if window[1] > config.max_level:
        raise InputError("window upper bound exceeds --max-n")
    tables = [_growth_table(config, pres) for pres in (pres_a, pres_b)]
    report = equivalence_check(*tables, window)
    return _render_json({"schema": "equivalence-report", **report.as_record()})


def _closure_record(config: RunConfig, pres, word_length: int, module_check=False) -> dict:
    """Central generators, base and closure tables with their estimates, and
    with ``module_check`` the module evidence (found before either estimate)."""
    closure = trace_algebra_generators(pres, word_length)
    tables = {"base": _growth_table(config, pres),
              "closure": _growth_table(config, closure.closure)}
    record = {"central_generators": [pres.ring.element_str(c) for c in closure.central_generators]}
    if module_check:
        finiteness = module_finiteness_check(closure)
        record["module_finiteness"] = {"stabilized": finiteness.stabilized,
                                       "rank": finiteness.rank, "note": finiteness.note}
    for name, table in tables.items():
        record[name] = {"dims": list(table.dims), **gk_estimate(table, config.window).as_record()}
    return record


def _render_charclosure(config: RunConfig, pres: AlgebraPresentation) -> str:
    word_length = config.word_length or pres.size * pres.size
    return _render_json({"schema": "char-closure", "label": pres.label, "word_length": word_length,
                         **_closure_record(config, pres, word_length, module_check=True)})


def _render_cayley(config: RunConfig, pres: AlgebraPresentation) -> str:
    subjects = list(pres.generators)
    subjects += [a * b for a in pres.generators for b in pres.generators]
    for idx, mat in enumerate(subjects):
        if not cayley_hamilton_check(mat).is_zero:
            raise InternalCheckError(f"characteristic polynomial does not annihilate element {idx}")
    results = [{"element": idx, "result": "Zero"} for idx in range(len(subjects))]
    return _render_json({"schema": "cayley-check", "label": pres.label, "checked": len(results),
                         "results": results, "verdict": "all checks Zero"})


def _render_pipeline(config: RunConfig, pres: AlgebraPresentation) -> str:
    window = config.window or (min(4, config.max_level), config.max_level)
    report = run_pipeline(pres, PipelineConfig(max_level=config.max_level, window=window,
                                               word_length=config.word_length,
                                               basis_cap=config.basis_cap))
    return _render_json({"schema": "pipeline-report", **report.as_record()})


def _render_exbig(config: RunConfig, m: int) -> str:
    pres, _embedding = build_diagonal_embedding_example(m)
    return _render_json({"schema": "diagonal-example", "m": m,
                         **_closure_record(config, pres, config.word_length or 1)})


@dataclass(frozen=True)
class _Command:
    help: str
    render: Callable[..., str]    # (config, *inputs) -> the output text
    documents: tuple = ("file",)  # document arguments; without any, the integer m
    formats: tuple = ("json",)    # the allowed --format values, the default first
    max_n: int = 12               # the default --max-n


_COMMANDS = {
    "growth": _Command("print the growth table of a presentation", _render_growth,
                       formats=("csv", "json")),
    "gkdim": _Command("estimate the growth degree of a presentation", _render_gkdim,
                      formats=("csv", "json")),
    "compare": _Command("two-sided dominance report for two presentations", _render_compare,
                        documents=("file_a", "file_b")),
    "charclosure": _Command("characteristic closure and its growth", _render_charclosure),
    "cayley": _Command("Cayley-Hamilton zero checks for the generators", _render_cayley),
    "pipeline": _Command("run the commutative-witness reduction pipeline", _render_pipeline),
    "exbig": _Command("the m-variable diagonal example and its closure", _render_exbig,
                      documents=(), max_n=10),
}


def _run(args) -> int:
    """Run one subcommand: configure, read each document once, then compute or replay.

    The cache key hashes the bytes read, and the computation parses those
    same bytes.  ``exbig`` reads no document: its m names the cache entry.
    """
    command = _COMMANDS[args.command]
    config = _config_from_args(args, command.formats)
    paths = [getattr(args, name) for name in command.documents]
    name, inputs = args.command, ()
    if not paths:
        if args.m < 1:
            raise InputError("m must be a positive integer")
        name, inputs = f"{name}:{args.m}", (args.m,)
    payloads = [_read_payload(path) for path in paths]

    def compute() -> str:
        documents = [_parse_payload(payload, path) for payload, path in zip(payloads, paths)]
        return command.render(config, *documents, *inputs)

    _with_cache(name, payloads, config, compute)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(parser: argparse.ArgumentParser, default_max_n: int):
    parser.add_argument("--max-n", type=int, default=default_max_n,
                        help="highest filtration level to compute")
    parser.add_argument("--window", type=str, default=None, help="analysis window LO:HI")
    parser.add_argument("--word-len", type=int, default=None,
                        help="characteristic-closure word length cutoff")
    parser.add_argument("--cap", type=int, default=DEFAULT_BASIS_CAP, help="span basis size cap")
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
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for document in command.documents:
            p.add_argument(document)
        if not command.documents:
            p.add_argument("m", type=int)
        _add_common(p, command.max_n)
    parser.set_defaults(func=_run)
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
