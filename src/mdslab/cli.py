"""Command-line front end.

A run's config is its parsed flags: ``{"command": "<group> <sub>", <flag
dest>: <value>, ...}``, with ``MDSLAB_SEED`` resolved into ``seed``. Every
subcommand runs deterministically from its flags and writes its result table
as CSV (17 significant digits, LF line endings) and a JSON run record next to
it. The record's hash covers the config JSON, the environment (numpy, its BLAS
and the BLAS thread count, which changes eigensolver bits) and the sha256 of
every input file, taken before the command runs. ``stability converge --config FILE``
appends the keys of a JSON object as ``--key=value`` flags, so the file
overrides the flags it names and passes through the same parser. Exit codes:
0 success, 2 for validation or usage errors (unwritable output included) and
for a run too large for memory (``MemoryError``), 3 for numerical
non-convergence.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .mds_core import (
    NoConvergence,
    double_center,
    eigendecompose,
    embed,
    embed_negative,  # noqa: F401  bench/tracer.py wraps this name
    reconstruction_matrix,
    write_embedding_csv,
)
from .products import predict_product_spectrum, product_space, torus_check, verify_product_embedding
from .spaces import (
    AnalyticSpace,
    SampleSpec,
    Snowflake,
    Sphere,
    Torus,
    _fmt,
    _write_csv,
    read_space_csv,
    sample,
    write_space_csv,
)
from .sphere_spectral import (
    QuadratureNotConverged,
    ToleranceNotReached,
    asymptotic_scan,
    eigenvalue_quadrature,
    eigenvalue_series,
)
from .stability import convergence_experiment

SEED_ENV_VAR = "MDSLAB_SEED"

# Mathematical claim exercised by each subcommand, named in its run record.
CLAIMS = {
    "space gen": "construction and validation of finite metric measure spaces, grid and seeded random sampling",
    "mds embed": "double-centered spectral embedding; embedded distances dominate the input metric and reproduce it exactly on Euclidean-embeddable spaces",
    "mds krein": "signed spectral decomposition reconstructs squared distances exactly through the indefinite pair map",
    "sphere eigen": "sphere kernel eigenvalues: quadrature matches the closed form lambda_j to about 1e-9 absolute, the series gives c_d * lambda_j with c_d = sqrt(pi) Gamma(d/2) / (2 Gamma((d+1)/2)) to about --tol relative; odd degrees are positive (for quadrature, where lambda_j is well above 1e-9)",
    "sphere asymptotics": "the ground-truth positive eigenvalues lambda_{2n+1} decay like n^(-d-1): n^(d+1) lambda_{2n+1} tends to Gamma((d+1)/2)^2 / 4, so the normalized max/min ratio stays bounded",
    "stability converge": "circle and flat-torus grid embeddings converge to the analytic limit map after orthogonal alignment; the n-point circle grid embedding comes from one real DFT of its circulant kernel, and a torus:k row is that embedding once per factor, so its aligned residual is sqrt(k) times the circle's; every row adds a coupling-wise kernel-gap bound against a refined grid",
    "product check": "product spectra merge from factor spectra and squared embedding distances add across factors",
    "torus check": "flat torus embedding satisfies the snowflake identity pi * sum of factor distances; each factor is the circle grid embedding from one real DFT of its circulant kernel",
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunRecord:
    """Provenance of one run; identical config hashes imply byte-identical
    result tables (wall time is informational only). The hash covers the
    config JSON, the ``env`` JSON and the sha256 of every input file, in order.
    ``claim`` is the command's entry in ``CLAIMS``; it stays out of the hash,
    which promises bytes, not prose."""

    config_hash: str
    claim: str
    version: str
    wall_time_s: float
    result_path: Optional[str]
    config: dict
    env: dict
    input_sha256: list[str]
    result_sha256: str


@lru_cache(maxsize=None)
def _blas_thread_getters() -> tuple:
    """(file name, thread-count getter) of each loaded OpenBLAS library, looked
    up once per process: reading the memory map and the symbols costs far more
    than a getter call, which each record makes. Empty where the map cannot be read."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return ()
    getters = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                getters.append((os.path.basename(path), fn))
                break
    return tuple(getters)


def _environment() -> dict:
    """What fixes the result bytes besides the config and the inputs: numpy,
    its BLAS, and the thread count each loaded OpenBLAS reports now."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": {name: fn() for name, fn in _blas_thread_getters()}}


def emit_table(header: Sequence[str], rows: Sequence[Sequence], path: str) -> None:
    """Write a rectangular table as deterministic CSV bytes."""
    width = len(header)
    lines = [",".join(header)]
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ConfigError(f"row {r} has {len(row)} cells, header has {width}")
        lines.append(",".join(map(_fmt, row)))
    _write_csv(path, lines, ())


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # 64 KiB blocks: whole-file and 1 MiB reads of MB-sized inputs raised peak RSS
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _input_paths(args) -> list[str]:
    """Files a command reads: its ``--input``, or its comma-separated ``--factors``."""
    if hasattr(args, "factors"):
        return args.factors.split(",")
    return [args.input] if hasattr(args, "input") else []


def _write_run_record(config: dict, inputs: list[str], wall: float) -> None:
    out = config["out"]
    if out is None:
        return
    env = _environment()
    hashed = "\n".join([json.dumps(part, sort_keys=True, separators=(",", ":"))
                        for part in (config, env)] + inputs)
    record = RunRecord(
        config_hash=hashlib.sha256(hashed.encode("utf-8")).hexdigest(),
        claim=CLAIMS[config["command"]],
        version=__version__,
        wall_time_s=wall,
        result_path=out,
        config=config,
        env=env,
        input_sha256=inputs,
        result_sha256=_file_sha256(out),
    )
    with open(out + ".run.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(asdict(record), fh, sort_keys=True, indent=1)
        fh.write("\n")


def parse_space(spec: str) -> AnalyticSpace:
    """Parse a space string such as ``circle``, ``sphere:2``, ``torus:2`` or
    ``snowflake:circle:0.5``."""
    tokens = spec.split(":")

    def build(toks: list[str]) -> AnalyticSpace:
        head = toks.pop(0)
        if head == "circle":
            return Sphere(1)
        if head == "sphere":
            return Sphere(int(toks.pop(0)))
        if head == "torus":
            return Torus(int(toks.pop(0)))
        if head == "snowflake":
            alpha = float(toks.pop())
            return Snowflake(build(toks), alpha)
        raise ConfigError(f"unknown space {head!r}")

    try:
        space = build(tokens)
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"cannot parse space spec {spec!r}: {exc}") from exc
    if tokens:
        raise ConfigError(f"trailing tokens in space spec {spec!r}")
    return space


def _config_file_flags(path: str, command: str) -> list[str]:
    """The keys of a JSON config file as ``--key=value`` flags (the ``=`` keeps
    a value that starts with ``-`` attached). A ``command`` key, as run
    records carry, must name the command being run. Every value must be a
    JSON string or number: ``null``, booleans, lists and objects have no
    flag spelling."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} does not hold a JSON object")
    if data.pop("command", command) != command:
        raise ConfigError(f"config file {path!r} is not for {command!r}")
    for key, value in data.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ConfigError(f"config file {path!r}: key {key!r} holds {json.dumps(value)}, "
                              "expected a string or a number")
    return [f"--{key}={value}" for key, value in data.items()]


# ---------------------------------------------------------------------------
# Subcommand implementations; each reads its parsed flags.


def _cmd_space_gen(args) -> None:
    fs = sample(parse_space(args.space), SampleSpec(mode=args.mode, n=args.n, seed=args.seed))
    write_space_csv(fs, args.out)
    print(f"wrote {fs.n}-point space to {args.out}")


def _cmd_mds_embed(args) -> None:
    fs = read_space_csv(args.input)
    result = eigendecompose(double_center(fs))
    E = embed(result, args.m)
    emit_table([f"coord_{j + 1}" for j in range(args.m)], E.tolist(), args.out)
    print(f"embedded {fs.n} points into R^{args.m}; positive rank {result.positive_count}")


def _cmd_mds_krein(args) -> None:
    fs = read_space_csv(args.input)
    result = eigendecompose(double_center(fs))
    write_embedding_csv(result, args.out)
    recon = reconstruction_matrix(result)
    err = float(np.max(np.abs(recon - fs.D**2)))
    print(
        f"signed spectrum: {result.positive_count} positive, {result.negative_count} negative; "
        f"max |reconstructed - d^2| = {_fmt(err)}; negative part dimension {result.negative_count}"
    )


def _cmd_sphere_eigen(args) -> None:
    if args.method == "series":
        if args.kind != "full":
            raise ConfigError("the series evaluator covers the full kernel only")
        value = eigenvalue_series(args.dim, args.degree, args.tol)
    else:
        value = eigenvalue_quadrature(args.dim, args.degree, args.kind)
    print(_fmt(value))
    if args.out:
        emit_table(["dim", "degree", "method", "kind", "lambda"],
                   [[args.dim, args.degree, args.method, args.kind, value]], args.out)


def _cmd_sphere_asymptotics(args) -> None:
    if not 1 <= args.nmin <= args.nmax:
        raise ConfigError(f"need 1 <= --nmin <= --nmax, got {args.nmin} and {args.nmax}")
    scan = asymptotic_scan(args.dim, range(args.nmin, args.nmax + 1))
    rows = [[int(n), lam, norm] for n, lam, norm in
            zip(scan.n_values, scan.lam, scan.normalized)]
    emit_table(["n", "lambda", "normalized"], rows, args.out)
    print(
        f"scanned n in [{args.nmin}, {args.nmax}] for d={args.dim}; "
        f"normalized max/min ratio {_fmt(scan.ratio_bound)}"
    )


def _cmd_stability_converge(args) -> None:
    sizes = tuple(int(tok) for tok in args.sizes.split(","))
    rows = convergence_experiment(parse_space(args.space), sizes, args.m, refine=args.refine)
    emit_table(
        ["n", "aligned_L2", "gw2_images", "w4", "hs_gap_bound_lhs", "hs_gap_bound_rhs"],
        [[r.n, r.aligned_l2, r.gw2_images, r.w4, r.hs_lhs, r.hs_rhs] for r in rows],
        args.out,
    )
    print(f"convergence table for {args.space} written to {args.out}")


def _cmd_product_check(args) -> None:
    paths = args.factors.split(",")
    if len(paths) != 2:
        raise ConfigError("product check needs exactly two factor files")
    A = read_space_csv(paths[0])
    B = read_space_csv(paths[1])
    res_a = eigendecompose(double_center(A))
    res_b = eigendecompose(double_center(B))
    pred = predict_product_spectrum(res_a, res_b)
    direct = eigendecompose(double_center(product_space(A, B)))
    direct_nz = direct.eigenvalues[direct.eigenvalues != 0.0]
    k = min(pred.eigenvalues.size, direct_nz.size)
    spectrum_err = float(np.max(np.abs(pred.eigenvalues[:k] - direct_nz[:k]))) if k else 0.0
    additivity_err = verify_product_embedding(pred, direct)
    rows = [[int(i + 1), pred.eigenvalues[i],
             direct_nz[i] if i < direct_nz.size else 0.0] for i in range(pred.eigenvalues.size)]
    emit_table(["rank", "merged_lambda", "direct_lambda"], rows, args.out)
    print(
        f"spectrum merge max error {_fmt(spectrum_err)}; "
        f"additivity max error {_fmt(additivity_err)}"
    )


def _cmd_torus_check(args) -> None:
    try:
        check = torus_check(args.n, args.k, args.trunc, n_pairs=args.pairs, seed=args.seed)
    except ValueError as exc:  # every argument is a flag
        raise ConfigError(str(exc)) from exc
    if args.out:
        emit_table(
            ["n_per_factor", "k_factors", "trunc", "pairs", "max_error"],
            [[args.n, args.k, args.trunc, args.pairs, check.max_error]],
            args.out,
        )
    print(f"torus identity max error {_fmt(check.max_error)} over {args.pairs} pairs")


class _Parser(argparse.ArgumentParser):
    """A parser without prefix matching, so a shortened flag or config key is
    an error; subparsers are built from the same class."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: ``parse_args`` leaves it unchanged and returns a fresh namespace."""
    parser = _Parser(
        prog="mdslab",
        description="Finite and limiting multidimensional scaling on metric measure spaces.",
    )
    parser.add_argument("--version", action="version", version=f"mdslab {__version__}")
    top = parser.add_subparsers(dest="group")

    space = top.add_parser("space", help="finite space generation").add_subparsers(dest="sub")
    gen = space.add_parser("gen", help="sample an analytic space to CSV")
    gen.add_argument("--space", required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--mode", choices=["grid", "random"], default="grid")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_space_gen)

    mds = top.add_parser("mds", help="finite MDS pipeline").add_subparsers(dest="sub")
    emb = mds.add_parser("embed", help="embed a space CSV into R^m")
    emb.add_argument("--input", required=True)
    emb.add_argument("--m", type=int, required=True)
    emb.add_argument("--out", required=True)
    emb.set_defaults(func=_cmd_mds_embed)
    krein = mds.add_parser("krein", help="full signed decomposition and reconstruction check")
    krein.add_argument("--input", required=True)
    krein.add_argument("--out", required=True)
    krein.set_defaults(func=_cmd_mds_krein)

    sphere = top.add_parser("sphere", help="sphere kernel spectra").add_subparsers(dest="sub")
    eig = sphere.add_parser("eigen", help="one eigenvalue of the sphere kernel")
    eig.add_argument("--dim", type=int, required=True)
    eig.add_argument("--degree", type=int, required=True)
    eig.add_argument("--method", choices=["series", "quadrature"], required=True,
                     help="series: c_d * lambda_j to about --tol relative; quadrature: "
                          "lambda_j to about 1e-9 absolute, so values near or below 1e-9 "
                          "resolve neither sign nor relative size")
    eig.add_argument("--kind", choices=["full", "snowflake"], default="full")
    eig.add_argument("--tol", type=float, default=1e-9,
                     help="series only: stop once two successive tail-corrected sums agree "
                          "to this in log, about the value's relative error")
    eig.add_argument("--out", default=None)
    eig.set_defaults(func=_cmd_sphere_eigen)
    asy = sphere.add_parser("asymptotics", help="odd-degree eigenvalue decay scan")
    asy.add_argument("--dim", type=int, required=True)
    asy.add_argument("--nmin", type=int, required=True)
    asy.add_argument("--nmax", type=int, required=True)
    asy.add_argument("--out", required=True)
    asy.set_defaults(func=_cmd_sphere_asymptotics)

    stab = top.add_parser("stability", help="convergence experiments").add_subparsers(dest="sub")
    conv = stab.add_parser("converge", help="grid-size sweep against the limit map")
    conv.add_argument("--space", default="circle")
    conv.add_argument("--sizes", default="16,32,64,128,256,512",
                      help="grid points per factor; every row, torus:k included, decomposes "
                           "one n-point circle grid (one real DFT, no eigensolver), and n must "
                           "be at least 2 (m // k) - 1")
    conv.add_argument("--m", type=int, default=2, help="rounded up to whole degenerate blocks")
    conv.add_argument("--refine", type=int, default=4,
                      help="sets the fine grid (refine * n points per factor) of the "
                           "kernel-gap columns on circle and torus rows")
    conv.add_argument("--out", default="converge.csv")
    conv.add_argument("--config", default=None, help="JSON config file overriding the flags")
    conv.set_defaults(func=_cmd_stability_converge)

    prod = top.add_parser("product", help="product space checks").add_subparsers(dest="sub")
    pchk = prod.add_parser("check", help="spectrum merge and additivity report")
    pchk.add_argument("--factors", required=True, help="two space CSV paths, comma separated")
    pchk.add_argument("--out", required=True)
    pchk.set_defaults(func=_cmd_product_check)

    torus = top.add_parser("torus", help="flat torus checks").add_subparsers(dest="sub")
    tchk = torus.add_parser("check", help="torus snowflake identity error")
    tchk.add_argument("--n", type=int, required=True)
    tchk.add_argument("--k", type=int, required=True)
    tchk.add_argument("--trunc", type=int, required=True)
    tchk.add_argument("--pairs", type=int, default=1000)
    tchk.add_argument("--seed", type=int, default=None)
    tchk.add_argument("--out", default=None)
    tchk.set_defaults(func=_cmd_torus_check)

    return parser


def run(argv: Sequence[str]) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    argv = list(argv)
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            print("error: unknown or incomplete command", file=sys.stderr)
            return 2
        command = f"{args.group} {args.sub}"
        if getattr(args, "config", None):
            args = parser.parse_args(argv + _config_file_flags(args.config, command))
        if hasattr(args, "seed") and args.seed is None:
            args.seed = int(os.environ.get(SEED_ENV_VAR) or 0)
        flags = {k: v for k, v in vars(args).items() if k not in ("group", "sub", "func", "config")}
        config = {"command": command, **flags}
        # hashed before the run, which may overwrite an input with its output
        inputs = [_file_sha256(path) for path in _input_paths(args)]
        start = time.perf_counter()
        args.func(args)
        _write_run_record(config, inputs, time.perf_counter() - start)
    except SystemExit as exc:  # argparse: usage errors, --help, --version
        return 2 if isinstance(exc.code, int) and exc.code else 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ToleranceNotReached, QuadratureNotConverged, NoConvergence) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
