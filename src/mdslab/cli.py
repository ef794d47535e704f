"""Command-line front end.

Every subcommand normalizes its flags into a nine-key experiment config
(command, space, sizes, m, p, tol, seed, refine, out), runs deterministically
from that config, writes its result table as CSV (17 significant digits, LF
line endings) and a JSON run record next to it. Exit codes: 0 success, 2 for
validation or usage errors, 3 for numerical non-convergence.

Key normalizations that are not one-to-one with flags: sample mode rides on
the space string as an ``@random`` suffix, the eigenvalue method and kernel
kind ride on the command as ``sphere eigen:<method>:<kind>``, torus checks
store the per-factor grid size and pair count in ``sizes`` and the
truncation degree in ``m``, and file inputs are space specs too.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .mds_core import (
    NoConvergence,
    double_center,
    eigendecompose,
    embed,
    embed_negative,
    reconstruction_matrix,
    write_embedding_csv,
)
from .products import predict_product_spectrum, product_space, torus_check, verify_product_embedding
from .spaces import (
    AnalyticSpace,
    SampleSpec,
    Snowflake,
    SpaceValidationError,
    Sphere,
    Torus,
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
from .stability import MarginalMismatch, UnsupportedSpace, convergence_experiment

SEED_ENV_VAR = "MDSLAB_SEED"

# Mathematical claim exercised by each subcommand, for the run records and
# the registry completeness test.
CLAIMS = {
    "space gen": "construction and validation of finite metric measure spaces, grid and seeded random sampling",
    "mds embed": "double-centered spectral embedding; embedded distances dominate the input metric and reproduce it exactly on Euclidean-embeddable spaces",
    "mds krein": "signed spectral decomposition reconstructs squared distances exactly through the indefinite pair map",
    "sphere eigen": "sphere kernel eigenvalues: series and quadrature evaluators agree per dimension up to one degree-independent factor; odd degrees are positive",
    "sphere asymptotics": "positive sphere eigenvalues decay like n^(-d-1), with the summand peaking at s = Theta(n^2)",
    "stability converge": "circle grid embeddings converge to the limit map after orthogonal alignment, with coupling-wise kernel-gap bounds",
    "product check": "product spectra merge from factor spectra and squared embedding distances add across factors",
    "torus check": "flat torus embedding satisfies the snowflake identity pi * sum of factor distances",
}


class UnknownCommand(ValueError):
    pass


class ConfigError(ValueError):
    pass


class IoFailure(OSError):
    pass


_CONFIG_KEYS = ("command", "space", "sizes", "m", "p", "tol", "seed", "refine", "out")


@dataclass(frozen=True)
class ExperimentConfig:
    """Normalized run configuration; hash-stable and JSON round-trippable."""

    command: str
    space: Optional[str] = None
    sizes: Optional[tuple[int, ...]] = None
    m: Optional[int] = None
    p: Optional[float] = None
    tol: Optional[float] = None
    seed: Optional[int] = None
    refine: Optional[int] = None
    out: Optional[str] = None

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["sizes"] is not None:
            d["sizes"] = list(d["sizes"])
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "command" not in data:
            raise ConfigError("config needs a 'command' key")
        kwargs = dict(data)
        if kwargs.get("sizes") is not None:
            kwargs["sizes"] = tuple(int(v) for v in kwargs["sizes"])
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunRecord:
    """Provenance of one run; identical config hashes imply byte-identical
    result tables (wall time is informational only)."""

    config_hash: str
    version: str
    wall_time_s: float
    result_path: Optional[str]
    config: dict


def _fmt(x) -> str:
    if isinstance(x, float) or isinstance(x, np.floating):
        return f"{float(x):.17g}"
    return str(x)


def emit_table(header: Sequence[str], rows: Sequence[Sequence], path: str) -> None:
    """Write a rectangular table as deterministic CSV bytes."""
    width = len(header)
    lines = [",".join(header)]
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ConfigError(f"row {r} has {len(row)} cells, header has {width}")
        lines.append(",".join(_fmt(v) for v in row))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _write_run_record(config: ExperimentConfig, wall: float) -> None:
    if config.out is None:
        return
    record = RunRecord(
        config_hash=config.config_hash,
        version=__version__,
        wall_time_s=wall,
        result_path=config.out,
        config=config.to_dict(),
    )
    with open(config.out + ".run.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(asdict(record), fh, sort_keys=True, indent=1)
        fh.write("\n")


def parse_space(spec: str) -> tuple[AnalyticSpace, str]:
    """Parse a space string such as ``circle``, ``sphere:2``, ``torus:2``,
    ``snowflake:circle:0.5``, optionally suffixed ``@random``. Returns the
    space and the sampling mode."""
    mode = "grid"
    if "@" in spec:
        spec, mode_token = spec.split("@", 1)
        if mode_token not in ("grid", "random"):
            raise ConfigError(f"unknown sampling mode {mode_token!r}")
        mode = mode_token
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
    return space, ("uniform_random" if mode == "random" else "grid")


def _seed_from(args_seed: Optional[int]) -> int:
    if args_seed is not None:
        return args_seed
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env else 0


# ---------------------------------------------------------------------------
# Subcommand implementations; each returns the normalized config.


def _cmd_space_gen(args) -> ExperimentConfig:
    seed = _seed_from(args.seed)
    space_spec = args.space + ("@random" if args.mode == "random" else "")
    config = ExperimentConfig(command="space gen", space=space_spec,
                              sizes=(args.n,), seed=seed, out=args.out)
    space, mode = parse_space(space_spec)
    fs = sample(space, SampleSpec(mode=mode, n=args.n, seed=seed))
    write_space_csv(fs, args.out)
    print(f"wrote {fs.n}-point space to {args.out}")
    return config


def _cmd_mds_embed(args) -> ExperimentConfig:
    config = ExperimentConfig(command="mds embed", space=args.input, m=args.m, out=args.out)
    fs = read_space_csv(args.input)
    result = eigendecompose(double_center(fs))
    E = embed(result, args.m)
    emit_table([f"coord_{j + 1}" for j in range(args.m)], E.tolist(), args.out)
    print(f"embedded {fs.n} points into R^{args.m}; positive rank {result.positive_count}")
    return config


def _cmd_mds_krein(args) -> ExperimentConfig:
    config = ExperimentConfig(command="mds krein", space=args.input, out=args.out)
    fs = read_space_csv(args.input)
    result = eigendecompose(double_center(fs))
    write_embedding_csv(result, args.out)
    recon = reconstruction_matrix(result)
    err = float(np.max(np.abs(recon - fs.D**2)))
    neg = embed_negative(result)
    print(
        f"signed spectrum: {result.positive_count} positive, {result.negative_count} negative; "
        f"max |reconstructed - d^2| = {_fmt(err)}; negative part dimension {neg.shape[1]}"
    )
    return config


def _cmd_sphere_eigen(args) -> ExperimentConfig:
    command = f"sphere eigen:{args.method}:{args.kind}"
    config = ExperimentConfig(command=command, space=f"sphere:{args.dim}",
                              m=args.degree, tol=args.tol, out=args.out)
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
    return config


def _cmd_sphere_asymptotics(args) -> ExperimentConfig:
    config = ExperimentConfig(command="sphere asymptotics", space=f"sphere:{args.dim}",
                              sizes=(args.nmin, args.nmax), out=args.out)
    scan = asymptotic_scan(args.dim, range(args.nmin, args.nmax + 1))
    rows = [[int(n), lam, norm] for n, lam, norm in
            zip(scan.n_values, scan.lam, scan.normalized)]
    emit_table(["n", "lambda", "normalized"], rows, args.out)
    print(
        f"scanned n in [{args.nmin}, {args.nmax}] for d={args.dim}; "
        f"normalized max/min ratio {_fmt(scan.ratio_bound)}"
    )
    return config


def _cmd_stability_converge(args) -> ExperimentConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = ExperimentConfig.from_json(fh.read())
        if config.command != "stability converge":
            raise ConfigError(f"config is for {config.command!r}")
        if config.refine is None:
            config = replace(config, refine=args.refine)
    else:
        config = ExperimentConfig(command="stability converge", space=args.space,
                                  sizes=tuple(int(tok) for tok in args.sizes.split(",")),
                                  m=args.m, refine=args.refine, out=args.out)
    space, _ = parse_space(config.space)
    rows = convergence_experiment(space, config.sizes, config.m, refine=config.refine)
    emit_table(
        ["n", "aligned_L2", "gw2_images", "w4", "hs_gap_bound_lhs", "hs_gap_bound_rhs"],
        [[r.n, r.aligned_l2, r.gw2_images, r.w4, r.hs_lhs, r.hs_rhs] for r in rows],
        config.out,
    )
    print(f"convergence table for {config.space} written to {config.out}")
    return config


def _cmd_product_check(args) -> ExperimentConfig:
    config = ExperimentConfig(command="product check", space=args.factors, out=args.out)
    paths = args.factors.split(",")
    if len(paths) != 2:
        raise ConfigError("product check needs exactly two factor files")
    A = read_space_csv(paths[0])
    B = read_space_csv(paths[1])
    res_a = eigendecompose(double_center(A))
    res_b = eigendecompose(double_center(B))
    pred = predict_product_spectrum(res_a, res_b)
    direct = eigendecompose(double_center(product_space(A, B)))
    direct_nz = np.array([v for v in direct.eigenvalues if v != 0.0])
    k = min(pred.eigenvalues.size, direct_nz.size)
    spectrum_err = float(np.max(np.abs(np.sort(pred.eigenvalues)[::-1][:k] - direct_nz[:k]))) if k else 0.0
    additivity_err = verify_product_embedding(A, B)
    rows = [[int(i + 1), pred.eigenvalues[i],
             direct_nz[i] if i < direct_nz.size else 0.0] for i in range(pred.eigenvalues.size)]
    emit_table(["rank", "merged_lambda", "direct_lambda"], rows, args.out)
    print(
        f"spectrum merge max error {_fmt(spectrum_err)}; "
        f"additivity max error {_fmt(additivity_err)}"
    )
    return config


def _cmd_torus_check(args) -> ExperimentConfig:
    seed = _seed_from(args.seed)
    config = ExperimentConfig(command="torus check", space=f"torus:{args.k}",
                              sizes=(args.n, args.pairs), m=args.trunc, seed=seed,
                              out=args.out)
    check = torus_check(args.n, args.k, args.trunc, n_pairs=args.pairs, seed=seed)
    if args.out:
        emit_table(
            ["n_per_factor", "k_factors", "trunc", "pairs", "max_error"],
            [[args.n, args.k, args.trunc, args.pairs, check.max_error]],
            args.out,
        )
    print(f"torus identity max error {_fmt(check.max_error)} over {args.pairs} pairs")
    return config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    eig.add_argument("--method", choices=["series", "quadrature"], required=True)
    eig.add_argument("--kind", choices=["full", "snowflake"], default="full")
    eig.add_argument("--tol", type=float, default=1e-9)
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
    conv.add_argument("--sizes", default="16,32,64,128,256,512")
    conv.add_argument("--m", type=int, default=2)
    conv.add_argument("--refine", type=int, default=4)
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
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 2 if code else 0
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        print("error: unknown or incomplete command", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        config = args.func(args)
    except (SpaceValidationError, MarginalMismatch, UnsupportedSpace, ConfigError,
            UnknownCommand, ValueError, FileNotFoundError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ToleranceNotReached, QuadratureNotConverged, NoConvergence) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _write_run_record(config, time.perf_counter() - start)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
