"""Command-line scenario runner.

Subcommands: prep-cat, floquet-calib, decohere, wigner, fit-rabi,
disting, crosstalk-solve.  File interfaces use linear MHz and ns;
everything is converted to angular rad/s internally.  Exit codes:
0 success, 1 invalid input or configuration (a bad command line
included), 2 numerical failure.  Float flags must be finite.  CSVs are
written to a temporary file and renamed into place, so a failed run
leaves no half-written output.
Numerical warnings do not fail a run; they are collected into a
sidecar log next to the main output (``<out>.warnings.log``), one line
per kind of warning, that is per category and source line that issued
it, with its count and its first and last message.  The "strained"
warning of ``decohere`` is one warning for the whole grid, with the
count of strained times and the first, last and largest leak.

The parser is built from one table of commands, ``_COMMANDS``.  A
command line whose first word names a command is parsed by that
command's parser alone, so a run pays for one command's flags; any
other command line (``-h``, no command, an unknown one, a flag before
the command) goes to the full parser, whose subparsers are the same
commands, and so do unrecognized arguments, which it reports under its
own usage line.  The help texts and error messages do not depend on
which parser ran.

The ``decohere`` columns come from one model, the photon-resolved
branch model, in one call over the whole time grid,
``dynamics.analytic_qubit_states``: ``entropy_bits`` from qubit 0's
state and ``coh_factor_abs`` from the cross-branch coherence |coh|.
``distinguishability`` = sqrt(1 - |coh|^2) is the upper edge of the
bracket 1 - |coh|^2 <= D <= sqrt(1 - |coh|^2) on the trace distance D
of the reservoir records; it equals D only for a pure record.  The
grid t_j = j dt reaches t_max; one of more than MAX_TIME_POINTS times
is refused with exit code 1 before any array over it is built.
``wigner`` maps the synthesized cat; ``prep-cat`` and ``wigner``
without ``--time`` refuse, with exit code 1, a cutoff too small for
the synthesis or not above the mean photon number |alpha|^2 of the
|alpha> branch, and warn (TruncationWarning) when the synthesis
target, cut at N* photons, keeps less than 0.95 of the cat.
``wigner --time`` and the ``decohere --wigner-times`` snapshots map
the field of the branch model.  Both photon-resolved
kernels evolve the Fock amplitudes of the ideal cat N+(|0> + |alpha>),
and |0, G> is their level 0.  ``decohere`` and ``wigner --time`` build
the reservoir in _reservoir_from_config, which turns an alpha whose
Rabi rate overflows (dynamics.ReservoirSpec), or a qubit whose
modulation index |eps/nu| is past the Bessel sweep
(floquet.FloquetParams), into exit code 1.
``scripts/cat_synthesis_demo.py`` writes its map by calling main with
``wigner``, so the demo's CSV, warnings log and checks are that
command's.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import os
import sys
import warnings

import numpy as np

from . import analysis, calib, catprep, dynamics, floquet, tomography
from .config import MHZ, NS, ConfigError, load_config
from .hilbert import DensityMatrix, SpaceLayout, TruncationWarning, density_from_state

__all__ = ["main"]

# the most decohere time points: the arrays over the grid take about
# 130 B per point at any N (tracemalloc peak of a 200001-point run),
# so the cap bounds them near 130 MB
MAX_TIME_POINTS = 10**6


class CliError(ValueError):
    """Invalid command input (exit code 1)."""


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@contextlib.contextmanager
def _atomic_open(path: str):
    """Write to a temporary file beside `path`, then rename it into place.

    A run that fails part-way leaves either the whole file or none.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _csv_cell(text: str) -> str:
    """`text` as csv.writer writes it in a row of more than one cell."""
    buf = io.StringIO()
    # the quoting depends on the line terminator: keep _write_csv's
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _write_csv(path: str, header: list[str], rows) -> None:
    """The header, then each row formatted by one "%" on a row template.

    The first row fixes the template: "%s" where it holds a str, which
    is quoted as csv.writer quotes it, and "%.12g", formatting as _fmt
    does, everywhere else.  Every row holds its str cells where the
    first row does; a str in a number's place raises TypeError.
    """
    with _atomic_open(path) as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        template, text_cols = None, []
        for row in rows:
            if template is None:
                text_cols = [i for i, c in enumerate(row) if isinstance(c, str)]
                template = ",".join(
                    "%s" if isinstance(c, str) else "%.12g" for c in row
                ) + "\n"
            if text_cols:
                row = list(row)
                for i in text_cols:
                    row[i] = _csv_cell(row[i])
            fh.write(template % tuple(row))


def _read_csv(path: str, required: list[str]) -> tuple[list[str], list[list[str]]]:
    """The header and the rows of a CSV file; blank lines are skipped.

    _columns reads the rows by column name, and _row_dict shows a row
    as csv.DictReader would give it.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise CliError(f"{path}: empty file, expected header {required}")
            missing = [c for c in required if c not in header]
            if missing:
                raise CliError(f"{path}: missing columns {missing}")
            return header, list(filter(None, reader))
    except OSError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _columns(header: list[str], rows: list[list[str]], keys: list[str]) -> list[list]:
    """The cells of each column named in `keys`, in row order.

    As with csv.DictReader, a row shorter than the header reads None
    past its end, cells past the header's end are not read, and a name
    that repeats reads its last column.
    """
    at = {name: i for i, name in enumerate(header)}
    columns = []
    for key in keys:
        i = at[key]
        columns.append([row[i] if i < len(row) else None for row in rows])
    return columns


def _row_dict(header: list[str], row: list[str]) -> dict:
    """The row as csv.DictReader gives it, for messages: the cells past
    the header's end under None, and None past the end of a short row."""
    fields = dict(zip(header, row))
    fields.update(dict.fromkeys(header[len(row) :]))
    if len(row) > len(header):
        fields[None] = row[len(header) :]
    return fields


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value: {text!r}")
    return value


def _float_field(text, key: str, path: str) -> float:
    """The cell `text` of column `key` as a finite float."""
    try:
        value = float(text)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: bad value for {key}: {text!r}") from exc
    if not math.isfinite(value):
        raise CliError(f"{path}: non-finite value for {key}: {text!r}")
    return value


def _float_column(texts: list, key: str, path: str) -> np.ndarray:
    """The cells `texts` of column `key` as an array of finite floats.

    One float pass over the column and one finiteness check; on a bad
    cell, the cell-by-cell _float_field raises for the first one.
    """
    try:
        values = np.fromiter(map(float, texts), float, len(texts))
        if np.isfinite(values).all():
            return values
    except (TypeError, ValueError):
        pass
    return np.array([_float_field(text, key, path) for text in texts])


def _reservoir_from_config(cfg, n_qubits: int) -> dynamics.ReservoirSpec:
    couplings, detunings = [], []
    for i, q in enumerate(cfg.qubits[:n_qubits]):
        try:
            p = q.floquet_params()
        except ValueError as exc:  # a modulation index past the Bessel sweep
            raise CliError(f"qubits[{i}]: {exc}") from exc
        couplings.append(2.0 * abs(floquet.effective_coupling(p)))
        detunings.append(p.delta)
    try:
        return dynamics.ReservoirSpec(tuple(couplings), tuple(detunings), cfg.scenario.alpha**2)
    except OverflowError as exc:  # <n> = alpha^2 makes a Rabi rate overflow
        raise CliError(f"scenario.alpha: {cfg.scenario.alpha!r} is too large: {exc}") from exc


def _require_synthesis_cutoff(cfg) -> None:
    """The cat synthesis runs on N* + 1 Fock levels and its cat on `cutoff`.

    A smaller cutoff cannot hold the synthesis, and one at or below the
    mean photon number |alpha|^2 cannot hold the |alpha> branch: at
    cutoff 40 and alpha = 6.3, half the Poisson weight of |alpha> lies
    past the cutoff, and the synthesized cat's fidelity with the ideal
    one is about 0.2.  Both exit 1.  A cat that holds more than 5% of
    its weight past the N* photons of the synthesis target (truncation
    fidelity below 0.95, from alpha of about 3.85) runs with a
    TruncationWarning: the synthesized cat is then about as far from
    the ideal one (fidelity 0.64 at alpha = 5).
    """
    levels = catprep.N_STAR + 1
    if cfg.cutoff < levels:
        raise CliError(
            f"resonator.cutoff: {cfg.cutoff} is below the {levels} Fock levels "
            "the cat synthesis needs"
        )
    n_mean = cfg.scenario.alpha * cfg.scenario.alpha
    if n_mean >= cfg.cutoff:
        raise CliError(
            f"scenario.alpha: {cfg.scenario.alpha!r} has a mean photon number "
            f"{_fmt(n_mean)} not below resonator.cutoff {cfg.cutoff}"
        )
    fidelity = catprep.truncation_fidelity(catprep.CatSpec(alpha=cfg.scenario.alpha))
    if fidelity < 0.95:
        warnings.warn(
            f"scenario.alpha: {cfg.scenario.alpha!r}: the cat synthesis targets "
            f"{catprep.N_STAR} photons, and its truncated cat has fidelity "
            f"{fidelity:.3f} with the ideal one (below 0.95)",
            TruncationWarning,
        )


# ---------------------------------------------------------------- commands


def _cmd_prep_cat(args) -> list[str]:
    cfg = load_config(args.config)
    _require_synthesis_cutoff(cfg)
    spec = catprep.CatSpec(alpha=cfg.scenario.alpha)
    # the steps and the cat from one backward sweep, as make_amplitude_cat runs it
    steps, cat = catprep._synthesize(spec, cfg.cutoff, cfg.ancilla_xi_MHz * MHZ)
    _write_csv(
        args.steps_out,
        ["n", "theta_rad", "t_ns"],
        [(s.n, s.theta, s.t / NS) for s in steps],
    )
    _write_csv(
        args.fock_out,
        ["fock_n", "re", "im"],
        [(n, a.real, a.imag) for n, a in enumerate(cat.amps)],
    )
    return [args.steps_out, args.fock_out]


def _cmd_floquet_calib(args) -> list[str]:
    required = ["name", "xi_MHz", "eps_MHz", "nu_MHz", "delta_MHz", "K_MHz"]
    header, rows = _read_csv(args.params, required)
    out_rows = []
    for name, *texts in zip(*_columns(header, rows, required)):
        fields = {
            key: _float_field(text, f"{key}_MHz", args.params) * MHZ
            for key, text in zip(("xi", "eps", "nu", "delta", "K"), texts)
        }
        try:
            p = floquet.FloquetParams(**fields, name=name)
            s1, s2 = floquet.stark_shifts(p)
        except ValueError as exc:  # a property of the row: nu <= 0, a value past
            # the float range in rad/s, or a resonant Stark denominator
            raise CliError(f"{args.params}: row {name}: {exc}") from exc
        out_rows.append((name, floquet.effective_coupling(p) / MHZ, s1 / MHZ, s2 / MHZ))
    _write_csv(args.out, ["name", "lambda_half_MHz", "S1_MHz", "S2_MHz"], out_rows)
    return [args.out]


def _cmd_decohere(args) -> list[str]:
    cfg = load_config(args.config)
    n = args.n_qubits if args.n_qubits is not None else cfg.scenario.n_qubits
    if not 1 <= n <= len(cfg.qubits):
        raise CliError(f"--n-qubits: must be between 1 and {len(cfg.qubits)}")
    t_max = (args.t_max if args.t_max is not None else cfg.scenario.t_max_ns) * NS
    dt = (args.dt if args.dt is not None else cfg.scenario.dt_ns) * NS
    if dt <= 0 or t_max <= 0:
        raise CliError("--t-max and --dt must be positive")
    if any(t < 0 for t in args.wigner_times or []):
        raise CliError("--wigner-times must be nonnegative")
    # the grid's length before any array is built: t_j = j dt up to t_max
    points = (t_max + dt / 2.0) / dt
    if points > MAX_TIME_POINTS:
        raise CliError(
            f"--t-max / --dt: {_fmt(t_max / NS)} ns in steps of {_fmt(dt / NS)} ns "
            f"is more than {MAX_TIME_POINTS} time points"
        )
    n_times = math.ceil(points)
    spec = _reservoir_from_config(cfg, n)
    times = np.arange(n_times) * dt
    states, coh = dynamics.analytic_qubit_states(
        dt, n_times, cfg.scenario.alpha, spec, cfg.cutoff
    )
    # the upper edge of 1 - |coh|^2 <= D <= sqrt(1 - |coh|^2); the kernel
    # keeps |coh| <= 1, and the clip guards the square root all the same
    disting = np.sqrt(np.maximum(0.0, 1.0 - coh**2))
    entropy = analysis._entropy_bits(states)
    header = ["t_ns", "coh_factor_abs", "entropy_bits", "distinguishability"]
    _write_csv(args.out, header, zip(times / NS, coh, entropy, disting))
    outputs = [args.out]
    for t_ns in args.wigner_times or []:
        rho_f = _field_state(cfg, spec, t_ns)
        wmap = tomography.wigner_map(rho_f, *cfg.scenario.wigner_grid.grids())
        path = f"{args.out}.wigner_t{_fmt(t_ns)}ns.csv"
        _write_wigner(path, wmap)
        outputs.append(path)
    return outputs


def _field_state(cfg, spec: dynamics.ReservoirSpec, t_ns: float) -> DensityMatrix:
    """rho_f(t) of the branch model, from the ideal cat N+(|0> + |alpha>)."""
    psi = dynamics.analytic_joint_state(t_ns * NS, cfg.scenario.alpha, spec, cfg.cutoff)
    return dynamics.reduced_field_state(psi)


def _write_wigner(path: str, wmap: tomography.WignerMap) -> None:
    """One row per grid point, im fastest; "%.12g" formats as _fmt does.

    Each grid value is formatted once.  A re-row's template is one join
    of the "im,%.12g" parts on "\n" plus its "re," head, and one "%"
    fills in its W values, so the whole body is never held in memory.
    """
    im_parts = [f"{im:.12g},%.12g" for im in wmap.im_grid.tolist()]
    with _atomic_open(path) as fh:
        fh.write("re,im,w\n")
        for re_val, row in zip(wmap.re_grid.tolist(), wmap.values.tolist()):
            head = f"{re_val:.12g},"
            fh.write((head + ("\n" + head).join(im_parts) + "\n") % tuple(row))


def _cmd_wigner(args) -> list[str]:
    cfg = load_config(args.config)
    if args.time is None:
        _require_synthesis_cutoff(cfg)
        spec = catprep.CatSpec(alpha=cfg.scenario.alpha)
        cat = catprep.make_amplitude_cat(spec, cfg.cutoff, cfg.ancilla_xi_MHz * MHZ)
        rho = density_from_state(cat)
    elif args.time < 0:
        raise CliError("--time must be nonnegative")
    else:
        rho = _field_state(cfg, _reservoir_from_config(cfg, cfg.scenario.n_qubits), args.time)
    if args.theta:
        rho = tomography.derotate(rho, args.theta)
    re_grid, im_grid = cfg.scenario.wigner_grid.grids()
    wmap = tomography.wigner_map(rho, re_grid, im_grid)
    _write_wigner(args.out, wmap)
    return [args.out]


def _cmd_fit_rabi(args) -> list[str]:
    header, rows = _read_csv(args.data, ["tau_ns", "pe"])
    tau_texts, pe_texts = _columns(header, rows, ["tau_ns", "pe"])
    taus = _float_column(tau_texts, "tau_ns", args.data) * NS
    pe = _float_column(pe_texts, "pe", args.data)
    if args.noise < 0:
        raise CliError("--noise must be nonnegative")
    if args.seed < 0:
        raise CliError("--seed must be nonnegative")
    if args.xi_mhz <= 0:
        raise CliError("--xi-mhz must be positive")
    if not 0 <= args.n_max <= tomography.N_MAX_LIMIT:
        raise CliError(f"--n-max must be between 0 and {tomography.N_MAX_LIMIT}")
    if len(rows) < args.n_max + 2:
        raise CliError(
            f"--n-max {args.n_max} needs at least {args.n_max + 2} samples, "
            f"{args.data} has {len(rows)}"
        )
    if args.noise > 0:
        rng = np.random.default_rng(args.seed)
        pe = pe + rng.normal(0.0, args.noise, pe.shape)
    trace = tomography.RabiTrace(taus, pe, args.xi_mhz * MHZ)
    pn = tomography.fit_photon_numbers(trace, args.n_max)
    _write_csv(args.out, ["n", "p"], list(enumerate(pn)))
    return [args.out]


def _cmd_disting(args) -> list[str]:
    cols = ["qubit", "re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11"]
    header, rows = _read_csv(args.branches, cols)
    branches = []
    for texts in zip(*_columns(header, rows, cols[1:])):
        vals = [_float_field(text, c, args.branches) for c, text in zip(cols[1:], texts)]
        mat = np.array(
            [
                [vals[0] + 1j * vals[1], vals[2] + 1j * vals[3]],
                [vals[4] + 1j * vals[5], vals[6] + 1j * vals[7]],
            ]
        )
        branches.append(DensityMatrix(SpaceLayout((2,)), mat))
    try:
        d = analysis.reservoir_distinguishability(branches)
    except ValueError as exc:  # every branch comes from the file
        raise CliError(f"{args.branches}: {exc}") from exc
    print(_fmt(d))
    return []


def _cmd_crosstalk_solve(args) -> list[str]:
    coeff_header, coeff_rows = _read_csv(args.coeffs, ["i", "j", "alpha"])
    target_header, target_rows = _read_csv(args.targets, ["i", "z_eff"])
    n = len(target_rows)
    order = []
    z_eff = np.zeros(n)
    index = {}
    for i, text in zip(*_columns(target_header, target_rows, ["i", "z_eff"])):
        if i in index:
            raise CliError(f"{args.targets}: duplicate qubit index {i}")
        index[i] = len(order)
        order.append(i)
        z_eff[index[i]] = _float_field(text, "z_eff", args.targets)
    coeffs = np.zeros((n, n))
    cells = zip(*_columns(coeff_header, coeff_rows, ["i", "j", "alpha"]))
    for row, (i, j, text) in zip(coeff_rows, cells):
        if i not in index or j not in index:
            shown = _row_dict(coeff_header, row)
            raise CliError(f"{args.coeffs}: unknown qubit index in row {shown}")
        if i == j:
            raise CliError(f"{args.coeffs}: diagonal coefficient for qubit {i}")
        coeffs[index[i], index[j]] = _float_field(text, "alpha", args.coeffs)
    m = calib.assemble_mcor(coeffs)
    z_cmd = calib.commanded_amplitudes(m, z_eff)
    _write_csv(args.out, ["i", "z_cmd"], list(zip(order, z_cmd)))
    return [args.out]


# ---------------------------------------------------------------- plumbing


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line with exit code 1 (invalid input)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _arg(*flags, **kwargs):
    """One add_argument call of a command: (flags, keyword arguments)."""
    return flags, kwargs


# name: (handler, help, arguments), in the order `catbath -h` lists them
_COMMANDS = {
    "prep-cat": (_cmd_prep_cat, "emit the swap sequence and cat amplitudes", (
        _arg("--config", required=True),
        _arg("--steps-out", required=True),
        _arg("--fock-out", required=True),
    )),
    "floquet-calib": (_cmd_floquet_calib, "sideband couplings and Stark shifts", (
        _arg("--params", required=True, help="CSV: name,xi_MHz,eps_MHz,nu_MHz,delta_MHz,K_MHz"),
        _arg("--out", required=True),
    )),
    "decohere": (
        _cmd_decohere,
        "reservoir decoherence over the time grid from one model, the photon-resolved "
        "branch model: entropy_bits of qubit 0, the cross-branch coh_factor_abs, and "
        "distinguishability = sqrt(1 - coh_factor_abs^2), the upper edge of "
        "1 - |coh|^2 <= D <= sqrt(1 - |coh|^2), equal to D only for a pure record. It is exact "
        "at N = 1 and approximate for N >= 2: against exact evolution of the qubits of "
        "configs/device.yaml, the largest |coh| error is 0.176 at N = 8",
        (
            _arg("--config", required=True),
            _arg("--n-qubits", type=int, default=None),
            _arg("--t-max", type=_finite_float, default=None, help="ns"),
            _arg("--dt", type=_finite_float, default=None, help="ns"),
            _arg("--out", required=True),
            _arg(
                "--wigner-times",
                type=_finite_float,
                nargs="*",
                default=None,
                metavar="T_NS",
                help="emit field Wigner snapshots at these times",
            ),
        ),
    ),
    "wigner": (_cmd_wigner, "Wigner map of the synthesized cat", (
        _arg("--config", required=True),
        _arg("--time", type=_finite_float, default=None, help="ns of reservoir "
             "evolution, starting from the ideal cat N+(|0> + |alpha>), not the synthesized one"),
        _arg("--theta", type=_finite_float, default=0.0, help="derotation angle, rad"),
        _arg("--out", required=True),
    )),
    "fit-rabi": (_cmd_fit_rabi, "invert a Rabi trace into photon numbers", (
        _arg("--data", required=True, help="CSV: tau_ns,pe"),
        _arg("--xi-mhz", type=_finite_float, required=True),
        _arg("--n-max", type=int, required=True),
        _arg("--noise", type=_finite_float, default=0.0, help="add Gaussian noise of this sigma"),
        _arg("--seed", type=int, default=0),
        _arg("--out", required=True),
    )),
    "disting": (_cmd_disting, "distinguishability from per-qubit branches", (
        _arg("--branches", required=True, help="CSV: qubit,re00,im00,...,im11"),
    )),
    "crosstalk-solve": (_cmd_crosstalk_solve, "commanded Z amplitudes from targets", (
        _arg("--coeffs", required=True, help="CSV: i,j,alpha"),
        _arg("--targets", required=True, help="CSV: i,z_eff"),
        _arg("--out", required=True),
    )),
}


def _command_parser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """`parser` with the help text, the arguments and the handler of command `name`."""
    func, parser.description, arguments = _COMMANDS[name]
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full catbath parser: every command of _COMMANDS is a subparser.

    `catbath -h` lists them all, and a command line that names no
    command is reported under its usage line.
    """
    parser = _Parser(
        prog="catbath",
        description="Cat-state decoherence simulator: preparation, Floquet "
        "calibration, reservoir dynamics, tomography, and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_text), name)
    return parser


def _group_warnings(caught) -> list[str]:
    """One line per kind of warning, in order of first appearance.

    A kind is the category plus the source line that issued it (the
    file and line number of its warnings.warn call), so a warning
    repeated at every time step with a new value is one line: its
    count, its first message and its last.
    """
    kinds: dict[tuple[str, str, int], tuple[int, str, str]] = {}
    for w in caught:
        text = str(w.message)
        key = (w.category.__name__, w.filename, w.lineno)
        count, first, _ = kinds.get(key, (0, text, text))
        kinds[key] = (count + 1, first, text)
    return [
        f"{category} x{count}: {first}" + (f" | last: {last}" if count > 1 else "")
        for (category, _, _), (count, first, last) in kinds.items()
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        # the subparser the full parser would run, on its own
        name = argv[0]
        parser = _command_parser(_Parser(prog=f"catbath {name}"), name)
        args, extra = parser.parse_known_args(argv[1:])
        if extra:
            build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outputs = args.func(args)
        except (ConfigError, CliError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
    if caught:
        lines = _group_warnings(caught)
        if outputs:
            with open(f"{outputs[0]}.warnings.log", "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        else:
            for line in lines:
                print(f"warning: {line}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
