"""Plain-text configuration files.

Grammar: one `key = value` pair per line, dotted keys, `#` starts a
comment (full-line or trailing), blank lines ignored.  Lists are
whitespace- or comma-separated numbers.  Keys:

    schema            -- required, must be 1
    model.E           -- washout fraction in (0, 1), above 2**-54
    model.r           -- delay in steps, nonnegative integer
    uptake.kind       -- monod | linear | tabulated
    uptake.p_max, uptake.k_s       (monod)
    uptake.slope                   (linear)
    uptake.s, uptake.values        (tabulated; matching lists)
    input.kind        -- constant | sinusoid | piecewise | sequence | dyadic
    input.value                    (constant)
    input.amplitude, input.period, input.offset   (sinusoid)
    input.t, input.values          (piecewise; matching lists)
    input.values, input.periodic   (sequence; periodic true/false, default false)
    (dyadic reads no input key: it is built from model.E and model.r)
    init.s, init.x    -- optional initial history, r+1 values each
    run.horizon, run.tol, run.T    -- optional run options

The uptake and input sections are read through one table, _KINDS, which
maps each kind to its constructor and each constructor argument to its
key and parser.  The known keys and the keys each kind reads both come
from that table: unknown keys are rejected so typos surface instead of
being ignored, and so is an uptake.* or input.* key that the chosen kind
does not read.
"""

from __future__ import annotations

from pathlib import Path

from ._records import frozen
from .core import (
    ChemostatParams,
    Constant,
    DyadicBlocks,
    ExplicitSequence,
    InitialHistory,
    LinearUptake,
    Monod,
    PiecewiseLinear,
    Sinusoid,
    TabulatedUptake,
)
from .errors import ParameterError, UsageError

@frozen
class RunConfig:
    """Parsed configuration: the problem plus run options."""

    params: ChemostatParams
    init: InitialHistory | None
    horizon: int | None = None
    tol: float | None = None
    window_min: int | None = None


def _parse_pairs(text: str, source: str) -> dict:
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise UsageError(f"{source}:{lineno}: unknown key {key!r}")
        if key in pairs:
            raise UsageError(f"{source}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _require(pairs, key):
    if key not in pairs:
        raise UsageError(f"missing required key {key!r}")
    return pairs[key]


def _as_float(key, value):
    try:
        return float(value)
    except ValueError:
        raise ParameterError(f"{key}: expected a number, got {value!r}") from None


def _as_int(key, value):
    try:
        f = float(value)
        if f != int(f):
            raise ValueError
        return int(f)
    except (ValueError, OverflowError):  # int() of nan, and of inf or 1e400
        raise ParameterError(f"{key}: expected an integer, got {value!r}") from None


def _as_floats(key, value):
    parts = value.replace(",", " ").split()
    if not parts:
        raise ParameterError(f"{key}: expected a list of numbers")
    try:
        return list(map(float, parts))
    except ValueError:
        # rescan to name the first bad token
        return [_as_float(key, p) for p in parts]


def _as_bool(key, value):
    v = value.strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ParameterError(f"{key}: expected true/false, got {value!r}")


def _piecewise(times, values):
    if len(times) != len(values):
        raise ParameterError("input.t and input.values must have matching lengths")
    return PiecewiseLinear(breakpoints=tuple(zip(times, values)))


# section -> kind -> (constructor, {argument: (key, parser[, default text])});
# a key without a default is required, and a kind reads exactly its keys
_KINDS = {
    "uptake": {
        "monod": (Monod, {"p_max": ("uptake.p_max", _as_float), "k_s": ("uptake.k_s", _as_float)}),
        "linear": (LinearUptake, {"slope": ("uptake.slope", _as_float)}),
        "tabulated": (TabulatedUptake, {
            "grid": ("uptake.s", _as_floats), "values": ("uptake.values", _as_floats),
        }),
    },
    "input": {
        "constant": (Constant, {"value": ("input.value", _as_float)}),
        "sinusoid": (Sinusoid, {
            "amplitude": ("input.amplitude", _as_float),
            "period_steps": ("input.period", _as_int),
            "offset": ("input.offset", _as_float),
        }),
        "piecewise": (_piecewise, {
            "times": ("input.t", _as_floats), "values": ("input.values", _as_floats),
        }),
        "sequence": (ExplicitSequence, {
            "values": ("input.values", _as_floats), "periodic": ("input.periodic", _as_bool, "false"),
        }),
        # built from the model keys, which parse_config has already checked
        "dyadic": (DyadicBlocks, {"E": ("model.E", _as_float), "r": ("model.r", _as_int)}),
    },
}

_KNOWN_KEYS = {
    "schema",
    "model.E",
    "model.r",
    "init.s",
    "init.x",
    "run.horizon",
    "run.tol",
    "run.T",
    *(f"{section}.kind" for section in _KINDS),
    *(key for kinds in _KINDS.values() for _, args in kinds.values() for key, *_ in args.values()),
}


def _build(pairs, section):
    """The section's object, built by its kind from the keys that kind
    reads; any other section.* key given is an error."""
    kind = _require(pairs, f"{section}.kind").lower()
    if kind not in _KINDS[section]:
        raise ParameterError(f"{section}.kind: unknown kind {kind!r}")
    make, args = _KINDS[section][kind]
    reads = {key for key, *_ in args.values()}
    for key in pairs:
        if key.startswith(f"{section}.") and key != f"{section}.kind" and key not in reads:
            raise UsageError(f"{key} is not read by {section}.kind = {kind}")
    return make(**{
        name: parse(key, pairs.get(key, *default) if default else _require(pairs, key))
        for name, (key, parse, *default) in args.items()
    })


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    pairs = _parse_pairs(text, source)
    schema = _as_int("schema", _require(pairs, "schema"))
    if schema != 1:
        raise UsageError(f"unsupported schema version {schema}; this build reads schema = 1")

    E = _as_float("model.E", _require(pairs, "model.E"))
    if not (0.0 < E < 1.0 and 1.0 - E < 1.0):  # 1 - E rounds to 1 for E <= 2**-54
        raise ParameterError(f"model.E: must lie in (2**-54, 1), so that 0 < 1 - E < 1, got {E}")
    r = _as_int("model.r", _require(pairs, "model.r"))
    if r < 0:
        raise ParameterError(f"model.r: must be >= 0, got {r}")

    params = ChemostatParams(E=E, r=r, uptake=_build(pairs, "uptake"), input=_build(pairs, "input"))

    init = None
    if "init.s" in pairs or "init.x" in pairs:
        s = _as_floats("init.s", _require(pairs, "init.s"))
        x = _as_floats("init.x", _require(pairs, "init.x"))
        if len(s) != r + 1 or len(x) != r + 1:
            raise ParameterError(
                f"init.s and init.x must each hold r+1 = {r + 1} values, "
                f"got {len(s)} and {len(x)}"
            )
        init = InitialHistory(s=tuple(s), x=tuple(x))

    horizon = _as_int("run.horizon", pairs["run.horizon"]) if "run.horizon" in pairs else None
    if horizon is not None and horizon < 0:
        raise ParameterError(f"run.horizon: must be >= 0, got {horizon}")
    tol = _as_float("run.tol", pairs["run.tol"]) if "run.tol" in pairs else None
    window_min = _as_int("run.T", pairs["run.T"]) if "run.T" in pairs else None

    return RunConfig(params=params, init=init, horizon=horizon, tol=tol, window_min=window_min)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file {path} does not exist")
    try:
        # drop a byte-order mark as utf-8-sig would; the offsets below stay the file's
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise UsageError(f"config file {path} is not UTF-8: byte {e.start} is 0x{e.object[e.start]:02x}") from None
    return parse_config(text, source=str(path))
