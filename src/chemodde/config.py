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
    input.values, input.periodic   (sequence; periodic true/false)
    init.s, init.x    -- optional initial history, r+1 values each
    run.horizon, run.tol, run.T    -- optional run options

Unknown keys are rejected so typos surface instead of being ignored, and
so is an uptake.* or input.* key that the chosen kind does not read.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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

# the section.* keys each kind reads, besides section.kind itself
_KIND_KEYS = {
    "uptake": {
        "monod": {"uptake.p_max", "uptake.k_s"},
        "linear": {"uptake.slope"},
        "tabulated": {"uptake.s", "uptake.values"},
    },
    "input": {
        "constant": {"input.value"},
        "sinusoid": {"input.amplitude", "input.period", "input.offset"},
        "piecewise": {"input.t", "input.values"},
        "sequence": {"input.values", "input.periodic"},
        "dyadic": set(),
    },
}

_KNOWN_KEYS = {
    "schema",
    "model.E",
    "model.r",
    "uptake.kind",
    "input.kind",
    "init.s",
    "init.x",
    "run.horizon",
    "run.tol",
    "run.T",
    *(key for kinds in _KIND_KEYS.values() for keys in kinds.values() for key in keys),
}


@dataclass(frozen=True)
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


def _kind(pairs, section):
    """section.kind, lowercased, once every other section.* key given is
    one that kind reads."""
    kind = _require(pairs, f"{section}.kind").lower()
    reads = _KIND_KEYS[section].get(kind)
    if reads is None:
        raise ParameterError(f"{section}.kind: unknown kind {kind!r}")
    for key in pairs:
        if key.startswith(f"{section}.") and key != f"{section}.kind" and key not in reads:
            raise UsageError(f"{key} is not read by {section}.kind = {kind}")
    return kind


def _build_uptake(pairs):
    kind = _kind(pairs, "uptake")
    if kind == "monod":
        return Monod(
            p_max=_as_float("uptake.p_max", _require(pairs, "uptake.p_max")),
            k_s=_as_float("uptake.k_s", _require(pairs, "uptake.k_s")),
        )
    if kind == "linear":
        return LinearUptake(slope=_as_float("uptake.slope", _require(pairs, "uptake.slope")))
    return TabulatedUptake(
        grid=tuple(_as_floats("uptake.s", _require(pairs, "uptake.s"))),
        values=tuple(_as_floats("uptake.values", _require(pairs, "uptake.values"))),
    )


def _build_input(pairs, E, r):
    kind = _kind(pairs, "input")
    if kind == "constant":
        return Constant(value=_as_float("input.value", _require(pairs, "input.value")))
    if kind == "sinusoid":
        return Sinusoid(
            amplitude=_as_float("input.amplitude", _require(pairs, "input.amplitude")),
            period_steps=_as_int("input.period", _require(pairs, "input.period")),
            offset=_as_float("input.offset", _require(pairs, "input.offset")),
        )
    if kind == "piecewise":
        times = _as_floats("input.t", _require(pairs, "input.t"))
        values = _as_floats("input.values", _require(pairs, "input.values"))
        if len(times) != len(values):
            raise ParameterError("input.t and input.values must have matching lengths")
        return PiecewiseLinear(breakpoints=tuple(zip(times, values)))
    if kind == "sequence":
        return ExplicitSequence(
            values=_as_floats("input.values", _require(pairs, "input.values")),
            periodic=_as_bool("input.periodic", pairs.get("input.periodic", "false")),
        )
    return DyadicBlocks(E=E, r=r)


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

    params = ChemostatParams(E=E, r=r, uptake=_build_uptake(pairs), input=_build_input(pairs, E, r))

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
    return parse_config(path.read_text(), source=str(path))
