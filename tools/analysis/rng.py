"""RNG-discipline checker: all randomness flows through keyed streams.

Every scaling claim of this reproduction — bit-identical histories across
the serial/multiprocess/lazy execution paths and exact
fault-trajectory replay — rests on one structural property: *every*
random draw derives from an explicitly seeded
``numpy.random.SeedSequence``/``default_rng(seed)`` stream.  A single
module-state ``np.random.*`` call or wall-clock-derived seed silently
breaks replay.  The AirComp literature admits aggregation noise as the
only nondeterminism, and that noise too is drawn from a keyed stream
(``BaseTrainer._noise_rng``).

Rules
-----
``RNG001``
    Call through NumPy's module-state RNG (``np.random.rand``,
    ``np.random.seed``, ``np.random.normal``, ...).  Constructing
    generators (``default_rng``, ``SeedSequence``, bit generators) is
    allowed.
``RNG002``
    Call into the stdlib ``random`` module (module-state Mersenne
    Twister), directly or via ``from random import ...``.
    ``random.Random(seed)`` with an explicit seed is allowed.
``RNG003``
    Wall-clock time feeding a seed: ``time.time()``/``time.time_ns()``/
    ``datetime.now()``/... appearing inside the arguments of
    ``default_rng``/``SeedSequence``/``Random`` or of any ``seed=``
    keyword.
``RNG004``
    ``default_rng()``/``SeedSequence()`` called with no arguments inside
    the seeded tree (``src/repro``): OS entropy, unreproducible.

Escape hatch: ``# analyze: allow-rng(reason)``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from .core import Checker, Finding, Module
from .walk import CallSite, dotted_name, import_map, iter_calls

__all__ = ["RngDisciplineChecker"]

#: numpy.random attributes that *construct* keyed streams (allowed).
_GENERATOR_CONSTRUCTORS: Set[str] = {
    "default_rng",
    "SeedSequence",
    "Generator",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: Wall-clock call suffixes that must never feed a seed expression.
_WALL_CLOCK_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

_HINT_KEYED = (
    "derive a stream from np.random.default_rng("
    "np.random.SeedSequence([seed, *keys])) instead"
)


class RngDisciplineChecker(Checker):
    """RNG001-RNG004: no module-state RNG, no entropy/wall-clock seeds."""

    name = "rng-discipline"
    rules = {
        "RNG001": "module-state numpy RNG call (np.random.*)",
        "RNG002": "stdlib random-module call (module-state Mersenne Twister)",
        "RNG003": "wall-clock time feeding a seed expression",
        "RNG004": "default_rng()/SeedSequence() without an explicit seed",
    }
    allow_tag = "rng"

    def check_module(self, module: Module) -> Iterable[Finding]:
        imports = import_map(module.tree)
        # Aliases of the numpy package and of the stdlib random module.
        numpy_aliases = {a for a, o in imports.items() if o == "numpy"}
        npr_aliases = {a for a, o in imports.items() if o == "numpy.random"}
        random_aliases = {a for a, o in imports.items() if o == "random"}
        # Names imported *from* the random module: {local_name: member}.
        from_random: Dict[str, str] = {
            a: o.split(".", 1)[1]
            for a, o in imports.items()
            if o.startswith("random.")
        }

        findings: List[Finding] = []
        for site in iter_calls(module.tree):
            name = site.func_name
            member = self._np_random_member(
                name, numpy_aliases, npr_aliases
            )
            if member is not None and member not in _GENERATOR_CONSTRUCTORS:
                findings.append(self._emit(module, site, "RNG001", (
                    f"module-state NumPy RNG call {name}(...)"
                ), _HINT_KEYED))
            findings.extend(
                self._check_stdlib_random(
                    module, site, name, random_aliases, from_random
                )
            )
            findings.extend(
                self._check_seed_expression(module, site, name, member, imports)
            )
        return [f for f in findings if f is not None]

    # ------------------------------------------------------------------
    @staticmethod
    def _np_random_member(
        name: Optional[str],
        numpy_aliases: Set[str],
        npr_aliases: Set[str],
    ) -> Optional[str]:
        """The ``X`` of an ``np.random.X`` / ``numpy.random.X`` call."""
        if name is None:
            return None
        parts = name.split(".")
        if len(parts) == 3 and parts[0] in numpy_aliases and parts[1] == "random":
            return parts[2]
        if len(parts) == 2 and parts[0] in npr_aliases:
            return parts[1]
        return None

    def _check_stdlib_random(
        self,
        module: Module,
        site: CallSite,
        name: Optional[str],
        random_aliases: Set[str],
        from_random: Dict[str, str],
    ) -> List[Finding]:
        if name is None:
            return []
        parts = name.split(".")
        member: Optional[str] = None
        if len(parts) == 2 and parts[0] in random_aliases:
            member = parts[1]
        elif len(parts) == 1 and parts[0] in from_random:
            member = from_random[parts[0]]
        if member is None:
            return []
        if member == "Random" and (site.node.args or site.node.keywords):
            return []  # explicitly seeded instance
        finding = self._emit(module, site, "RNG002", (
            f"stdlib random call {name}(...) uses module-state RNG"
        ), _HINT_KEYED)
        return [finding] if finding else []

    def _check_seed_expression(
        self,
        module: Module,
        site: CallSite,
        name: Optional[str],
        np_random_member: Optional[str],
        imports: Dict[str, str],
    ) -> List[Finding]:
        """RNG003/RNG004 on generator constructors and ``seed=`` keywords."""
        findings: List[Finding] = []
        last = name.rsplit(".", 1)[-1] if name else ""
        is_ctor = last in ("default_rng", "SeedSequence", "Random")
        seed_args: List[ast.expr] = []
        if is_ctor:
            seed_args.extend(site.node.args)
            seed_args.extend(k.value for k in site.node.keywords)
            if not seed_args and last != "Random":
                finding = self._emit(module, site, "RNG004", (
                    f"{name}() without an explicit seed draws OS entropy"
                ), "pass a seed or SeedSequence derived from the experiment seed")
                if finding:
                    findings.append(finding)
        for keyword in site.node.keywords:
            if keyword.arg in ("seed", "random_state"):
                seed_args.append(keyword.value)
        for arg in seed_args:
            clock = self._wall_clock_call(arg, imports)
            if clock is not None:
                finding = self._emit(module, site, "RNG003", (
                    f"wall-clock call {clock}(...) feeds a seed expression"
                ), "seeds must be pure functions of the experiment seed and keys")
                if finding:
                    findings.append(finding)
        return findings

    @staticmethod
    def _wall_clock_call(
        node: ast.expr, imports: Dict[str, str]
    ) -> Optional[str]:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            name = dotted_name(sub.func)
            if name is None:
                continue
            parts = name.split(".")
            root_origin = imports.get(parts[0], parts[0])
            resolved = ".".join([root_origin] + parts[1:])
            for suffix in _WALL_CLOCK_SUFFIXES:
                if resolved == suffix or resolved.endswith("." + suffix):
                    return name
        return None

    # ------------------------------------------------------------------
    def _emit(
        self,
        module: Module,
        site: CallSite,
        rule: str,
        message: str,
        hint: str,
    ) -> Optional[Finding]:
        if module.allows(self.allow_tag, site.node, site.stmt):
            return None
        return module.finding(rule, site.node, message, hint)
