"""Finite shadow configurations: per-class action states and their parabolic set.

A module acting on the root system splits each real delta-class into injective
("in") and locally-nilpotent ("ln") parts.  Per-class coherence makes a finite
record sufficient: one state per nonzero real delta-free root.  A state is
either fully locally nilpotent, fully injective, or hybrid with a boundary
profile (case, m, t) shared by the +- pair of classes.

Hybrid boundary semantics, with gamma := rho + m*delta anchored at the
canonical representative rho of the pair (the lexicographically larger of the
two signs):

  case III:  on rho:  dc >= m+1 -> in,  dc <= m       -> ln
             on -rho: dc >= t-m -> in,  dc <= t-1-m   -> ln
  case IV:   on rho:  dc <= m-1 -> in,  dc >= m       -> ln
             on -rho: dc <= -t-m -> in, dc >= 1-t-m   -> ln

Boundary membership is taken exactly at these bounds; the two halves partition
the class, so member_ln is the complement of member_in on real roots.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

from .families import AlgebraParams
from .lattice import RootVector
from .reporting import Verdict
from .rootsys import (
    RootClass,
    classify,
    dot_codes,
    doubling_pairs,
    even_table,
    real_dot_roots,
    root_table,
)


class ConfigError(ValueError):
    """Malformed or incomplete shadow configuration input."""


class Case(Enum):
    III = "III"
    IV = "IV"


@dataclass(frozen=True)
class HybridProfile:
    """Boundary data of a hybrid pair; t is constrained to {-1, 0, 1}."""

    case: Case
    m: int
    t: int

    def __post_init__(self) -> None:
        if self.t not in (-1, 0, 1):
            raise ConfigError(f"hybrid t must be in {{-1, 0, 1}}, got {self.t}")

    def reanchored(self) -> HybridProfile:
        """The same split expressed relative to the opposite representative."""
        if self.case is Case.III:
            return HybridProfile(Case.III, self.t - self.m - 1, self.t)
        return HybridProfile(Case.IV, 1 - self.t - self.m, self.t)


class StateKind(Enum):
    FULL_LN = "full_ln"
    FULL_IN = "full_in"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class ClassState:
    kind: StateKind
    profile: HybridProfile | None = None

    def __post_init__(self) -> None:
        if (self.kind is StateKind.HYBRID) != (self.profile is not None):
            raise ConfigError("hybrid states carry a profile; full states do not")

    @property
    def is_hybrid(self) -> bool:
        return self.kind is StateKind.HYBRID


FULL_LN = ClassState(StateKind.FULL_LN)
FULL_IN = ClassState(StateKind.FULL_IN)


def hybrid(case: Case, m: int, t: int) -> ClassState:
    return ClassState(StateKind.HYBRID, HybridProfile(case, m, t))


def canonical_rep(dot: RootVector) -> RootVector:
    """The anchor of a +- class pair: the larger of the two in canonical order."""
    return max(dot, -dot)


@dataclass(frozen=True)
class ShadowConfig:
    """Total assignment of a ClassState to every nonzero real delta-free root.

    Hybrid profiles are stored anchored at the canonical representative of the
    pair and must be literally shared between the two signs; construct through
    ``from_assignments`` (or ``from_json``) to have anchoring normalized and
    forced negatives inferred.  Instances are immutable and hashable:
    ``states`` is a read-only view of a private copy of the mapping passed in,
    in the same order.
    """

    params: AlgebraParams
    states: Mapping[RootVector, ClassState]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", MappingProxyType(dict(self.states)))

    def __hash__(self) -> int:
        return hash((self.params, frozenset(self.states.items())))

    @classmethod
    def from_assignments(
        cls, params: AlgebraParams, assignments: dict[RootVector, ClassState]
    ) -> ShadowConfig:
        """Build a config from per-class assignments where each hybrid profile is
        anchored at its own listed class; unlisted hybrid negatives are inferred,
        any other omission is rejected."""
        states: dict[RootVector, ClassState] = {}
        for dot, state in assignments.items():
            if state.is_hybrid and dot != canonical_rep(dot):
                state = ClassState(StateKind.HYBRID, state.profile.reanchored())
            if dot in states and states[dot] != state:
                raise ConfigError(f"conflicting states for class {dot}")
            states[dot] = state
        for dot, state in list(states.items()):
            if state.is_hybrid:
                mirror = states.get(-dot)
                if mirror is None:
                    states[-dot] = state
                elif mirror != state:
                    raise ConfigError(
                        f"hybrid classes {dot} and {-dot} carry different profiles"
                    )
        real = real_dot_roots(params)
        missing = [d for d in real if d not in states]
        if missing:
            raise ConfigError(f"no state for class {missing[0]} (and {len(missing) - 1} more)")
        real_set = set(real)
        extra = [d for d in states if d not in real_set]
        if extra:
            raise ConfigError(f"state assigned to non-class vector {extra[0]}")
        return cls(params, states)

    # JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        classes = []
        for dot in sorted(self.states, key=RootVector.key):
            state = self.states[dot]
            if state.is_hybrid:
                prof = state.profile
                if dot != canonical_rep(dot):
                    prof = prof.reanchored()
                enc: object = {"hybrid": {"case": prof.case.value, "m": prof.m, "t": prof.t}}
            else:
                enc = state.kind.value
            classes.append({"root": dot.to_json(), "state": enc})
        return {"classes": classes}

    @classmethod
    def from_json(cls, params: AlgebraParams, doc: dict) -> ShadowConfig:
        if not isinstance(doc, dict) or not isinstance(doc.get("classes"), list):
            raise ConfigError("config document must have a 'classes' list")
        assignments: dict[RootVector, ClassState] = {}
        for idx, entry in enumerate(doc["classes"]):
            where = f"classes[{idx}]"
            try:
                dot = RootVector.from_json(entry["root"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{where}: bad root encoding: {exc}") from exc
            enc = entry.get("state")
            if enc == "full_ln":
                state = FULL_LN
            elif enc == "full_in":
                state = FULL_IN
            elif isinstance(enc, dict) and "hybrid" in enc:
                h = enc["hybrid"]
                try:
                    m, t = h["m"], h["t"]
                    if type(m) is not int or type(t) is not int:
                        raise TypeError(f"m and t must be integers, got {m!r} and {t!r}")
                    state = hybrid(Case(h["case"]), m, t)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(f"{where}: bad hybrid profile: {exc}") from exc
            else:
                raise ConfigError(f"{where}: unknown state encoding {enc!r}")
            if dot in assignments:
                raise ConfigError(f"{where}: duplicate class {dot}")
            assignments[dot] = state
        return cls.from_assignments(params, assignments)


# --- validity -----------------------------------------------------------------


def validate(cfg: ShadowConfig) -> Verdict:
    """Totality, +-symmetry of hybrid profiles, and the doubling rule for odd
    classes whose double is again a class: a fully-ln or fully-in odd class
    doubles to a class of the same kind, a hybrid one imposes no constraint."""
    v = Verdict()
    real = dot_codes(cfg.params).real
    states = cfg.states
    v.record(len(states) == len(real) and all(map(states.__contains__, real.values())),
             "states total on real classes",
             f"{len(states)} states for {len(real)} classes")
    if not v.ok:
        return v
    seen = set()
    for c, rep in real.items():
        seen.add(c)
        if -c not in seen:
            continue  # the anchor of a +- pair is the later one in canonical order
        neg = real[-c]
        a, b = states[rep], states[neg]
        v.record(
            a.is_hybrid == b.is_hybrid and (not a.is_hybrid or a.profile == b.profile),
            "hybrid states are +-symmetric with a shared profile",
            lambda: f"{rep}: {a.kind.value} vs {neg}: {b.kind.value}",
        )
    for dot, doubled in doubling_pairs(cfg.params):
        st, st2 = cfg.states[dot], cfg.states[doubled]
        if st.is_hybrid:
            v.record(True, "hybrid odd class imposes no doubling constraint")
        else:
            part = "ln" if st.kind is StateKind.FULL_LN else "in"
            v.record(st2.kind is st.kind,
                     f"fully-{part} odd class doubles to a fully-{part} class",
                     lambda: f"{dot} {st.kind.value} but {doubled} {st2.kind.value}")
    return v


# --- membership ----------------------------------------------------------------


def _require_real(cfg: ShadowConfig, v: RootVector) -> RootVector:
    info = classify(cfg.params, v)
    if info.root_class is not RootClass.REAL:
        raise ValueError(f"{v} is not a nonzero real root")
    return v.dot_part()


def _hybrid_in(profile: HybridProfile, on_canonical: bool, d: int) -> bool:
    m, t = profile.m, profile.t
    if profile.case is Case.III:
        return d >= m + 1 if on_canonical else d >= t - m
    return d <= m - 1 if on_canonical else d <= -t - m


def member_in(cfg: ShadowConfig, v: RootVector) -> bool:
    """Whether the real root v lies in the injective part under this config."""
    dot = _require_real(cfg, v)
    state = cfg.states[dot]
    if state.kind is StateKind.FULL_IN:
        return True
    if state.kind is StateKind.FULL_LN:
        return False
    return _hybrid_in(state.profile, dot == canonical_rep(dot), v.dc)


def member_ln(cfg: ShadowConfig, v: RootVector) -> bool:
    """Whether the real root v lies in the locally nilpotent part."""
    return not member_in(cfg, v)


def is_hybrid_module(cfg: ShadowConfig) -> bool:
    """All classes hybrid."""
    return all(st.is_hybrid for st in cfg.states.values())


def is_tight(cfg: ShadowConfig) -> bool:
    """At least one class is not hybrid."""
    return not is_hybrid_module(cfg)


def check_mixed_components(cfg: ShadowConfig, mmax: int = 8) -> Verdict:
    """Each nonempty even component must see both ln and in behaviour: its ln
    part is nonempty and proper inside its nonzero real part.  A hybrid class
    holds both an ln and an in part.  ``mmax`` does not change the verdict."""
    v = Verdict()
    for i in (1, 2):
        table = even_table(cfg.params, i)
        if not table:
            continue
        dots = [d for d in table if not d.is_zero]
        kinds = {cfg.states[d].kind for d in dots}
        has_ln = bool(kinds & {StateKind.FULL_LN, StateKind.HYBRID})
        has_in = bool(kinds & {StateKind.FULL_IN, StateKind.HYBRID})
        v.record(has_ln, f"ln part nonempty in component {i}",
                 f"{len(dots)} classes, all fully-in")
        v.record(has_in, f"ln part proper in component {i}",
                 f"{len(dots)} classes, all fully-ln")
    return v


# --- the parabolic set ----------------------------------------------------------


@dataclass(frozen=True)
class ParabolicSet:
    """Membership predicate for the set  f-ln  u  -(f-in)  u  hybrid  u  Z*delta,
    defined on real and imaginary roots only."""

    cfg: ShadowConfig

    def __post_init__(self) -> None:
        # A plain attribute, not a field, like Functional._den: whether each
        # real class lies in the set, keyed by its dot code, in canonical
        # order.  A class lies in the set unless it is fully-in with a
        # negative that is not.  This is the one membership route.
        codes = dot_codes(self.cfg.params)
        states = self.cfg.states
        kinds = {c: states[d].kind for c, d in codes.real.items()}
        object.__setattr__(self, "_code", codes.code)
        object.__setattr__(self, "_inside", {
            c: kind is not StateKind.FULL_IN or kinds[-c] is StateKind.FULL_IN
            for c, kind in kinds.items()})

    def contains_class(self, dot: RootVector) -> bool:
        """Whether the whole real class over ``dot`` lies in the set (membership
        is constant on classes)."""
        return self._inside[self._code[dot]]

    def __contains__(self, v: RootVector) -> bool:
        info = classify(self.cfg.params, v) if not v.is_zero else None
        if info is None or info.root_class is RootClass.IMAGINARY:
            return True
        if info.root_class is RootClass.NONSINGULAR:
            raise ValueError(f"{v} is nonsingular; the set lives in the real+imaginary part")
        return self.contains_class(v.dot_part())


def check_parabolic(cfg: ShadowConfig, mmax: int = 8) -> Verdict:
    """Closure of the derived set inside the real+imaginary part.

    The quantifier runs over delta-classes: membership is constant on classes,
    so two member classes violate closure exactly when some coefficients m, n
    of their roots sum to a coefficient of a real class outside the set.  The
    witness names the smallest nonnegative such m and n.  ``mmax`` does not
    change the verdict.

    Cover holds by construction and is not recorded: a class outside the set
    is fully-in with a negative that is not, and that negative is inside.

    The loops run on the params' dot code map (``rootsys.dot_codes``):
    membership is decided once per class, the sum of two classes is found by
    adding their codes and looking the sum up, and the zero dot is code 0.
    """
    v = Verdict()
    p = cfg.params
    inside = ParabolicSet(cfg)._inside
    codes = dot_codes(p)
    real = codes.real
    table = root_table(p)
    members = [(c, d, table[d]) for c, d in real.items() if inside[c]]
    zero = codes.by_code[0]
    members.append((0, zero, table[zero]))  # the imaginary line belongs to the set
    for idx, (ca, a, sa) in enumerate(members):
        for cb, b, sb in members[idx:]:
            cc = ca + cb
            c = real.get(cc)
            if c is None:
                # sums into the imaginary line stay in the set; nonsingular
                # sums and non-roots lie outside the real+imaginary part
                continue
            wit = sa.sum_witness(sb, table[c])
            if wit is None:
                continue
            m, n = wit
            v.record(
                inside[cc],
                "closure: sums of set members stay in the set",
                lambda: f"{a.with_dc(m)} + {b.with_dc(n)} = {c.with_dc(m + n)}",
            )
    return v
