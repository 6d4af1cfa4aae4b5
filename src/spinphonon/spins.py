"""Spin centers, spin systems and spin operator algebra."""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import CapacityError, ValidationError
from .units import BOHR_MAGNETON_CM1_PER_T, NUCLEAR_MAGNETON_CM1_PER_T

DEFAULT_DIMENSION_CAP = 256


@dataclass(frozen=True)
class SpinCenter:
    """A single electronic or nuclear spin carrier.

    ``s`` is the spin quantum number (half-integer allowed), ``g`` the
    3x3 Lande tensor (dimensionless, not necessarily symmetric) and
    ``position`` the carrier position in Angstrom (Cartesian).
    """

    id: int
    kind: str  # "electronic" | "nuclear"
    s: float
    g: np.ndarray = None
    position: np.ndarray = None
    magneton: str = None  # "bohr" | "nuclear"

    def __post_init__(self):
        if self.kind not in ("electronic", "nuclear"):
            raise ValidationError(f"unknown spin kind {self.kind!r}")
        mult = 2.0 * self.s + 1.0
        if mult < 2.0 or abs(mult - round(mult)) > 1e-12:
            raise ValidationError(f"invalid spin quantum number s={self.s}")
        g = np.eye(3) if self.g is None else np.asarray(self.g, dtype=float)
        if g.shape == ():
            g = float(g) * np.eye(3)
        if g.shape != (3, 3) or not np.all(np.isfinite(g)):
            raise ValidationError("g tensor must be a finite 3x3 matrix")
        object.__setattr__(self, "g", g)
        pos = np.zeros(3) if self.position is None else np.asarray(self.position, float)
        object.__setattr__(self, "position", pos)
        if self.magneton is None:
            default = "bohr" if self.kind == "electronic" else "nuclear"
            object.__setattr__(self, "magneton", default)
        if self.magneton not in ("bohr", "nuclear"):
            raise ValidationError(f"unknown magneton {self.magneton!r}")

    @property
    def multiplicity(self):
        return int(round(2.0 * self.s + 1.0))

    @property
    def magneton_cm1_per_T(self):
        if self.magneton == "bohr":
            return BOHR_MAGNETON_CM1_PER_T
        return NUCLEAR_MAGNETON_CM1_PER_T


@dataclass(frozen=True)
class SpinCoupling:
    """Bilinear coupling S(i).D.S(j) between two distinct centers.

    Stored once per unordered pair; the 1/2 double-counting convention
    of the bilinear double sum is applied at Hamiltonian assembly.
    """

    i: int
    j: int
    tensor: np.ndarray  # 3x3, cm^-1
    tag: str = "custom"  # "hyperfine" | "dipolar" | "custom"

    def __post_init__(self):
        if self.i == self.j:
            raise ValidationError("self-couplings (i == j) are not allowed")
        t = np.asarray(self.tensor, dtype=float)
        if t.shape != (3, 3) or not np.all(np.isfinite(t)):
            raise ValidationError("coupling tensor must be a finite 3x3 matrix")
        object.__setattr__(self, "tensor", t)
        if self.tag not in ("hyperfine", "dipolar", "custom"):
            raise ValidationError(f"unknown coupling tag {self.tag!r}")


@dataclass(frozen=True)
class SpinSystem:
    """Collection of spin centers, pairwise couplings and external field."""

    centers: tuple
    couplings: tuple = ()
    field_B: np.ndarray = None
    include_nuclear_zeeman: bool = True
    dimension_cap: int = DEFAULT_DIMENSION_CAP

    def __post_init__(self):
        centers = tuple(self.centers)
        object.__setattr__(self, "centers", centers)
        ids = [c.id for c in centers]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate spin center ids")
        object.__setattr__(self, "couplings", tuple(self.couplings))
        seen = set()
        for cp in self.couplings:
            if cp.i not in ids or cp.j not in ids:
                raise ValidationError(f"coupling references unknown center {cp.i},{cp.j}")
            key = frozenset((cp.i, cp.j, cp.tag))
            if key in seen:
                raise ValidationError(f"duplicate coupling for pair ({cp.i},{cp.j})")
            seen.add(key)
        B = np.zeros(3) if self.field_B is None else np.asarray(self.field_B, float)
        if B.shape != (3,) or not np.all(np.isfinite(B)):
            raise ValidationError("field_B must be a finite 3-vector")
        object.__setattr__(self, "field_B", B)
        if self.dimension > self.dimension_cap:
            raise CapacityError(
                f"Hilbert dimension {self.dimension} exceeds cap {self.dimension_cap}"
            )

    @property
    def dimension(self):
        d = 1
        for c in self.centers:
            d *= c.multiplicity
        return d

    def center(self, center_id):
        for c in self.centers:
            if c.id == center_id:
                return c
        raise KeyError(center_id)

    def with_field(self, field_B):
        return SpinSystem(
            self.centers,
            self.couplings,
            np.asarray(field_B, float),
            self.include_nuclear_zeeman,
            self.dimension_cap,
        )


def single_spin_matrices(s):
    """Ladder-constructed Sx, Sy, Sz for one spin s (dimension 2s+1)."""
    mult = int(round(2 * s + 1))
    m = s - np.arange(mult)  # s, s-1, ..., -s
    sz = np.diag(m).astype(complex)
    # <m+1|S+|m> = sqrt(s(s+1) - m(m+1))
    mp = m[1:]
    raise_elems = np.sqrt(s * (s + 1) - mp * (mp + 1))
    splus = np.zeros((mult, mult), dtype=complex)
    splus[np.arange(mult - 1), np.arange(1, mult)] = raise_elems
    sminus = splus.conj().T
    sx = 0.5 * (splus + sminus)
    sy = -0.5j * (splus - sminus)
    return sx, sy, sz


@dataclass(frozen=True)
class SpinOperators:
    """Per-center spin operators embedded in the product space.

    ``embedded[i]`` is the (3, d, d) stack (Sx, Sy, Sz) of center i
    Kronecker-embedded in the full d-dimensional product space, ordered
    by center id.
    """

    system: SpinSystem
    embedded: dict = field(repr=False, default=None)

    @property
    def dimension(self):
        return self.system.dimension


def build_spin_operators(system):
    """Construct the embedded spin operators of every center."""
    centers = sorted(system.centers, key=lambda c: c.id)
    local = {}
    for c in centers:
        sx, sy, sz = single_spin_matrices(c.s)
        local[c.id] = np.stack([sx, sy, sz])
    embedded = {}
    for k, c in enumerate(centers):
        ops = []
        for comp in range(3):
            op = np.eye(1, dtype=complex)
            for kk, cc in enumerate(centers):
                blk = local[c.id][comp] if kk == k else np.eye(cc.multiplicity)
                op = np.kron(op, blk)
            ops.append(op)
        embedded[c.id] = np.stack(ops)
    return SpinOperators(system=system, embedded=embedded)
