"""Per-request correctness gate.

Every request output is checked two ways:

* an independent floating-point check: numpy eigenvalues of rho^Gamma and
  of both reduction matrices must give the exact answer's negative count,
  numpy's matrix rank its state rank, and the rank of a float Jacobian
  (forward-mode derivatives) its Jacobian rank.  Floating values that are
  neither clearly zero nor clearly nonzero make the check inconclusive;
  such a check is skipped and counted as unchecked, never as a pass;
* invariants: inertia sums to 9, ppt-family states are gamma-fixed (so
  PPT), state rank <= 4, Jacobian rank <= 28 (full) and <= 13 (ppt).

The states are rebuilt here in floating point from the paper's placement
of the 18 parameters, not with the package's exact constructors.  The
inputs are recovered with the package's own code: scan rows from the
scan's seed through ``checkerboard.sampling``, and ppt-kind parameters
through ``derive_full_params``, whose result the gamma-fixed check tests.
The ppt-family Jacobian likewise differentiates the package's
``complete_parameters``, evaluated on float duals rather than exact jets.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

# Magnitudes below ZERO_TOL * scale are zero; above SIGN_TOL * scale they
# have a definite sign.  Anything between is inconclusive.
ZERO_TOL = 1e-9
SIGN_TOL = 1e-6

CSV_HEADER = ("sample_index,seed_offset,generic_t1,generic_t2,ppt,n_neg,"
              "reduction_violated,rank,notes")
JACOBIAN_RANK_BOUND = {"full": 28, "ppt": 13}

# The checkerboard's two blocks: the 4x4 on odd and the 5x5 on even positions.
_BLOCK_POSITIONS = ((1, 3, 5, 7), (0, 2, 4, 6, 8))

# (letter, first-qutrit index, second-qutrit index) of each generating vector.
_VECTOR_SLOTS = (
    (("a", 0, 0), ("b", 2, 0), ("c", 1, 1), ("d", 0, 2), ("e", 2, 2)),
    (("f", 1, 0), ("g", 0, 1), ("h", 2, 1), ("i", 1, 2)),
    (("j", 0, 0), ("k", 2, 0), ("l", 1, 1), ("m", 0, 2), ("n", 2, 2)),
    (("p", 1, 0), ("q", 0, 1), ("r", 2, 1), ("s", 1, 2)),
)


class Inconclusive(Exception):
    """A floating-point value sits too close to zero to decide it."""


class Tally:
    """Counts of float checks run and skipped, plus the reasons of failures."""

    def __init__(self):
        self.checked = 0
        self.unchecked = 0
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def float_check(self, fn, what: str) -> None:
        """Run ``fn() -> bool``; an Inconclusive value counts as unchecked."""
        try:
            ok = fn()
        except Inconclusive:
            self.unchecked += 1
            return
        self.checked += 1
        self.expect(ok, what)


# ---------------------------------------------------------------------------
# Floating-point model of the states.


def float_state(values: dict) -> np.ndarray:
    """Unnormalized 9x9 state sum |v><v| from the 18 complex parameters."""
    vecs = np.zeros((4, 9), dtype=complex)
    for vi, slots in enumerate(_VECTOR_SLOTS):
        for ch, ia, jb in slots:
            vecs[vi, 3 * ia + jb] = complex(values[ch])
    return vecs.T @ vecs.conj()


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """G[3i+j, 3i'+j'] = m[3i+j', 3i'+j]."""
    return m.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)


def reduction_matrices(m: np.ndarray) -> tuple:
    """rho_A (x) 1 - rho and 1 (x) rho_B - rho, on the unnormalized state."""
    m4 = m.reshape(3, 3, 3, 3)
    rho_a = np.einsum("ijkj->ik", m4)
    rho_b = np.einsum("ijil->jl", m4)
    eye = np.eye(3)
    return np.kron(rho_a, eye) - m, np.kron(eye, rho_b) - m


def classify(values: np.ndarray) -> tuple:
    """(negative, zero, positive) counts of real values, or Inconclusive."""
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    if scale == 0.0:
        return 0, len(values), 0
    mags = np.abs(values) / scale
    if np.any((mags > ZERO_TOL) & (mags < SIGN_TOL)):
        raise Inconclusive
    zero = mags <= ZERO_TOL
    return (int(np.sum(~zero & (values < 0))), int(np.sum(zero)),
            int(np.sum(~zero & (values > 0))))


def float_inertia(h: np.ndarray) -> tuple:
    return classify(np.linalg.eigvalsh(h))


def float_rank(m: np.ndarray) -> int:
    return classify(np.linalg.svd(m, compute_uv=False))[2]


def float_reduction_violated(m: np.ndarray) -> bool:
    return any(float_inertia(r)[0] > 0 for r in reduction_matrices(m))


# ---------------------------------------------------------------------------
# Jacobian ranks in floating point.


class Dual:
    """A complex float with its gradient over real parameter slots.

    Forward-mode derivatives with the product and quotient rules, in
    floating point.  The slots are real, so conjugation acts entrywise on
    the gradient.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value = complex(value)
        self.grad = grad

    @staticmethod
    def lift(other) -> "Dual":
        return other if isinstance(other, Dual) else Dual(complex(other), 0)

    def __bool__(self):
        return self.value != 0

    def conj(self) -> "Dual":
        return Dual(self.value.conjugate(), np.conj(self.grad))

    def __neg__(self):
        return Dual(-self.value, -self.grad)

    def __add__(self, other):
        o = Dual.lift(other)
        return Dual(self.value + o.value, self.grad + o.grad)

    __radd__ = __add__

    def __sub__(self, other):
        o = Dual.lift(other)
        return Dual(self.value - o.value, self.grad - o.grad)

    def __rsub__(self, other):
        return Dual.lift(other) - self

    def __mul__(self, other):
        o = Dual.lift(other)
        return Dual(self.value * o.value, self.grad * o.value + self.value * o.grad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Dual.lift(other)
        return Dual(self.value / o.value,
                    (self.grad * o.value - self.value * o.grad) / (o.value * o.value))


def _complex_duals(values: dict, letters, first_slot: int, slots: int) -> dict:
    """Duals of complex parameters, each over two real slots (re, im)."""
    duals = {}
    for idx, ch in enumerate(letters):
        grad = np.zeros(slots, dtype=complex)
        grad[first_slot + 2 * idx] = 1
        grad[first_slot + 2 * idx + 1] = 1j
        duals[ch] = Dual(values[ch], grad)
    return duals


def _state_gradient(duals: dict, slots: int) -> np.ndarray:
    """Derivatives of the unnormalized state, shape (9, 9, slots)."""
    vecs = np.zeros((4, 9), dtype=complex)
    grads = np.zeros((4, 9, slots), dtype=complex)
    for vi, vector_slots in enumerate(_VECTOR_SLOTS):
        for ch, ia, jb in vector_slots:
            vecs[vi, 3 * ia + jb] = duals[ch].value
            grads[vi, 3 * ia + jb] = duals[ch].grad
    return (np.einsum("krs,kc->rcs", grads, vecs.conj())
            + np.einsum("kr,kcs->rcs", vecs, grads.conj()))


def float_jacobian_psi(params) -> np.ndarray:
    """28x36 real Jacobian of the full-family map at CheckerParams ``params``.

    The map sends the 36 real slots of the 18 parameters to the first two
    columns of both checkerboard blocks: their diagonal entries and the
    real and imaginary parts of the entries below the diagonal.
    """
    values = {ch: complex(v) for ch, v in params.as_dict().items()}
    dm = _state_gradient(_complex_duals(values, sorted(values), 0, 36), 36)
    rows = []
    for block in _BLOCK_POSITIONS:
        rows += [dm[block[d], block[d]].real for d in range(2)]
        for ri in range(len(block)):
            for ci in range(min(ri, 2)):
                rows += [dm[block[ri], block[ci]].real, dm[block[ri], block[ci]].imag]
    return np.array(rows)


def float_jacobian_lambda(sp) -> np.ndarray:
    """41x13 complex Jacobian of the ppt-family map at SubfamilyParams ``sp``.

    The map sends t, x, y and ten complex parameters through the parameter
    completion to the 41 independent real coordinates of the Hermitian
    state (its diagonal, and the real and imaginary parts of the nonzero
    entries below it).  The columns are d/dt, d/dx, d/dy and the
    holomorphic derivative d/dz = (d/dRe z - i d/dIm z)/2 of each complex
    parameter, as the paper counts the subfamily's parameters.
    """
    from checkerboard.subfamily import COMPLEX_LETTERS, complete_parameters

    slots = 3 + 2 * len(COMPLEX_LETTERS)
    reals = [Dual(float(getattr(sp, name)), np.eye(slots, dtype=complex)[k])
             for k, name in enumerate("txy")]
    free = _complex_duals({ch: complex(getattr(sp, ch)) for ch in COMPLEX_LETTERS},
                          COMPLEX_LETTERS, 3, slots)
    duals = complete_parameters(*reals, *(free[ch] for ch in COMPLEX_LETTERS))
    dm = _state_gradient(duals, slots)
    rows = [dm[d, d].real for d in range(9)]
    for r in range(9):
        for c in range(r):
            if (r + c) % 2 == 0:
                rows += [dm[r, c].real, dm[r, c].imag]
    real = np.array(rows)
    return np.column_stack([real[:, :3]] + [(real[:, k] - 1j * real[:, k + 1]) / 2
                                            for k in range(3, slots, 2)])


def float_jacobian_rank(family: str, params) -> int:
    """Rank of the float Jacobian; ``params`` is what the scan drew."""
    jac = float_jacobian_psi(params) if family == "full" else float_jacobian_lambda(params)
    return float_rank(jac)


def _to_complex(obj) -> complex:
    return complex(float(Fraction(obj["re"])), float(Fraction(obj["im"])))


def _doc_full_values(doc: dict) -> dict:
    """18 complex parameter values of a parameter document (ppt kind completed)."""
    from checkerboard.io import parse_param_doc
    from checkerboard.subfamily import derive_full_params

    kind, params = parse_param_doc(doc)
    full = derive_full_params(params) if kind == "ppt" else params
    return {ch: complex(v) for ch, v in full.as_dict().items()}


# ---------------------------------------------------------------------------
# Scan rows.


def _scan_args(argv: list) -> dict:
    opts = dict(zip(argv[1::2], argv[2::2]))
    return {"family": opts["--family"], "samples": int(opts["--samples"]),
            "seed": int(opts["--seed"]), "target": opts.get("--target", "ppt")}


def _sample_values(family: str, seed: int, idx: int) -> tuple:
    """(drawn parameters, their 18 complex values or None if singular) of one sample."""
    from checkerboard import sampling
    from checkerboard.errors import SingularParameterError
    from checkerboard.subfamily import derive_full_params

    rng = sampling.rng_for(seed, idx)
    if family == "full":
        drawn = full = sampling.random_checker_params(rng)
    else:
        drawn = sampling.draw_subfamily_params(rng)
        try:
            full = derive_full_params(drawn)
        except SingularParameterError:
            return drawn, None
    return drawn, {ch: complex(v) for ch, v in full.as_dict().items()}


def check_state_facts(tally: Tally, values: dict, family: str, *, ppt: bool,
                      n_neg: int, violated: bool, state_rank) -> None:
    """Float cross-checks and invariants shared by scan rows and certificates."""
    m = float_state(values)
    pt = partial_transpose(m)
    tally.expect(ppt == (n_neg == 0), "ppt flag disagrees with n_neg")
    tally.float_check(lambda: float_inertia(pt)[0] == n_neg, "n_neg of rho^Gamma")
    tally.float_check(lambda: float_reduction_violated(m) == violated,
                      "reduction criterion")
    if state_rank is not None:
        tally.expect(0 < state_rank <= 4, "state rank outside 1..4")
        tally.float_check(lambda: float_rank(m) == state_rank, "state rank")
    if family == "ppt":
        tally.expect(ppt and n_neg == 0, "ppt-family state is not PPT")
        scale = float(np.max(np.abs(m)))
        tally.expect(float(np.max(np.abs(pt - m))) <= ZERO_TOL * scale,
                     "ppt-family state is not gamma-fixed")


def check_scan(tally: Tally, argv: list, stdout: str) -> dict:
    """Check one scan output; returns {"items", "ppt_rows", "singular_rows"}."""
    args = _scan_args(argv)
    family, target = args["family"], args["target"]
    lines = stdout.splitlines()
    counts = {"items": 0, "ppt_rows": 0, "singular_rows": 0}
    if len(lines) != args["samples"] + 2 or lines[0] != CSV_HEADER:
        tally.expect(False, "scan output has the wrong shape")
        return counts
    summary = dict(tok.split("=", 1) for tok in lines[-1].split()[2:])
    valid = gamma_fixed = 0
    max_jrank = None
    for idx, line in enumerate(lines[1:-1]):
        cells = line.split(",")
        if len(cells) != 9 or cells[0] != str(idx):
            tally.expect(False, f"row {idx} malformed")
            continue
        drawn, values = _sample_values(family, args["seed"], idx)
        if family == "ppt":
            counts["ppt_rows"] += 1
        if values is None:
            counts["singular_rows"] += 1
            tally.expect(cells[8].startswith("singular:") and not any(cells[2:8]),
                         f"row {idx} should be singular")
            continue
        valid += 1
        gamma_fixed += family == "ppt"
        ppt = cells[4] == "True"
        rank_field = int(cells[7])
        if target == "max-rank":
            tally.expect(0 < rank_field <= JACOBIAN_RANK_BOUND[family],
                         f"row {idx} Jacobian rank out of bounds")
            tally.float_check(lambda: float_jacobian_rank(family, drawn) == rank_field,
                              "Jacobian rank")
            max_jrank = max(max_jrank or 0, rank_field)
            state_rank = None
        else:
            state_rank = rank_field
        check_state_facts(tally, values, family, ppt=ppt, n_neg=int(cells[5]),
                          violated=cells[6] == "True", state_rank=state_rank)
        counts["items"] += 1
    tally.expect(summary.get("valid") == str(valid), "summary valid count")
    if family == "ppt":
        tally.expect(summary.get("gamma_fixed") == str(valid), "summary gamma_fixed count")
    expect_max = str(max_jrank) if max_jrank is not None else "-"
    tally.expect(summary.get("max_jacobian_rank") == expect_max, "summary max rank")
    return counts


# ---------------------------------------------------------------------------
# Certificates and matrix dumps.


def _float_witness_value(values: dict, witness_doc: dict) -> tuple:
    """(<w|rho^Gamma|w> with rho normalized, a scale for comparing it, Schmidt rank)."""
    if "components" in witness_doc:
        w = np.array([_to_complex(z) for z in witness_doc["components"]])
    else:
        w = sum(np.kron([_to_complex(z) for z in u], [_to_complex(z) for z in v])
                for u, v in witness_doc["pairs"])
    m = float_state(values)
    rho_pt = partial_transpose(m) / np.trace(m).real
    value = np.vdot(w, rho_pt @ w)
    scale = float(np.vdot(w, w).real * np.max(np.abs(np.linalg.eigvalsh(rho_pt))))
    return value, scale, float_rank(w.reshape(3, 3))


def check_certificate(tally: Tally, cert: dict, param_doc: dict,
                      witness_doc: dict | None) -> None:
    kind = param_doc["family"]
    values = _doc_full_values(param_doc)
    inert = cert["ppt"]["inertia"]
    tally.expect(cert["family"] == kind, "certificate family")
    tally.expect(inert["neg"] + inert["zero"] + inert["pos"] == 9, "inertia does not sum to 9")
    tally.expect(cert["checkerboard"] is True, "checkerboard pattern")
    check_state_facts(tally, values, kind, ppt=cert["ppt"]["is_ppt"],
                      n_neg=inert["neg"], violated=cert["reduction_violated"],
                      state_rank=cert["rank"])
    if kind == "ppt":
        tally.expect(cert["gamma_fixed"] is True, "ppt certificate not gamma-fixed")
    trace = np.trace(float_state(values)).real
    tally.expect(abs(float(Fraction(cert["normalizer"])) - trace) <= ZERO_TOL * abs(trace),
                 "normalizer is not the trace")
    entangled = cert["theorem1"]["generic"] or cert.get("theorem2", {}).get("generic", False)
    tally.expect(cert["certified_entangled"] == entangled, "certified_entangled")
    distillable = cert["reduction_violated"]
    if witness_doc is not None:
        wit = cert.get("witness")
        if wit is None:
            tally.expect(False, "witness section missing")
            return
        value, scale, srank = _float_witness_value(values, witness_doc)
        exact = float(Fraction(wit["value"]))
        tally.expect(abs(exact - value.real) <= 1e-8 * scale and abs(value.imag) <= 1e-8 * scale,
                     "witness expectation value")
        tally.float_check(lambda: srank == wit["schmidt_rank"], "witness Schmidt rank")
        one = exact < 0 and wit["schmidt_rank"] <= 2
        tally.expect(wit["one_distillable"] == one, "one_distillable flag")
        distillable = distillable or one
    tally.expect(cert["distillable"] == distillable, "distillable flag")


def check_dump(tally: Tally, dump: dict, cert: dict, param_doc: dict) -> None:
    tally.expect(dump["certificate"] == cert, "dump certificate differs from printed one")
    tally.expect(dump["params"] == param_doc, "dump params differ from the input")
    tally.expect(dump["normalizer"] == cert["normalizer"], "dump normalizer")
    m = float_state(_doc_full_values(param_doc))
    rho = m / np.trace(m).real
    got = np.array([[_to_complex(z) for z in row] for row in dump["matrix"]])
    tally.expect(got.shape == (9, 9) and
                 float(np.max(np.abs(got - rho))) <= ZERO_TOL * float(np.max(np.abs(rho))),
                 "dumped matrix is not the normalized state")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_certify_request(tally: Tally, argv: list, stdout: str, files: dict,
                          input_dir) -> dict:
    """Check a certify or build request; returns {"items": 1} when it produced a certificate."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    param_doc = _load(input_dir / opts["--input"])
    witness_doc = _load(input_dir / opts["--witness"]) if "--witness" in opts else None
    try:
        cert = json.loads(stdout)
    except json.JSONDecodeError:
        tally.expect(False, "certificate is not JSON")
        return {"items": 0}
    check_certificate(tally, cert, param_doc, witness_doc)
    if argv[0] == "build":
        dump_text = files.get(opts["--out"])
        if dump_text is None:
            tally.expect(False, "build wrote no dump")
        else:
            check_dump(tally, json.loads(dump_text), cert, param_doc)
    return {"items": 1}


def check_request(request: dict, record: dict, input_dir) -> tuple:
    """Gate one request; returns (Tally, counts).  Exit code and traceback come first."""
    tally = Tally()
    tally.expect(record["error"] is None, "traceback")
    tally.expect(record["rc"] == 0, f"exit code {record['rc']}")
    counts = {"items": 0, "ppt_rows": 0, "singular_rows": 0}
    if tally.failures:
        return tally, counts
    try:
        if request["op"] == "scan":
            counts.update(check_scan(tally, request["argv"], record["stdout"]))
        else:
            counts.update(check_certify_request(tally, request["argv"], record["stdout"],
                                                record["files"], input_dir))
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        tally.expect(False, f"output not as specified: {exc!r}")
    return tally, counts
