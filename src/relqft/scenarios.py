"""Bundled verification scenarios, one per reportable check.

Each check function builds a fully specified model instance, measures the
residuals of one family of identities on it, and returns a CheckOutcome.
Generic instances are built from the scenario config (system
representation, frame list, random draws from the per-check generator);
the causality, correlator and net checks read their site pairs and
regions from the configured lattice's tables.  Constructed witnesses pin
their own geometry (the N = 3 product frame, bare dimensions) because the
property being exercised needs a specific shape; those record their
pinned parameters in the outcome details so reports stay
self-describing.

Each check declares its measurements, every value with the bound it must
meet; ``tolerances.verdict`` derives the verdict from them, from the premise
of a conditional statement, and from whether a feasibility search ended
with a certificate.  The runner fills in the check's name and anchor from
``CHECKS``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from relqft import causality, fields, frames, lattice, net, wightman
from relqft import operators as ops
from relqft.config import ScenarioConfig
from relqft.lattice import GroupElement, LatticePoint, ModelParams
from relqft.tolerances import Measurement, verdict

#: Thresholds pinned by the check definitions themselves (tighter than the
#: run-wide tolerance set; not overridable because the instances are exact).
EXACT_TOL = 1e-12
SWAP_TOL = 1e-9
GRAM_TOL = 1e-10


@dataclass
class CheckOutcome:
    """One check's measurements, their verdict, and reporting details."""

    measurements: list
    details: dict = dc_field(default_factory=dict)
    premise: bool = True
    certified: bool = True
    name: str = ""
    anchor: str = ""
    seconds: float = 0.0

    @property
    def verdict(self) -> str:
        return verdict(self.measurements, self.premise, self.certified)

    @property
    def residuals(self) -> dict:
        """The measured values by name."""
        return {m.name: m.value for m in self.measurements}

    def to_record(self, include_timing: bool = True) -> dict:
        record = {
            "name": self.name,
            "anchor": self.anchor,
            "verdict": self.verdict,
            "measurements": [_jsonable(asdict(m)) for m in self.measurements],
            "details": _jsonable(self.details),
        }
        if include_timing:
            record["seconds"] = round(self.seconds, 3)
        return record


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.bool_, bool)):  # before int: bool is an int
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if value is None or isinstance(value, str):
        return value
    return str(value)


# ---------------------------------------------------------------------------
# instance builders

def smeared_frame(rep: ops.UnitaryRep, rng: np.random.Generator,
                  strength: float) -> frames.FrameObservable:
    """Covariant frame dressed from a perturbed maximally mixed seed; full
    Born support for any preparation once strength < 1."""
    d = rep.dim
    seed = np.eye(d, dtype=complex) / d + strength * ops.random_psd(rng, d) / d
    return frames.build_frame(rep, seed)


FRAME_BUILDERS = {
    "uniform-regular": lambda p, rng: frames.uniform_frame(
        ops.regular_representation(p)),
    "uniform-lorentz": lambda p, rng: frames.uniform_frame(
        ops.lorentz_representation(p)),
    "sharp-regular": lambda p, rng: frames.sharp_regular_frame(p),
    "fiber-uniform-spacetime": lambda p, rng:
        frames.fiber_uniform_spacetime_frame(p),
    "smeared-regular": lambda p, rng: smeared_frame(
        ops.regular_representation(p), rng, 0.35),
    "smeared-regular-light": lambda p, rng: smeared_frame(
        ops.regular_representation(p), rng, 0.25),
    "smeared-regular-strong": lambda p, rng: smeared_frame(
        ops.regular_representation(p), rng, 0.8),
    "smeared-lorentz": lambda p, rng: smeared_frame(
        ops.lorentz_representation(p), rng, 0.35),
    "smeared-lorentz-light": lambda p, rng: smeared_frame(
        ops.lorentz_representation(p), rng, 0.25),
    "smeared-spacetime": lambda p, rng: smeared_frame(
        ops.spacetime_representation(p), rng, 0.35),
}


def build_system(cfg: ScenarioConfig,
                 rng: np.random.Generator) -> fields.SystemModel:
    """The configured character representation with a random seed
    observable."""
    params = cfg.model()
    rep = ops.character_representation(params, list(cfg.momenta))
    return fields.SystemModel(params, rep, ops.random_operator(rng, rep.dim))


def _right_shift(rep: ops.UnitaryRep, g: GroupElement,
                 omega: np.ndarray) -> np.ndarray:
    """omega . g: conjugation by the inverse element."""
    return rep.conjugate(lattice.inverse(g, rep.params), omega)


def _shifted(prepared: frames.OrientedFrame, g: GroupElement):
    """U(g) omega U(g)^dag for the preparation's state omega, or the
    preparation itself when g fixes omega to the bit (a translation on the
    Lorentz frame), so that its Born measure is taken once."""
    moved = prepared.frame.rep.conjugate(g, prepared.omega)
    return prepared if np.array_equal(moved, prepared.omega) else moved


def _group_sample(params: ModelParams, rng: np.random.Generator,
                  extra: int) -> list[GroupElement]:
    sample = list(params.generators())
    elements = params.group_elements()
    for _ in range(extra):
        sample.append(elements[int(rng.integers(len(elements)))])
    return sample


# ---------------------------------------------------------------------------
# covariance suite

def check_relational_covariance(cfg: ScenarioConfig,
                                rng: np.random.Generator) -> CheckOutcome:
    """Conjugating a relational observable by the system representation
    equals re-preparing the frame with the shifted state, over every
    generator and each configured frame."""
    params = cfg.model()
    system = build_system(cfg, rng)
    worst = 0.0
    used = []
    for name in cfg.frames:
        fr = FRAME_BUILDERS[name](params, rng)
        omega = ops.random_state(rng, fr.dim)
        rf = fields.RelationalField(system, fr)
        prepared = frames.OrientedFrame(fr, omega)
        observable = fields.relational_local_observable(rf, prepared)
        for g in params.generators():
            lhs = system.rep.conjugate(g, observable)
            rhs = fields.relational_local_observable(rf, _shifted(prepared, g))
            worst = np.maximum(worst, ops.eq_defect(lhs, rhs))
        used.append({"frame": name, "dim": fr.dim})
        del fr, rf, prepared  # free this frame before the next
    return CheckOutcome(
        [Measurement("covariance", worst, cfg.tol("tol_eq"))],
        {"frames": used, "generators": len(params.generators()),
         "system_dim": system.dim})


def check_field_transformation(cfg: ScenarioConfig,
                               rng: np.random.Generator) -> CheckOutcome:
    """Pointwise transport of relational local fields (conjugate the field,
    shift state and point) and the matching reconstruction of the shifted
    observable from the unshifted marginal."""
    params = cfg.model()
    system = build_system(cfg, rng)
    fr = smeared_frame(ops.regular_representation(params), rng, 0.5)
    omega = ops.random_state(rng, fr.dim)
    rf = fields.RelationalField(system, fr)
    moves = lattice.site_action_table(params)  # row of g: x -> g.x
    tol_supp = cfg.tol("tol_supp")
    worst_point = worst_integral = 0.0
    sample = _group_sample(params, rng, extra=2)
    prepared = frames.OrientedFrame(fr, omega, tol_supp)
    unshifted = fields.relational_local_fields(rf, prepared)
    dis = prepared.disintegration
    supported = np.flatnonzero(dis.support)
    observable = fields.relational_local_observable(rf, prepared)
    for g in sample:
        moved = fields.relational_local_fields(rf, frames.OrientedFrame(
            fr, fr.rep.conjugate(g, omega), tol_supp))
        moved = moved[moves[params.frame_index(g), supported]]
        worst_point = np.maximum(worst_point, ops.eq_defect(
            system.rep.conjugate(g, unshifted[supported]), moved))
        # a sum over axis 0 adds the sites in order, as a loop over them does
        rebuilt = (dis.marginal[supported, None, None] * moved).sum(axis=0)
        worst_integral = np.maximum(worst_integral, ops.eq_defect(
            system.rep.conjugate(g, observable), rebuilt))
    tol = cfg.tol("tol_eq")
    return CheckOutcome(
        [Measurement("pointwise", worst_point, tol),
         Measurement("integral", worst_integral, tol)],
        {"supported_points": len(supported), "group_sample": len(sample),
         "frame": "smeared-regular(0.5)"})


def check_disintegration_covariance(cfg: ScenarioConfig,
                                    rng: np.random.Generator) -> CheckOutcome:
    """Conditional fiber measures transport along the group action: the
    conditional of the right-shifted state at x equals the original
    conditional at the moved point over the boosted fiber element."""
    params = cfg.model()
    fr = smeared_frame(ops.regular_representation(params), rng, 0.5)
    omega = ops.random_state(rng, fr.dim)
    tol_supp = cfg.tol("tol_supp")
    base = frames.OrientedFrame(fr, omega, tol_supp).disintegration
    # row of g: g.x for each site x, g.boost * lam for each fiber lam
    sites = lattice.site_action_table(params)
    fibers = lattice.fiber_action_table(params)
    worst = 0.0
    compared = 0
    mismatches = 0
    sample = _group_sample(params, rng, extra=3)
    for g in sample:
        moved = frames.OrientedFrame(
            fr, _right_shift(fr.rep, g, omega), tol_supp).disintegration
        row = params.frame_index(g)
        gx = sites[row, moved.support]
        matched = base.support[gx]
        mismatches += int(np.count_nonzero(~matched))
        worst = np.maximum(worst, np.max(np.abs(
            moved.conditional[moved.support][matched]
            - base.conditional[gx[matched]][:, fibers[row]]), initial=0.0))
        compared += int(np.count_nonzero(matched)) * fibers.shape[1]
    return CheckOutcome(
        [Measurement("conditional", worst, cfg.tol("tol_eq")),
         Measurement("support_mismatches", mismatches, 0, "==")],
        {"compared": compared, "support_mismatches": mismatches,
         "group_sample": len(sample)})


def check_restriction_duality(cfg: ScenarioConfig,
                              rng: np.random.Generator) -> CheckOutcome:
    """Trace duality of the state-conditioned partial trace on random
    triples, and the exact factor rule on product operators."""
    dim_s, dim_r = 4, 6
    worst_duality = worst_product = 0.0
    for _ in range(20):
        O = ops.random_operator(rng, dim_s * dim_r)
        rho = ops.random_state(rng, dim_s)
        omega = ops.random_state(rng, dim_r)
        restricted = fields.restrict(O, omega, dim_s, dim_r)
        worst_duality = np.maximum(worst_duality, abs(
            np.trace(rho @ restricted)
            - np.trace(ops.tensor(rho, omega) @ O)))
        A = ops.random_operator(rng, dim_s)
        B = ops.random_operator(rng, dim_r)
        worst_product = np.maximum(worst_product, ops.eq_defect(
            fields.restrict(ops.tensor(A, B), omega, dim_s, dim_r),
            np.trace(omega @ B) * A))
    return CheckOutcome(
        [Measurement("duality", worst_duality, cfg.tol("tol_eq")),
         Measurement("product_rule", worst_product, EXACT_TOL)],
        {"triples": 20, "dims": [dim_s, dim_r]})


# ---------------------------------------------------------------------------
# channel suite

#: The frames on which ``check_channel_laws`` measures each law, as the
#: worst case over its random draws: uniform and lightly smeared frames on
#: the regular and the Lorentz representation.  The battery picks
#: instances; it excludes no counterexample.  The Kadison-Schwarz order
#: it measures holds for every unital completely positive map, sharp
#: frames included (``tests/test_fields.py``).
CHANNEL_BATTERY = ("uniform-regular", "uniform-lorentz",
                   "smeared-regular-light", "smeared-lorentz-light")


def check_channel_laws(cfg: ScenarioConfig,
                       rng: np.random.Generator) -> CheckOutcome:
    """Channel laws of restricted relativization (unitality, adjoints,
    linearity, positivity, contractivity, the Kadison-Schwarz order
    Phi(phi^dag phi) >= Phi(phi)^dag Phi(phi) of a unital completely
    positive map, also for the unrestricted relativization) and diagonal
    invariance of the unrestricted map.

    Each frame's random operators are drawn first; the channel then maps
    all of them at once (one orbit sum), and each law is one batched
    measurement over its draws."""
    params = cfg.model()
    system = build_system(cfg, rng)
    d = system.dim
    eye = np.eye(d, dtype=complex)
    worst = {"unitality": 0.0, "adjoint": 0.0, "linearity": 0.0,
             "contractivity_excess": 0.0, "diagonal_invariance": 0.0}
    min_positivity = np.inf
    min_gap = np.inf
    unrestricted_gaps = []
    for name in CHANNEL_BATTERY:
        fr = FRAME_BUILDERS[name](params, rng)
        omega = ops.random_state(rng, fr.dim)
        channel = fields.relativization_channel(
            fields.RelationalField(system, fr), omega)
        phi = np.array([ops.random_operator(rng, d) for _ in range(20)])
        a, b, alpha, psd = [], [], [], []
        for _ in range(5):
            a.append(ops.random_operator(rng, d))
            b.append(ops.random_operator(rng, d))
            alpha.append(complex(rng.standard_normal(), rng.standard_normal()))
            psd.append(ops.random_psd(rng, d))
        a, b, psd = np.array(a), np.array(b), np.array(psd)
        alpha = np.array(alpha)[:, None, None]
        unrestricted = [ops.random_operator(rng, d)
                        for _ in range(10 if fr.dim * d <= 64 else 0)]

        phi_dag = ops.dagger(phi)
        images = channel(np.concatenate(
            [eye[None], phi, phi_dag, phi_dag @ phi, a, b, alpha * a + b, psd]))
        parts = np.split(images, np.cumsum([1, 20, 20, 20, 5, 5, 5]))
        unit, image, image_of_dag, image_of_square = parts[:4]
        image_a, image_b, image_mix, image_psd = parts[4:]
        worst["unitality"] = np.maximum(worst["unitality"],
                                        ops.eq_defect(unit[0], eye))
        worst["adjoint"] = np.maximum(worst["adjoint"], ops.eq_defect(
            image_of_dag, ops.dagger(image)))
        worst["contractivity_excess"] = np.maximum(
            worst["contractivity_excess"],
            np.max(ops.op_norms(image) - ops.op_norms(phi)))
        min_gap = np.minimum(min_gap, np.min(ops.psd_gaps(
            image_of_square - ops.dagger(image) @ image)))
        worst["linearity"] = np.maximum(worst["linearity"], ops.eq_defect(
            image_mix, alpha * image_a + image_b))
        min_positivity = np.minimum(min_positivity,
                                    np.min(ops.psd_gaps(image_psd)))

        worst["diagonal_invariance"] = np.maximum(
            worst["diagonal_invariance"],
            fields.relativization_invariance_defect(
                fields.RelationalField(system, fr), params.generators()))
        for x in unrestricted:
            lifted = fields.relativize(
                fields.RelationalField(system.with_phi(x), fr))
            squared = fields.relativize(fields.RelationalField(
                system.with_phi(ops.dagger(x) @ x), fr))
            unrestricted_gaps.append(ops.psd_gap(
                squared - ops.dagger(lifted) @ lifted))
    gaps = {"positivity_gap": min_positivity, "order_gap": min_gap}
    if unrestricted_gaps:  # measured only on frames with dim * d <= 64
        gaps["order_gap_unrestricted"] = np.min(unrestricted_gaps)
    return CheckOutcome(
        [Measurement(k, v, cfg.tol("tol_eq")) for k, v in worst.items()]
        + [Measurement(k, float(v), -cfg.tol("tol_psd"), ">=")
           for k, v in gaps.items()],
        {"battery": list(CHANNEL_BATTERY), "draws_per_frame": 20})


# ---------------------------------------------------------------------------
# causality suite

def _spacelike_pairs(params: ModelParams) -> list[tuple]:
    """The origin with each site spacelike to it: one site pair per
    spacelike separation, up to translation."""
    origin = LatticePoint(0, 0)
    row = lattice.spacelike_table(params)[params.site_index(origin)]
    return [(origin, LatticePoint(*divmod(i, params.N)))
            for i in np.flatnonzero(row).tolist()]


def _mirror_pair(params: ModelParams) -> tuple[LatticePoint, LatticePoint]:
    """The sites (1, -1) and (-1, 1), spacelike at every N."""
    return LatticePoint(1, params.N - 1), LatticePoint(params.N - 1, 1)


def _model_detail(params: ModelParams) -> str:
    """The model as the details name it, e.g. "N=5 lifted window=2"."""
    return f"N={params.N} {params.causal_mode} window={params.window}"


def _site_state(params: ModelParams, x) -> np.ndarray:
    d = params.N ** 2
    v = np.zeros(d, dtype=complex)
    v[params.site_index(x)] = 1.0
    return np.outer(v, v.conj())


def _two_site_operator(params: ModelParams, x, y) -> np.ndarray:
    d = params.N ** 2
    i, j = params.site_index(x), params.site_index(y)
    A = np.zeros((d, d), dtype=complex)
    A[i, j] = A[j, i] = 1.0
    return A


def check_microcausality_implication(cfg: ScenarioConfig,
                                     rng: np.random.Generator) -> CheckOutcome:
    """On every battery instance whose relational fields commute at
    spacelike supports, the commutator of the relational observables must
    vanish; instances failing the premise count as vacuous, never as
    counterexamples.  Site instances prepare the origin and each site
    spacelike to it, and the premise sorts the two-site hops on them."""
    params = cfg.model()
    rep = ops.spacetime_representation(params)
    fr = frames.fiber_uniform_spacetime_frame(params)
    d = rep.dim
    tol_supp = cfg.tol("tol_supp")
    spacelike = _spacelike_pairs(params)
    # one preparation per site state, shared by the instances that read it
    site = {x: frames.OrientedFrame(fr, _site_state(params, x), tol_supp)
            for x in dict.fromkeys(sum(spacelike, ()))}
    instances = []
    origin = _site_state(params, (0, 0))
    for a, b in spacelike:
        instances.append(("site-projector", site[a], site[b], origin, origin))
    hop = _two_site_operator(params, (0, 0), (1, 1))
    for a, b in spacelike:
        instances.append(("two-site", site[a], site[b], hop, hop))
    for a, b in spacelike[:4]:
        instances.append(("diagonal", site[a], site[b],
                          np.diag(rng.random(d)).astype(complex),
                          np.diag(rng.random(d)).astype(complex)))
    for a, b in spacelike:
        instances.append(("random-operator", site[a], site[b],
                          ops.random_hermitian(rng, d),
                          ops.random_hermitian(rng, d)))
    for _ in range(4):
        instances.append((
            "random-preparation",
            frames.OrientedFrame(fr, ops.random_state(rng, d), tol_supp),
            frames.OrientedFrame(fr, ops.random_state(rng, d), tol_supp),
            ops.random_hermitian(rng, d), ops.random_hermitian(rng, d)))
    tol = cfg.tol("tol_eq")
    counts: dict = {}
    passing = vacuous = counterexamples = 0
    worst = 0.0
    for kind, of1, of2, phi1, phi2 in instances:
        system = fields.SystemModel(params, rep, phi1)
        pairs, micro = causality.check_r_microcausal(
            system, of1, of2, phi1, phi2, bound=tol)
        if pairs > 0 and Measurement("microcausal", micro, tol).holds:
            causal = causality.check_r_causal(system, of1, of2, phi1, phi2)
            worst = np.maximum(worst, causal)
            if not Measurement("causal_on_passers", causal, tol).holds:
                counterexamples += 1
                counts[kind] = counts.get(kind, 0) - 1
            else:
                passing += 1
                counts[kind] = counts.get(kind, 0) + 1
        else:
            vacuous += 1
    # a counterexample fails the check even when no instance passed, so
    # the premise is that some instance met the microcausality condition
    return CheckOutcome(
        [Measurement("causal_on_passers", worst, tol),
         Measurement("counterexamples", counterexamples, 0, "==")],
        {"instances": len(instances), "premise_passing": passing,
         "vacuous": vacuous, "counterexamples": counterexamples,
         "passing_by_kind": counts, "model": _model_detail(params)},
        premise=passing + counterexamples > 0)


#: The N = 3 model of the product-frame witness and the spectral check.
_WITNESS_MODEL = ModelParams(3, 2)


def _witness_frame() -> tuple[frames.FrameObservable, np.ndarray]:
    """Product frame (sharp position x uniform boost) at N = 3 with a site
    preparation; the product of the site projector with the maximally
    mixed fiber state satisfies the factorization constraints exactly.

    The frame is the orbit of |0><0| (x) 1/|C|, whose orbit sum is already
    the identity, so E(x, lam) = |x><x| (x) 1/|C|."""
    params = _WITNESS_MODEL
    rep = ops.tensor_product_rep(ops.spacetime_representation(params),
                                 ops.lorentz_representation(params))
    n_boosts = len(params.boosts())
    fiber_mixed = np.eye(n_boosts, dtype=complex) / n_boosts
    fr = frames.build_frame(
        rep, ops.tensor(_site_state(params, (0, 0)), fiber_mixed))
    omega = ops.tensor(_site_state(params, (1, 2)), fiber_mixed)
    return fr, omega


def check_intrinsic_causality_pipeline(cfg: ScenarioConfig,
                                       rng: np.random.Generator) -> CheckOutcome:
    """Joint-state feasibility for factorizing pair correlations on the
    bundled product-frame witness, plus the preparation-swap identity for
    the induced relational observables.

    The detail ``pipeline_verdict`` judges the swap identity against
    tol_eq under the three premises of intrinsic causality: spacelike
    preparations, an Einstein-causal frame (no spacelike effect pairs, or
    commutators within tol_eq) and a joint-state certificate."""
    params = _WITNESS_MODEL
    fr, omega = _witness_frame()
    tol, tol_feas = cfg.tol("tol_eq"), cfg.tol("tol_feas")
    system = fields.SystemModel(
        params,
        ops.character_representation(
            params, [LatticePoint(1, 0), LatticePoint(2, 0)]),
        ops.random_operator(rng, 2))
    phi1, phi2 = system.phi, ops.random_operator(rng, 2)
    # equal preparations, which are never spacelike separated
    of1 = of2 = frames.OrientedFrame(fr, omega, cfg.tol("tol_supp"))
    spacelike = causality.r_spacelike(of1, of2)
    pairs, einstein = causality.check_frame_einstein_causal(fr, bound=tol)
    einstein_causal = pairs == 0 or Measurement("einstein", einstein, tol).holds
    joint = causality.find_joint_state(of1, of2, tol_feas)

    # A_k = Phi_wk(phi_k), B_1 = Phi_w2(phi_1), B_2 = Phi_w1(phi_2): one
    # channel per preparation
    rf = fields.RelationalField(system, fr)
    A1, B2 = fields.relativization_channel(rf, of1)(np.array([phi1, phi2]))
    B1, A2 = fields.relativization_channel(rf, of2)(np.array([phi1, phi2]))
    swap = ops.op_norm(A1 @ A2 - B1 @ B2)
    # the intrinsic-causality conclusion, under its three premises
    pipeline = verdict([Measurement("intrinsic-causality", swap, tol)],
                       spacelike and einstein_causal and joint.converged)
    return CheckOutcome(
        [Measurement("joint_feasibility", joint.residual, tol_feas),
         Measurement("preparation_swap", swap, SWAP_TOL)],
        {"frame_dim": fr.dim, "model": "N=3",
         "einstein_causal": bool(einstein_causal),
         "pipeline_verdict": pipeline},
        certified=joint.converged)


# ---------------------------------------------------------------------------
# correlator suite

def _two_point_spec(cfg: ScenarioConfig, fr: frames.FrameObservable,
                    rng: np.random.Generator) -> wightman.VevSpec:
    """Two factors of a drawn state, prepared on fr, and a drawn operator."""
    return wightman.VevSpec(tuple(
        (frames.OrientedFrame(fr, ops.random_state(rng, fr.dim), cfg.tol("tol_supp")),
         ops.random_operator(rng, fr.dim)) for _ in range(2)))


def _wightman_stage(cfg: ScenarioConfig, rng: np.random.Generator):
    params = cfg.model()
    rep = ops.spacetime_representation(params)
    vacuum = wightman.VacuumModel.pure(
        rep, np.ones(rep.dim, dtype=complex) / params.N)
    fr = frames.fiber_uniform_spacetime_frame(params)
    return params, rep, vacuum, fr, _two_point_spec(cfg, fr, rng)


def check_wightman_suite(cfg: ScenarioConfig,
                         rng: np.random.Generator) -> CheckOutcome:
    """Two-point correlator laws on the sharp-position stage:
    Hermiticity, Gram positivity, invariance under simultaneous preparation
    shifts with the kernel shift law, premise-gated commutativity swaps,
    the step-weighted split of the time-ordered product, and the
    reconstruction of the vev from the kernel and the smearing functions,
    there and on a smeared spacetime frame."""
    params, rep, vacuum, fr, spec = _wightman_stage(cfg, rng)
    tol = cfg.tol("tol_eq")
    tol_supp = cfg.tol("tol_supp")
    kernels = wightman.KernelArrays(vacuum, fr)
    measurements = [Measurement(
        "hermiticity", wightman.hermiticity_check(kernels, spec), EXACT_TOL)]
    families = [_two_point_spec(cfg, fr, rng) for _ in range(3)]
    measurements.append(Measurement(
        "gram_gap", ops.psd_gap(wightman.gram_matrix(vacuum, families)),
        -GRAM_TOL, ">="))

    base_value = wightman.vev(vacuum, spec)
    base_kernel = kernels(spec)
    rows = lattice.site_action_table(params)
    worst_shift = worst_kernel = 0.0
    for g in params.generators():
        shifted_spec = wightman.VevSpec(tuple(
            (frames.OrientedFrame(fr, _right_shift(rep, g, of.omega), tol_supp),
             phi) for of, phi in spec.factors))
        worst_shift = np.maximum(worst_shift, abs(
            wightman.vev(vacuum, shifted_spec) - base_value))
        # W_shifted(x1, x2) = W(g x1, g x2) at every point pair
        row = rows[params.frame_index(g)]
        worst_kernel = np.maximum(worst_kernel, np.max(np.abs(
            kernels(shifted_spec) - base_kernel[np.ix_(row, row)])))
    measurements += [Measurement("preparation_shift", worst_shift, tol),
                     Measurement("kernel_shift", worst_kernel, tol)]

    a, b = _mirror_pair(params)
    of1, of2 = (frames.OrientedFrame(fr, _site_state(params, x), tol_supp)
                for x in (a, b))
    local_phi = _site_state(params, (0, 0))
    system = fields.SystemModel(params, rep, local_phi)
    pairs, micro = causality.check_r_microcausal(system, of1, of2, bound=tol)
    premise = bool(
        pairs > 0 and Measurement("microcausal", micro, tol).holds
        and causality.r_spacelike(of1, of2)
        and Measurement("causal", causality.check_r_causal(
            system, of1, of2, bound=tol), tol).holds)
    swap_spec = wightman.VevSpec(((of1, local_phi), (of2, local_phi)))
    # a requirement, not a premise: without it the swaps certify nothing,
    # so the check fails rather than turning vacuous
    measurements += [
        Measurement("swap_premise", premise, True, "=="),
        Measurement("commutativity_swap", abs(
            wightman.vev(vacuum, swap_spec)
            - wightman.vev(vacuum, swap_spec.swapped(0))), tol),
        Measurement("kernel_swap", wightman.kernel_swap_residual(
            kernels, swap_spec, (a, b), 0), tol)]

    x1, x2 = LatticePoint(1, 1), LatticePoint(0, 0)
    ordered, coincident = wightman.time_ordered_detailed(
        kernels, spec, (x1, x2))
    t1 = lattice.time_coordinate(x1, params)
    t2 = lattice.time_coordinate(x2, params)
    split = (wightman.theta(t1 - t2)
             * wightman.kernel(kernels, spec, (x1, x2))
             + wightman.theta(t2 - t1)
             * wightman.kernel(kernels, spec.swapped(0), (x2, x1)))
    measurements.append(
        Measurement("time_ordered_split", abs(ordered - split), tol))

    # sum_x1,x2 W(x1, x2) mu1(x1) mu2(x2) = vev on the stage and on a
    # smeared frame, whose seed is the check's last draw, with the spec's
    # states prepared on it
    smeared = smeared_frame(rep, rng, 0.35)
    smeared_spec = wightman.VevSpec(tuple(
        (frames.OrientedFrame(smeared, of.omega, tol_supp), phi)
        for of, phi in spec.factors))
    measurements.append(Measurement("smearing_reconstruction", np.max([
        wightman.kernel_reconstruction_defect(kernels, spec),
        wightman.kernel_reconstruction_defect(
            wightman.KernelArrays(vacuum, smeared), smeared_spec)]), tol))
    return CheckOutcome(
        measurements,
        {"model": _model_detail(params), "swap_premise": premise,
         "coincident_times": bool(coincident),
         "times": [int(t1), int(t2)], "gram_families": 3})


def check_spectral_condition(cfg: ScenarioConfig,
                             rng: np.random.Generator) -> CheckOutcome:
    """Fourier transform of the two-point difference kernel vanishes off
    the character support of the system's translation action, on a
    three-dimensional system carrying the trivial character plus one boost
    orbit; cross-checked against a directly summed transform."""
    params = _WITNESS_MODEL
    rep = ops.direct_sum_rep([
        ops.trivial_representation(params),
        ops.character_representation(
            params, [LatticePoint(1, 0), LatticePoint(2, 0)])])
    vacuum_vec = np.zeros(rep.dim, dtype=complex)
    vacuum_vec[0] = 1.0
    vacuum = wightman.VacuumModel.pure(rep, vacuum_vec)
    fr, _ = _witness_frame()
    n_sites = params.N ** 2
    n_boosts = len(params.boosts())
    tol_eq, tol_supp = cfg.tol("tol_eq"), cfg.tol("tol_supp")
    mixed = frames.OrientedFrame(fr, ops.tensor(
        np.eye(n_sites, dtype=complex) / n_sites,
        np.eye(n_boosts, dtype=complex) / n_boosts), tol_supp)
    spec = wightman.VevSpec((
        (mixed, ops.random_operator(rng, rep.dim)),
        (mixed, ops.random_operator(rng, rep.dim))))
    report = wightman.spectral_check(vacuum, spec, tol_eq)
    # the direct transform, with the e^{+2 pi i q.xi / N} pairing of ifftn
    N = params.N
    sites = np.array(params.lattice_points())
    pairing = np.exp(2j * np.pi * (sites @ sites.T) / N) / N ** 2
    direct = pairing @ report.kernel.reshape(-1)
    oracle_worst = float(np.max(np.abs(direct - report.table.reshape(-1))))
    return CheckOutcome(
        [Measurement("outside_support", report.max_leak, cfg.tol("tol_dft")),
         Measurement("oracle_mismatch", oracle_worst, cfg.tol("tol_dft"))],
        {"support_size": len(report.support),
         "outside_points": params.N ** 2 - len(report.support),
         "on_support_max": report.max_on_support, "model": "N=3"},
        premise=not report.vacuous)


# ---------------------------------------------------------------------------
# vacuum suite

def check_vacuum_orthogonality(cfg: ScenarioConfig,
                               rng: np.random.Generator) -> CheckOutcome:
    """Born weight of a fixed singleton under invariant preparations decays
    exactly as 1/N^2 across growing lattices, and a frame carried by the
    complement of the translation-fixed subspace annihilates it outright."""
    rows = frames.vacuum_weight_scan()
    weight_error = np.max([abs(w - 1.0 / (N * N)) for N, w in rows])
    monotone = all(rows[i][1] > rows[i + 1][1] for i in range(len(rows) - 1))

    # In the momentum basis the regular representation is the character
    # representation on all N^2 momenta tensored with the Lorentz one, and
    # p = 0 carries its translation-fixed vectors: dropping p = 0 leaves
    # the complement of the fixed subspace.
    params = cfg.model()
    reduced = ops.tensor_product_rep(
        ops.character_representation(params, params.lattice_points()[1:]),
        ops.lorentz_representation(params))
    strict = frames.strict_vacuum_orthogonality_check(
        frames.uniform_frame(reduced))
    return CheckOutcome(
        [Measurement("weight_error", weight_error, EXACT_TOL),
         Measurement("monotone", monotone, True, "=="),
         Measurement("strict_residual", strict.residual, 0.0, "=="),
         Measurement("fixed_space_dim", strict.fixed_space_dim, 0, "==")],
        {"weights": {str(N): w for N, w in rows}, "monotone": monotone,
         "complement_dim": reduced.dim,
         "fixed_space_dim": strict.fixed_space_dim})


def check_vacuum_polarization(cfg: ScenarioConfig,
                              rng: np.random.Generator) -> CheckOutcome:
    """The state-shifting dual of restricted relativization fixes every
    invariant system state; composing the frame with a channel re-weights
    Born measures exactly as shifting the preparation by its dual."""
    params = cfg.model()
    system = build_system(cfg, rng)
    invariant = np.eye(system.dim, dtype=complex) / system.dim
    worst_fixed = 0.0
    for name in cfg.frames:
        fr = FRAME_BUILDERS[name](params, rng)
        omega = ops.random_state(rng, fr.dim)
        rf = fields.RelationalField(system, fr)
        worst_fixed = np.maximum(worst_fixed, ops.eq_defect(
            fields.predual_polarization(rf, omega, invariant), invariant))
        del fr, rf  # free this frame before the next

    fr = smeared_frame(ops.lorentz_representation(params), rng, 0.4)
    rf = fields.RelationalField(system, fr)
    prepared = frames.OrientedFrame(fr, ops.random_state(rng, fr.dim))
    rho = ops.random_state(rng, system.dim)
    polarized = fields.predual_polarization(rf, prepared, rho)
    phi = np.array([ops.random_operator(rng, system.dim) for _ in range(10)])
    observables = fields.relativization_channel(rf, prepared)(phi)
    worst_duality = np.max(np.abs(
        np.trace(rho @ observables, axis1=1, axis2=2)
        - np.trace(polarized @ phi, axis1=1, axis2=2)))

    worst_transform = 0.0
    for _ in range(5):
        psi = frames.random_mixed_unitary_channel(rng, fr.dim)
        composed = frames.channel_compose(psi, fr)
        state = ops.random_state(rng, fr.dim)
        moved = frames.OrientedFrame(fr, psi.predual_apply(state)).measure
        # Tr[state psi(E(f))] at every frame point
        direct = (composed.reshape(len(composed), -1) @ state.T.reshape(-1)).real
        worst_transform = np.maximum(worst_transform, np.max(np.abs(
            direct - moved.weights)))
    tol = cfg.tol("tol_eq")
    return CheckOutcome(
        [Measurement("fixed_point", worst_fixed, EXACT_TOL),
         Measurement("predual_duality", worst_duality, tol),
         Measurement("frame_transform", worst_transform, tol)],
        {"frames": list(cfg.frames), "channels": 5})


# ---------------------------------------------------------------------------
# net suite

def _net_regions(params: ModelParams) -> list[frozenset]:
    """With w = (N - 1) // 2: the empty region, the site (1, 1), the Cauchy
    slice {(u, w - u)}, the tips (0, 0) and (w, w), and the diamond, their
    causal hull."""
    w = (params.N - 1) // 2
    tips = frozenset({LatticePoint(0, 0), LatticePoint(w, w)})
    return [frozenset(), frozenset({LatticePoint(1, 1)}),
            frozenset(LatticePoint(u, w - u) for u in range(w + 1)), tips,
            lattice.causal_hull(tips, params)]


def check_net_axioms(cfg: ScenarioConfig,
                     rng: np.random.Generator) -> CheckOutcome:
    """Isotony, covariance, and causality for the intrinsic local net of a
    sharp-position frame with a site generator, plus isotony, causality,
    and the time-slice property for its hull-completed variant."""
    params = cfg.model()
    rep = ops.spacetime_representation(params)
    system = fields.SystemModel(params, rep, _site_state(params, (0, 0)))
    fr = frames.fiber_uniform_spacetime_frame(params)
    system_ops = [system.phi]
    regions = _net_regions(params)
    pair = tuple(frozenset({x}) for x in _mirror_pair(params))
    sample = _group_sample(params, rng,
                           extra=max(0, 10 - len(params.generators())))

    tol = cfg.tol("tol_eq")
    tol_supp = cfg.tol("tol_supp")
    intrinsic = net.LocalAlgebraNet(fr, system, system_ops)
    intrinsic_report = net.verify_net_axioms(
        intrinsic, regions, sample, spacelike_pairs=[pair], tol_eq=tol,
        tol_supp=tol_supp)

    deterministic = net.LocalAlgebraNet(fr, system, system_ops,
                                        deterministic=True,
                                        algebras=intrinsic.algebras,
                                        premises=intrinsic.premises)
    deterministic_report = net.verify_net_axioms(
        deterministic, regions, [], spacelike_pairs=[pair], tol_eq=tol,
        tol_supp=tol_supp)

    # An axiom is verified when it was checked on at least one pair and its
    # residual is within tol_eq.  Two axioms are vacuous by construction,
    # with residual 0.0: the intrinsic net has no time-slice pairs, the
    # deterministic one no group sample.
    vacuous = ("intrinsic_time_slice", "deterministic_covariance")
    measurements, pairs, verdicts = [], [], {}
    for label, report in (("intrinsic", intrinsic_report),
                          ("deterministic", deterministic_report)):
        for axiom, axiom_report in report.axioms.items():
            key = f"{label}_{axiom.replace('-', '_')}"
            measurements.append(Measurement(key, axiom_report.max_residual, tol))
            if key not in vacuous:
                pairs.append(Measurement(f"{key}_pairs",
                                         axiom_report.pairs_checked, 1, ">="))
            verdicts[key] = axiom_report.verdict
    dims = {str(sorted((p.u, p.v) for p in region)):
            intrinsic.algebra(region).algebra.subspace_dim
            for region in regions}
    return CheckOutcome(
        measurements + pairs,
        {"verdicts": verdicts, "algebra_dims": dims,
         "group_sample": len(sample), "model": _model_detail(params)})


# ---------------------------------------------------------------------------
# irreducibility suite

def check_irreducibility(cfg: ScenarioConfig,
                         rng: np.random.Generator) -> CheckOutcome:
    """Commutant triviality of the trace-class field span for a generic
    generator on the sharp-position frame, the full-size commutant for the
    identity generator, and cyclicity of a reference vector whenever the
    span is irreducible.

    The premise is a system of dimension above one: every algebra on C^1
    is irreducible, so there the identity span cannot be reducible and
    the check is vacuous."""
    params = cfg.model()
    system = build_system(cfg, rng)
    fr = frames.fiber_uniform_spacetime_frame(params)
    reference = np.ones(system.dim, dtype=complex)
    reference /= np.linalg.norm(reference)
    generic = wightman.irreducibility_check(
        fields.RelationalField(system, fr), vacuum_vector=reference)
    trivial = wightman.irreducibility_check(
        fields.RelationalField(
            system.with_phi(np.eye(system.dim, dtype=complex)), fr),
        vacuum_vector=reference)
    full = system.dim ** 2
    # implied, so not measured: generic.irreducible is commutant_dim == 1
    return CheckOutcome(
        [Measurement("commutant_excess", float(generic.commutant_dim - 1),
                     0.0, "=="),
         Measurement("identity_commutant_defect",
                     float(abs(trivial.commutant_dim - full)), 0.0, "=="),
         Measurement("generates_full", generic.generates_full, True, "=="),
         Measurement("cyclic", generic.cyclic, True, "=="),
         Measurement("identity_irreducible", trivial.irreducible, False, "==")],
        {"span_dim": generic.span_dim,
         "bicommutant_dim": generic.bicommutant_dim,
         "cyclic_rank": generic.cyclic_rank,
         "identity_commutant_dim": trivial.commutant_dim,
         "system_dim": system.dim},
        premise=system.dim > 1)


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class CheckDef:
    anchor: str
    suite: str
    summary: str
    fn: object


CHECKS: dict = {
    "relational-covariance": CheckDef(
        "observable-covariance-law", "covariance",
        "system conjugation of relational observables equals frame-state shift",
        check_relational_covariance),
    "field-transformation": CheckDef(
        "field-transformation-law", "covariance",
        "pointwise field transport and marginal-weighted reconstruction",
        check_field_transformation),
    "disintegration-covariance": CheckDef(
        "conditional-covariance-law", "covariance",
        "fiber conditionals transport along the group action",
        check_disintegration_covariance),
    "restriction-duality": CheckDef(
        "restriction-duality-law", "covariance",
        "trace duality and product rule of conditioned partial trace",
        check_restriction_duality),
    "channel-laws": CheckDef(
        "relativization-channel-laws", "channels",
        "unitality, adjoints, positivity, contraction, two-positivity gaps",
        check_channel_laws),
    "microcausality-implication": CheckDef(
        "microcausality-implies-causality", "causality",
        "commuting fields at spacelike supports force commuting observables",
        check_microcausality_implication),
    "intrinsic-causality-pipeline": CheckDef(
        "intrinsic-causality-certificate", "causality",
        "joint-state feasibility certificate and preparation-swap identity",
        check_intrinsic_causality_pipeline),
    "wightman-suite": CheckDef(
        "vacuum-correlator-laws", "wightman",
        "hermiticity, positivity, shifts, swaps, time-ordered split, reconstruction",
        check_wightman_suite),
    "spectral-condition": CheckDef(
        "translation-spectrum-support", "wightman",
        "difference-kernel transform vanishes off the character support",
        check_spectral_condition),
    "vacuum-orthogonality": CheckDef(
        "vacuum-weight-scaling", "vacuum",
        "singleton Born weight scales as 1/N^2; orthogonal frame annihilates",
        check_vacuum_orthogonality),
    "vacuum-polarization": CheckDef(
        "vacuum-polarization-fixed-point", "vacuum",
        "invariant states are fixed; frame transforms dualize to state shifts",
        check_vacuum_polarization),
    "net-axioms": CheckDef(
        "local-net-axioms", "net",
        "isotony, covariance, causality, time-slice for bundled local nets",
        check_net_axioms),
    "irreducibility": CheckDef(
        "field-algebra-irreducibility", "irreducibility",
        "trace-class field span has trivial commutant and cyclic reference",
        check_irreducibility),
}

#: Suite name -> its checks in registry order; "all" runs every check.
SUITES: dict = {
    suite: tuple(name for name, check in CHECKS.items() if check.suite == suite)
    for suite in dict.fromkeys(check.suite for check in CHECKS.values())}
SUITES["all"] = tuple(CHECKS)
