//! Gate-plan compilation for the compact engine.
//!
//! A Choco-Q variational loop replays one circuit *shape* — the same gate
//! sequence with different angles — hundreds of times. The support
//! trajectory of those replays depends only on the circuit's
//! **structure** (masks, patterns, polynomial identities), never on its
//! angles. [`GatePlan::compile`] walks that structure once:
//!
//! 1. a forward pass starts at the basis state the circuit's leading `X`
//!    gates load and grows the support gate by gate (pair partners are
//!    materialized, phases never grow support), producing the final
//!    basis `F` (sorted): every state reachable from the loaded one, which
//!    for a commute-driver circuit is inside the feasible set (Fig. 9),
//! 2. every gate is lowered to a [`PlanStep`] of precomputed rank tables
//!    into `F` — scatter/gather pair lists, subspace rank lists, and a
//!    deduplicated value table for each diagonal polynomial,
//! 3. every distinct diagonal polynomial of the shape is evaluated once
//!    at each rank of `F` ([`PlanBasis`]), so expectations of the cost
//!    the circuit evolves under never re-evaluate it or need a `2^n`
//!    table.
//!
//! Replay ([`GatePlan::execute`]) is the compact engine's one replay
//! path. It walks K same-shape circuits in lockstep with the steps,
//! reading angles/matrices from the gates and ranks from the plan, over a
//! rank-major amplitude buffer `amps[rank·K + lane]`. A serial run is the
//! K = 1 case of the same [`crate::CompactStateVector`] buffer. The
//! loops are cache-friendly strided passes threaded through
//! [`SimConfig::effective_threads`], with zero map operations and no
//! allocations once the [`BatchScratch`] buffers are warm. Every lane's
//! arithmetic mirrors the dense engine's kernels operand for operand, so
//! the two stay bit-identical — the dense engine's slots outside `F` hold
//! exact zeros, and so do structurally-supported slots of `F` that a
//! replay never reaches; both contribute exact IEEE no-ops to every
//! kernel. A per-step hook on the replay makes it the Figure 9(b)
//! support walk too ([`crate::SimWorkspace::support_profile`]).
//!
//! Compilation *fails over* instead of compiling pathological shapes:
//! once the structural support crosses [`crate::DENSITY_THRESHOLD`] of
//! the register, [`PlanError`] is returned and [`crate::SimWorkspace`]
//! runs the circuit on the dense engine instead.

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::kernels::{dispatch, AmpPtr};
use crate::phasepoly::PhasePoly;
use crate::simconfig::SimConfig;
use choco_mathkit::Complex64;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Why a circuit shape could not be compiled into a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum PlanError {
    /// Structural support crossed the caller's occupancy cap — the shape
    /// is not subspace-confined enough for the compact engine to win.
    TooDense {
        /// Support size when the cap was crossed.
        support: usize,
    },
}

/// One gate of a circuit shape, with everything angle-like erased.
///
/// Two circuits share a plan iff their atom sequences match: same gate
/// kinds on the same qubits/masks, the same `Arc<PhasePoly>` identities
/// for diagonal evolutions, and the same frozen matrices for synthesized
/// controlled-unitaries. Angles are deliberately excluded — they are what
/// the optimizer varies between replays.
#[derive(Clone, Debug)]
enum ShapeAtom {
    /// Any gate fully described by its discriminant and up to three
    /// qubit/mask words (1q gates, CX/CZ/CP/Swap/CCX, MCX, MCPhase,
    /// XY-mixer; UBlock as `(support_mask, v_mask)`).
    Masks(u8, u64, u64, u64),
    /// A diagonal evolution, identified by its polynomial allocation.
    Diag(Weak<PhasePoly>),
    /// A controlled unitary with its matrix frozen into the shape (these
    /// come from synthesis, not from the optimizer).
    CtrlU(u64, u64, [u64; 8]),
    /// A generalized commute block: `(support_mask, v_mask)` plus the
    /// frozen register shifts `(register_mask, delta, max_value)` — the
    /// pairing structure depends on all of them (register qubits are
    /// strictly increasing, so the mask determines the value order).
    Shift(u64, u64, Vec<(u64, i64, u64)>),
}

/// The angle-erased structure of a circuit (see [`ShapeAtom`]).
#[derive(Clone, Debug)]
pub(crate) struct CircuitShape {
    n_qubits: usize,
    atoms: Vec<ShapeAtom>,
}

/// Stable discriminant for [`ShapeAtom::Masks`].
fn gate_tag(gate: &Gate) -> u8 {
    match gate {
        Gate::H(_) => 0,
        Gate::X(_) => 1,
        Gate::Y(_) => 2,
        Gate::Z(_) => 3,
        Gate::S(_) => 4,
        Gate::Sdg(_) => 5,
        Gate::T(_) => 6,
        Gate::Tdg(_) => 7,
        Gate::Rx(..) => 8,
        Gate::Ry(..) => 9,
        Gate::Rz(..) => 10,
        Gate::Phase(..) => 11,
        Gate::Cx(..) => 12,
        Gate::Cz(..) => 13,
        Gate::Cp(..) => 14,
        Gate::Swap(..) => 15,
        Gate::Ccx(..) => 16,
        Gate::Mcx { .. } => 17,
        Gate::McPhase { .. } => 18,
        Gate::ControlledU { .. } => 19,
        Gate::UBlock(_) => 20,
        Gate::XyMix(..) => 21,
        Gate::DiagPhase(..) => 22,
        Gate::ShiftBlock(_) => 23,
    }
}

fn mask_of(qubits: &[usize]) -> u64 {
    qubits.iter().fold(0u64, |m, &q| m | (1 << q))
}

fn shape_atom(gate: &Gate) -> ShapeAtom {
    let tag = gate_tag(gate);
    match gate {
        Gate::DiagPhase(poly, _) => ShapeAtom::Diag(Arc::downgrade(poly)),
        Gate::ControlledU {
            controls,
            target,
            matrix,
        } => {
            let mut bits = [0u64; 8];
            for (slot, c) in bits.chunks_mut(2).zip(matrix.iter().flatten()) {
                slot[0] = c.re.to_bits();
                slot[1] = c.im.to_bits();
            }
            ShapeAtom::CtrlU(mask_of(controls), 1u64 << target, bits)
        }
        Gate::UBlock(b) => {
            let mut full = 0u64;
            let mut v = 0u64;
            for (k, &q) in b.support.iter().enumerate() {
                full |= 1 << q;
                if (b.pattern >> k) & 1 == 1 {
                    v |= 1 << q;
                }
            }
            ShapeAtom::Masks(tag, full, v, 0)
        }
        Gate::ShiftBlock(b) => ShapeAtom::Shift(
            b.full_mask(),
            b.pattern_abs(),
            b.shifts
                .iter()
                .map(|s| (s.mask(), s.delta, s.max_value))
                .collect(),
        ),
        Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Cp(a, b, _) | Gate::Swap(a, b) => {
            ShapeAtom::Masks(tag, 1u64 << a, 1u64 << b, 0)
        }
        Gate::Ccx(c1, c2, t) => ShapeAtom::Masks(tag, (1u64 << c1) | (1u64 << c2), 1u64 << t, 0),
        Gate::Mcx { controls, target } => {
            ShapeAtom::Masks(tag, mask_of(controls), 1u64 << target, 0)
        }
        Gate::McPhase { qubits, .. } => ShapeAtom::Masks(tag, mask_of(qubits), 0, 0),
        Gate::XyMix(a, b, _) => ShapeAtom::Masks(tag, 1u64 << a, 1u64 << b, 0),
        g1q => ShapeAtom::Masks(tag, 1u64 << g1q.qubits()[0], 0, 0),
    }
}

fn atom_matches(atom: &ShapeAtom, gate: &Gate) -> bool {
    match (atom, gate) {
        (ShapeAtom::Diag(weak), Gate::DiagPhase(poly, _)) => {
            weak.upgrade().is_some_and(|live| Arc::ptr_eq(&live, poly))
        }
        (ShapeAtom::Diag(_), _) | (_, Gate::DiagPhase(..)) => false,
        (atom, gate) => match (atom, shape_atom(gate)) {
            (ShapeAtom::Masks(t0, a0, b0, c0), ShapeAtom::Masks(t1, a1, b1, c1)) => {
                (*t0, *a0, *b0, *c0) == (t1, a1, b1, c1)
            }
            (ShapeAtom::CtrlU(c0, t0, m0), ShapeAtom::CtrlU(c1, t1, m1)) => {
                (*c0, *t0, *m0) == (c1, t1, m1)
            }
            (ShapeAtom::Shift(f0, v0, s0), ShapeAtom::Shift(f1, v1, s1)) => {
                (*f0, *v0) == (f1, v1) && *s0 == s1
            }
            _ => false,
        },
    }
}

impl CircuitShape {
    /// The shape of a circuit.
    pub(crate) fn of(circuit: &Circuit) -> CircuitShape {
        CircuitShape {
            n_qubits: circuit.n_qubits(),
            atoms: circuit.iter().map(shape_atom).collect(),
        }
    }

    /// `true` when `circuit` has exactly this structure (angles may
    /// differ). Dead diagonal-polynomial weaks never match, so a plan can
    /// never be replayed against a recycled allocation.
    pub(crate) fn matches(&self, circuit: &Circuit) -> bool {
        self.n_qubits == circuit.n_qubits()
            && self.atoms.len() == circuit.len()
            && self
                .atoms
                .iter()
                .zip(circuit.iter())
                .all(|(atom, gate)| atom_matches(atom, gate))
    }

    /// `true` while every diagonal polynomial this shape references is
    /// still alive (dead shapes can never match again and should be
    /// evicted from caches).
    pub(crate) fn is_live(&self) -> bool {
        self.atoms.iter().all(|a| match a {
            ShapeAtom::Diag(weak) => weak.strong_count() > 0,
            _ => true,
        })
    }
}

/// The structural class a gate compiles to (see [`step_spec`]).
enum StepSpec {
    /// Degenerate gate (target among its own controls, `swap(q, q)`).
    Noop,
    /// Phase multiplication on `index & mask == value` (the phase factor
    /// itself comes from the gate at replay time).
    Phase { mask: u64, value: u64 },
    /// A diagonal 2×2 on `target` under `controls`: two independent
    /// subspace scalings.
    DiagPair { controls: u64, target: u64 },
    /// A pair kernel: `(i, i ^ xor)` for `i & fixed == value`.
    Pairs { fixed: u64, value: u64, xor: u64 },
    /// A register-gated pair kernel (generalized commute block): the
    /// partner map comes from the gate's [`crate::gate::ShiftBlock`] at
    /// compile time.
    GatedPairs,
    /// A diagonal polynomial evolution.
    DiagPoly,
}

/// Maps a gate to its structural class — the same dispatch table as
/// [`crate::StateVector::apply_gate`], but resolved by gate *kind*
/// so the classification is stable under angle changes: `Rz(0)` still
/// compiles as a diagonal, `Rx(0)` still compiles as a general pair
/// (replay applies the identity matrix through the pair expressions,
/// which is an exact IEEE no-op on the amplitudes).
fn step_spec(gate: &Gate) -> StepSpec {
    let pair_1q = |q: usize| StepSpec::Pairs {
        fixed: 1u64 << q,
        value: 0,
        xor: 1u64 << q,
    };
    let diag_1q = |q: usize| StepSpec::DiagPair {
        controls: 0,
        target: 1u64 << q,
    };
    let mcx = |controls: u64, target: usize| {
        let t = 1u64 << target;
        if controls & t != 0 {
            StepSpec::Noop
        } else {
            StepSpec::Pairs {
                fixed: controls | t,
                value: controls,
                xor: t,
            }
        }
    };
    match gate {
        Gate::Cx(c, t) => mcx(1u64 << c, *t),
        Gate::Ccx(c1, c2, t) => mcx((1u64 << c1) | (1u64 << c2), *t),
        Gate::Mcx { controls, target } => mcx(mask_of(controls), *target),
        Gate::Cz(a, b) | Gate::Cp(a, b, _) => {
            let mask = (1u64 << a) | (1u64 << b);
            StepSpec::Phase { mask, value: mask }
        }
        Gate::McPhase { qubits, .. } => {
            let mask = mask_of(qubits);
            StepSpec::Phase { mask, value: mask }
        }
        Gate::Swap(a, b) => {
            if a == b {
                StepSpec::Noop
            } else {
                let (ma, mb) = (1u64 << a, 1u64 << b);
                StepSpec::Pairs {
                    fixed: ma | mb,
                    value: ma,
                    xor: ma | mb,
                }
            }
        }
        Gate::ControlledU {
            controls,
            target,
            matrix,
        } => {
            let mask = mask_of(controls);
            let t = 1u64 << target;
            if mask & t != 0 {
                return StepSpec::Noop;
            }
            // Frozen matrix (part of the shape key): classify by value,
            // exactly like the dense dispatch.
            if matrix[0][1] == Complex64::ZERO && matrix[1][0] == Complex64::ZERO {
                StepSpec::DiagPair {
                    controls: mask,
                    target: t,
                }
            } else {
                StepSpec::Pairs {
                    fixed: mask | t,
                    value: mask,
                    xor: t,
                }
            }
        }
        Gate::UBlock(b) => {
            let ShapeAtom::Masks(_, full, v, _) = shape_atom(gate) else {
                unreachable!("ublock shapes as masks");
            };
            if b.support.is_empty() {
                // Empty support: a global phase e^{-iθ} on every entry.
                StepSpec::Phase { mask: 0, value: 0 }
            } else {
                StepSpec::Pairs {
                    fixed: full,
                    value: v,
                    xor: full,
                }
            }
        }
        Gate::ShiftBlock(b) => {
            if b.shifts.is_empty() {
                // No registers: exactly the UBlock pair step (or the
                // empty-support global phase).
                if b.support.is_empty() {
                    StepSpec::Phase { mask: 0, value: 0 }
                } else {
                    let full = b.full_mask();
                    StepSpec::Pairs {
                        fixed: full,
                        value: b.pattern_abs(),
                        xor: full,
                    }
                }
            } else {
                StepSpec::GatedPairs
            }
        }
        Gate::XyMix(a, b, _) => {
            let full = (1u64 << a) | (1u64 << b);
            StepSpec::Pairs {
                fixed: full,
                value: 1u64 << a,
                xor: full,
            }
        }
        Gate::DiagPhase(..) => StepSpec::DiagPoly,
        // 1q gates, by kind: Z/S/Sdg/T/Tdg/Rz/Phase are diagonal for
        // every angle; H/X/Y/Rx/Ry couple the pair for (almost) every
        // angle and are compiled as pairs unconditionally.
        Gate::Z(q) | Gate::S(q) | Gate::Sdg(q) | Gate::T(q) | Gate::Tdg(q) => diag_1q(*q),
        Gate::Rz(q, _) | Gate::Phase(q, _) => diag_1q(*q),
        Gate::H(q) | Gate::X(q) | Gate::Y(q) => pair_1q(*q),
        Gate::Rx(q, _) | Gate::Ry(q, _) => pair_1q(*q),
    }
}

/// One compiled gate: the precomputed rank tables its replay needs.
#[derive(Debug)]
enum PlanStep {
    /// Degenerate gate: nothing to do.
    Noop,
    /// Multiply `amps[rank]` for every listed rank by a gate-derived
    /// phase factor.
    Phase { ranks: Vec<u32> },
    /// A diagonal 2×2: `ranks0` (target bit 0, controls satisfied) scaled
    /// by `m[0][0]`, `ranks1` (target bit 1) by `m[1][1]`.
    DiagPair { ranks0: Vec<u32>, ranks1: Vec<u32> },
    /// Disjoint rank pairs `(i, j)` for the pair kernels; the 2×2
    /// arithmetic comes from the gate at replay time.
    Pairs { pairs: Vec<[u32; 2]> },
    /// Diagonal polynomial over the ranks where it is non-zero, baked at
    /// compile time (the polynomial never changes under a stable shape —
    /// only the angle θ does). `distinct` / `value_idx` are the
    /// bit-deduplicated value table and each rank's index into it:
    /// structured cost polynomials repeat the same sum over many feasible
    /// states, so replay computes `e^{-iθ·f}` once per *distinct* `f` per
    /// lane instead of once per rank — bit-identical to a per-rank
    /// evaluation, because equal `f` bits give an equal `-θ·f` product
    /// and therefore equal `cis` bits.
    DiagPoly {
        ranks: Vec<u32>,
        distinct: Vec<f64>,
        value_idx: Vec<u32>,
    },
}

/// Interim step representation during compilation: basis-index (`u64`)
/// lists, converted to ranks once the final basis is known.
enum BitsStep {
    Noop,
    Phase(Vec<u64>),
    DiagPair(Vec<u64>, Vec<u64>),
    Pairs(Vec<[u64; 2]>),
    DiagPoly(Vec<u64>, Vec<f64>, Vec<u32>),
}

/// The sorted feasible basis `F` a plan's ranks index into, with every
/// diagonal polynomial of the shape evaluated at each rank. Shared
/// (`Arc`) by the plan and every state replayed from it, so a compact
/// read of the cost the shape already evolves under takes these values
/// instead of re-evaluating the polynomial per occupied rank.
#[derive(Debug, Default)]
pub(crate) struct PlanBasis {
    /// `bits[rank]` is the basis state of `rank`.
    pub(crate) bits: Vec<u64>,
    /// The rank a replay starts at: the basis state the circuit's leading
    /// `X` gates load (`|0…0⟩` when it has none).
    pub(crate) start: usize,
    /// One entry per distinct `DiagPhase` polynomial of the shape: the
    /// polynomial, held weakly as [`CircuitShape`] holds it, and
    /// [`PhasePoly::eval_bits`] of every rank's basis state.
    poly_values: Vec<(Weak<PhasePoly>, Vec<f64>)>,
}

impl PlanBasis {
    /// The per-rank values of `poly` when it is one of the shape's own
    /// polynomials, by pointer identity (the weak keeps the allocation,
    /// so no other polynomial can live at its address); `None` for any
    /// other polynomial.
    pub(crate) fn values_of(&self, poly: &PhasePoly) -> Option<&[f64]> {
        self.poly_values
            .iter()
            .find(|(weak, _)| std::ptr::eq(weak.as_ptr(), poly))
            .map(|(_, values)| values.as_slice())
    }
}

/// A compiled circuit shape: the feasible basis and one [`PlanStep`] per
/// gate. Owned (and cached across optimizer iterations) by
/// [`crate::SimWorkspace`].
#[derive(Debug)]
pub(crate) struct GatePlan {
    shape: CircuitShape,
    basis: Arc<PlanBasis>,
    steps: Vec<PlanStep>,
}

impl GatePlan {
    /// The shape this plan was compiled from.
    pub(crate) fn shape(&self) -> &CircuitShape {
        &self.shape
    }

    /// The sorted feasible basis `F` the plan's ranks index into.
    pub(crate) fn basis(&self) -> &Arc<PlanBasis> {
        &self.basis
    }

    /// Compiles a circuit's structure into a replayable plan, aborting
    /// with [`PlanError::TooDense`] as soon as the structural support
    /// exceeds `max_support` entries.
    pub(crate) fn compile(circuit: &Circuit, max_support: usize) -> Result<GatePlan, PlanError> {
        // The leading run of `X` gates (a basis-state load) moves `|0…0⟩`
        // to one basis state: the walk starts there, and those gates
        // compile as no-ops. Every rank the walk adds is then reachable
        // from the loaded state.
        let loads: Vec<usize> = circuit
            .iter()
            .map_while(|g| match g {
                Gate::X(q) => Some(*q),
                _ => None,
            })
            .collect();
        let start = loads.iter().fold(0u64, |bits, q| bits ^ (1 << q));
        // The forward support pass. `support` stays strictly sorted; it
        // only ever grows (phases keep it, pair kernels add partners).
        let mut support: Vec<u64> = vec![start];
        let mut steps: Vec<BitsStep> = Vec::with_capacity(circuit.len());
        steps.resize_with(loads.len(), || BitsStep::Noop);
        for gate in circuit.iter().skip(loads.len()) {
            let step = match step_spec(gate) {
                StepSpec::Noop => BitsStep::Noop,
                StepSpec::Phase { mask, value } => BitsStep::Phase(
                    support
                        .iter()
                        .copied()
                        .filter(|bits| bits & mask == value)
                        .collect(),
                ),
                StepSpec::DiagPair { controls, target } => {
                    let fixed = controls | target;
                    let pick = |want: u64| -> Vec<u64> {
                        support
                            .iter()
                            .copied()
                            .filter(|bits| bits & fixed == want)
                            .collect()
                    };
                    BitsStep::DiagPair(pick(controls), pick(fixed))
                }
                StepSpec::Pairs { fixed, value, xor } => {
                    // Canonicalize like the dense engine's pair_map:
                    // every touched entry maps to the pair's
                    // `value`-side index.
                    let canon = support
                        .iter()
                        .filter_map(|&bits| {
                            let f = bits & fixed;
                            if f == value {
                                Some(bits)
                            } else if f == value ^ xor {
                                Some(bits ^ xor)
                            } else {
                                None
                            }
                        })
                        .collect();
                    grow_pairs(&mut support, canon, |i| i ^ xor, max_support)?
                }
                StepSpec::GatedPairs => {
                    let Gate::ShiftBlock(b) = gate else {
                        unreachable!("GatedPairs spec only from ShiftBlock");
                    };
                    assert!(
                        !b.support.is_empty(),
                        "register-gated block needs support bits"
                    );
                    // Same canonicalization as the dense engine's
                    // gated_pair_map: every eligible touched entry maps
                    // to its pair's source index.
                    let canon = support
                        .iter()
                        .filter_map(|&bits| b.source_of(bits))
                        .collect();
                    let forward = |i| b.forward(i).expect("canonical source is eligible");
                    grow_pairs(&mut support, canon, forward, max_support)?
                }
                StepSpec::DiagPoly => {
                    let Gate::DiagPhase(poly, _) = gate else {
                        unreachable!("DiagPoly spec only from DiagPhase");
                    };
                    let (mut bits, mut distinct, mut value_idx) =
                        (Vec::new(), Vec::new(), Vec::new());
                    let mut slot_of: HashMap<u64, u32> = HashMap::new();
                    for &b in &support {
                        let f = poly.eval_bits(b);
                        if f != 0.0 {
                            bits.push(b);
                            value_idx.push(*slot_of.entry(f.to_bits()).or_insert_with(|| {
                                distinct.push(f);
                                (distinct.len() - 1) as u32
                            }));
                        }
                    }
                    BitsStep::DiagPoly(bits, distinct, value_idx)
                }
            };
            steps.push(step);
        }

        // Rank conversion against the final basis.
        let rank = |bits: u64| -> u32 {
            support
                .binary_search(&bits)
                .expect("every recorded index is in the final basis") as u32
        };
        let ranks = |bits: Vec<u64>| -> Vec<u32> { bits.into_iter().map(rank).collect() };
        let steps = steps
            .into_iter()
            .map(|s| match s {
                BitsStep::Noop => PlanStep::Noop,
                BitsStep::Phase(bits) => PlanStep::Phase { ranks: ranks(bits) },
                BitsStep::DiagPair(b0, b1) => PlanStep::DiagPair {
                    ranks0: ranks(b0),
                    ranks1: ranks(b1),
                },
                BitsStep::Pairs(pairs) => PlanStep::Pairs {
                    pairs: pairs.into_iter().map(|[i, j]| [rank(i), rank(j)]).collect(),
                },
                BitsStep::DiagPoly(bits, distinct, value_idx) => PlanStep::DiagPoly {
                    ranks: ranks(bits),
                    distinct,
                    value_idx,
                },
            })
            .collect();
        let mut poly_values: Vec<(Weak<PhasePoly>, Vec<f64>)> = Vec::new();
        for gate in circuit.iter() {
            if let Gate::DiagPhase(poly, _) = gate {
                let seen = poly_values
                    .iter()
                    .any(|(weak, _)| std::ptr::eq(weak.as_ptr(), Arc::as_ptr(poly)));
                if !seen {
                    let values = support.iter().map(|&b| poly.eval_bits(b)).collect();
                    poly_values.push((Arc::downgrade(poly), values));
                }
            }
        }
        Ok(GatePlan {
            shape: CircuitShape::of(circuit),
            basis: Arc::new(PlanBasis {
                start: rank(start) as usize,
                bits: support,
                poly_values,
            }),
            steps,
        })
    }

    /// Replays the plan over `K = circuits.len()` amplitude lanes in a
    /// single pass over the rank tables. `amps` is the rank-major SoA
    /// layout `amps[rank * K + lane]` of length `K·|F|` — all K candidates
    /// for one basis rank are contiguous, so the rank/pair tables are
    /// traversed once while the inner loops run over the K lanes. A
    /// serial run passes one circuit and the plain rank-indexed array.
    ///
    /// Every lane evaluates the same arithmetic expression sequence at
    /// any K — including the value-based kernel dispatch per lane (an
    /// `Rx(0)` lane takes the diagonal branch while an `Rx(0.5)` lane
    /// takes the real-matrix branch of the same step) — so a lane's
    /// amplitudes do not depend on its batch or the thread count, and
    /// equal the dense engine's bit for bit. The caller must
    /// have verified `self.shape().matches(c)` for every circuit.
    ///
    /// `on_step` sees the amplitudes before the first step and after
    /// every step (one step per gate): the Figure 9(b) support walk.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, a gate count disagrees with the
    /// plan, or the amplitude length is not `K·|F|`.
    pub(crate) fn execute(
        &self,
        circuits: &[Circuit],
        amps: &mut [Complex64],
        scratch: &mut BatchScratch,
        config: &SimConfig,
        mut on_step: impl FnMut(&[Complex64]),
    ) {
        let lanes = circuits.len();
        assert!(lanes > 0, "empty batch");
        assert_eq!(
            amps.len(),
            lanes * self.basis.bits.len(),
            "batch amplitude length mismatch"
        );
        for c in circuits {
            assert_eq!(c.len(), self.steps.len(), "shape mismatch");
        }
        on_step(amps);
        for (gi, step) in self.steps.iter().enumerate() {
            let gate_of = |lane: usize| &circuits[lane].gates()[gi];
            match step {
                PlanStep::Noop => {}
                PlanStep::Phase { ranks } => {
                    scratch.factors.clear();
                    scratch
                        .factors
                        .extend((0..lanes).map(|lane| phase_factor(gate_of(lane))));
                    scale_lanes(amps, ranks, &scratch.factors, false, config);
                }
                PlanStep::DiagPair { ranks0, ranks1 } => {
                    for (side, ranks) in [(0, ranks0), (1, ranks1)] {
                        scratch.factors.clear();
                        scratch.factors.extend(
                            (0..lanes).map(|lane| gate_matrix_1q(gate_of(lane))[side][side]),
                        );
                        // A diagonal entry of exactly one is skipped per
                        // lane, as the dense engine skips it per gate (a
                        // multiply by one is not an IEEE no-op once `-0.0`
                        // is in play).
                        if scratch.factors.iter().any(|d| *d != Complex64::ONE) {
                            scale_lanes(amps, ranks, &scratch.factors, true, config);
                        }
                    }
                }
                PlanStep::Pairs { pairs } => {
                    // The hot Choco-Q case — every lane a commute-block
                    // rotation — runs on flat sin/cos lane arrays, which
                    // the specialized loop turns into dense per-row
                    // arithmetic instead of per-lane enum dispatch.
                    scratch.kernels.clear();
                    scratch.sins.clear();
                    scratch.coss.clear();
                    for lane in 0..lanes {
                        let kernel = LaneKernel::of(gate_of(lane));
                        if let LaneKernel::Rot { sin, cos } = kernel {
                            scratch.sins.push(sin);
                            scratch.coss.push(cos);
                        }
                        scratch.kernels.push(kernel);
                    }
                    if scratch.sins.len() == lanes {
                        apply_pairs_rot(amps, pairs, &scratch.sins, &scratch.coss, config);
                    } else {
                        apply_pairs_lanes(amps, pairs, &scratch.kernels, config);
                    }
                }
                PlanStep::DiagPoly {
                    ranks,
                    distinct,
                    value_idx,
                } => {
                    scratch.thetas.clear();
                    scratch.thetas.extend((0..lanes).map(|lane| {
                        let Gate::DiagPhase(_, theta) = gate_of(lane) else {
                            panic!("shape mismatch: expected a diagonal evolution");
                        };
                        *theta
                    }));
                    apply_diag_lanes(
                        amps,
                        ranks,
                        distinct,
                        value_idx,
                        &scratch.thetas,
                        &mut scratch.factor_table,
                        config,
                    );
                }
            }
            on_step(amps);
        }
    }
}

/// Lowers canonical pair sources (one per touched support entry) to one
/// `[source, partner]` pair each (sort+dedup yields each pair once) and
/// grows the structural support by both members of every pair, aborting
/// once it would exceed `max_support`.
fn grow_pairs(
    support: &mut Vec<u64>,
    mut canon: Vec<u64>,
    partner: impl Fn(u64) -> u64,
    max_support: usize,
) -> Result<BitsStep, PlanError> {
    let touched = canon.len();
    canon.sort_unstable();
    canon.dedup();
    // The touched entries are replaced by the pairs' disjoint members, so
    // the grown size is known before any pair is materialized.
    let grown_len = support.len() - touched + 2 * canon.len();
    if grown_len > max_support {
        return Err(PlanError::TooDense { support: grown_len });
    }
    let pairs: Vec<[u64; 2]> = canon.iter().map(|&i| [i, partner(i)]).collect();
    let mut grown: Vec<u64> = pairs.iter().flatten().copied().collect();
    grown.sort_unstable();
    *support = merge_sorted(support, &grown);
    debug_assert_eq!(support.len(), grown_len);
    Ok(BitsStep::Pairs(pairs))
}

/// Merges two sorted, deduplicated index lists (the second may contain
/// duplicates of the first).
fn merge_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(a.len() + b.len());
    let push = |out: &mut Vec<u64>, x: u64| {
        if out.last() != Some(&x) {
            out.push(x);
        }
    };
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            push(&mut out, a[i]);
            i += 1;
        } else {
            push(&mut out, b[j]);
            j += 1;
        }
    }
    for &x in &a[i..] {
        push(&mut out, x);
    }
    for &x in &b[j..] {
        push(&mut out, x);
    }
    out
}

/// The phase factor of a [`PlanStep::Phase`] gate — the same expressions
/// the dense engine feeds its `subspace_map`.
fn phase_factor(gate: &Gate) -> Complex64 {
    match gate {
        Gate::Cz(..) => Complex64::cis(std::f64::consts::PI),
        Gate::Cp(_, _, theta) => Complex64::cis(*theta),
        Gate::McPhase { angle, .. } => Complex64::cis(*angle),
        // Empty-support commute block: the global phase e^{-iθ}.
        Gate::UBlock(b) => Complex64::cis(-b.angle),
        Gate::ShiftBlock(b) => Complex64::cis(-b.angle),
        other => panic!("gate {other} is not a phase step"),
    }
}

/// The 2×2 matrix a [`PlanStep::DiagPair`] / 1q [`PlanStep::Pairs`] step
/// reads at replay.
fn gate_matrix_1q(gate: &Gate) -> [[Complex64; 2]; 2] {
    match gate {
        Gate::ControlledU { matrix, .. } => *matrix,
        g1q => g1q
            .matrix_1q()
            .unwrap_or_else(|| panic!("gate {g1q} has no 2×2 matrix")),
    }
}

/// Reusable per-gate lane-parameter buffers for [`GatePlan::execute`]:
/// after the first replay of a shape no replay allocates. One instance,
/// owned by [`crate::SimWorkspace`], serves serial and batched runs.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    factors: Vec<Complex64>,
    thetas: Vec<f64>,
    kernels: Vec<LaneKernel>,
    /// Flat per-lane rotation parameters for the all-rotation pair loop.
    sins: Vec<f64>,
    coss: Vec<f64>,
    /// The `distinct × lanes` diagonal factor table (`value`-major, lane
    /// contiguous) rebuilt per diagonal step.
    factor_table: Vec<Complex64>,
}

/// The per-lane 2×2 kernel a [`PlanStep::Pairs`] gate resolved to,
/// dispatching on the gate's *values* exactly like the dense engine
/// (`apply_controlled_1q` / `apply_block_masks`), so degenerate angles
/// reproduce its expressions.
#[derive(Clone, Copy, Debug)]
enum LaneKernel {
    /// Permutation gates: swap the two slots.
    Swap,
    /// Commute-block rotation (XY-mixer = doubled angle).
    Rot { sin: f64, cos: f64 },
    /// Momentarily diagonal kind-pair gate (e.g. `Rx(0)`): two subspace
    /// scalings, each skipped when its entry is exactly one. The pair's
    /// low slot is the controls-side subspace, the high slot the fixed
    /// side — the same two scalings the dense engine would perform.
    Diag { d0: Complex64, d1: Complex64 },
    /// Momentarily anti-diagonal matrix (e.g. `X`, `Rx(π)` up to phase).
    AntiDiag { m01: Complex64, m10: Complex64 },
    /// All-real matrix (e.g. `H`, `Ry`): four real scalings.
    Real {
        r00: f64,
        r01: f64,
        r10: f64,
        r11: f64,
    },
    /// The general complex 2×2.
    Full { m: [[Complex64; 2]; 2] },
}

impl LaneKernel {
    /// Classifies one lane's gate.
    fn of(gate: &Gate) -> LaneKernel {
        match gate {
            Gate::Cx(..) | Gate::Ccx(..) | Gate::Mcx { .. } | Gate::Swap(..) => LaneKernel::Swap,
            Gate::UBlock(_) | Gate::ShiftBlock(_) | Gate::XyMix(..) => {
                let theta = match gate {
                    Gate::UBlock(b) => b.angle,
                    Gate::ShiftBlock(b) => b.angle,
                    Gate::XyMix(_, _, t) => 2.0 * t,
                    _ => unreachable!(),
                };
                let (sin, cos) = theta.sin_cos();
                LaneKernel::Rot { sin, cos }
            }
            g => {
                let m = gate_matrix_1q(g);
                if m[0][1] == Complex64::ZERO && m[1][0] == Complex64::ZERO {
                    LaneKernel::Diag {
                        d0: m[0][0],
                        d1: m[1][1],
                    }
                } else if m[0][0] == Complex64::ZERO && m[1][1] == Complex64::ZERO {
                    LaneKernel::AntiDiag {
                        m01: m[0][1],
                        m10: m[1][0],
                    }
                } else if m.iter().flatten().all(|c| c.im == 0.0) {
                    LaneKernel::Real {
                        r00: m[0][0].re,
                        r01: m[0][1].re,
                        r10: m[1][0].re,
                        r11: m[1][1].re,
                    }
                } else {
                    LaneKernel::Full { m }
                }
            }
        }
    }

    /// Applies this lane's kernel to one `(low, high)` slot pair.
    #[inline]
    fn apply(self, a: Complex64, b: Complex64) -> (Complex64, Complex64) {
        match self {
            LaneKernel::Swap => (b, a),
            LaneKernel::Rot { sin, cos } => (
                Complex64::new(cos * a.re + sin * b.im, cos * a.im - sin * b.re),
                Complex64::new(cos * b.re + sin * a.im, cos * b.im - sin * a.re),
            ),
            LaneKernel::Diag { d0, d1 } => (
                if d0 != Complex64::ONE { a * d0 } else { a },
                if d1 != Complex64::ONE { b * d1 } else { b },
            ),
            LaneKernel::AntiDiag { m01, m10 } => (m01 * b, m10 * a),
            LaneKernel::Real { r00, r01, r10, r11 } => {
                (a.scale(r00) + b.scale(r01), a.scale(r10) + b.scale(r11))
            }
            LaneKernel::Full { m } => (m[0][0] * a + m[0][1] * b, m[1][0] * a + m[1][1] * b),
        }
    }
}

/// Multiplies every listed rank's K lanes by the per-lane factors —
/// unconditionally for a phase step, or skipping factors of exactly one
/// (`skip_one`) for a diagonal 2×2. Workers chunk over ranks, so every
/// `rank × lane` slot has exactly one writer.
fn scale_lanes(
    amps: &mut [Complex64],
    ranks: &[u32],
    factors: &[Complex64],
    skip_one: bool,
    config: &SimConfig,
) {
    let lanes = factors.len();
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, ranks.len(), |range| {
        let base = ptr.get();
        for &r in &ranks[range] {
            // SAFETY: ranks in-bounds and distinct within the list;
            // worker chunks partition the rank list, and each worker owns
            // all K lanes of its ranks.
            unsafe {
                let row = base.add(r as usize * lanes);
                for (lane, &f) in factors.iter().enumerate() {
                    if !skip_one || f != Complex64::ONE {
                        *row.add(lane) *= f;
                    }
                }
            }
        }
    });
}

/// Applies the diagonal phase `e^{-iθ_lane·f}` per listed rank and lane
/// (the `f != 0` filter already happened at compile time, mirroring the
/// dense engine's per-entry branch).
///
/// The transcendental work is hoisted out of the rank loop: `e^{-iθ·f}`
/// is computed once per *distinct* polynomial value per lane into
/// `table` (value-major, lanes contiguous), and the rank loop becomes a
/// contiguous row-by-row complex multiply. Structured cost polynomials
/// repeat a handful of sums across the whole feasible set, so this
/// replaces `|F|` sin/cos evaluations per lane with `|distinct|` — the
/// factor bits are unchanged (equal `f` bits ⇒ equal `-θ·f` ⇒ equal
/// `cis`).
fn apply_diag_lanes(
    amps: &mut [Complex64],
    ranks: &[u32],
    distinct: &[f64],
    value_idx: &[u32],
    thetas: &[f64],
    table: &mut Vec<Complex64>,
    config: &SimConfig,
) {
    debug_assert_eq!(ranks.len(), value_idx.len());
    let lanes = thetas.len();
    table.clear();
    table.reserve(distinct.len() * lanes);
    for &f in distinct {
        for &theta in thetas {
            table.push(Complex64::cis(-theta * f));
        }
    }
    let table = &*table;
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, ranks.len(), |range| {
        let base = ptr.get();
        for (&r, &fi) in ranks[range.clone()].iter().zip(value_idx[range].iter()) {
            let factors = &table[fi as usize * lanes..fi as usize * lanes + lanes];
            // SAFETY: as in `scale_lanes`.
            unsafe {
                let row = base.add(r as usize * lanes);
                for (lane, &factor) in factors.iter().enumerate() {
                    *row.add(lane) *= factor;
                }
            }
        }
    });
}

/// The all-rotation specialization of [`apply_pairs_lanes`]: every lane is a
/// commute-block rotation. The lane dimension is tiled in blocks of four,
/// then one pass over the `K mod 4` leftover lanes: a block's `sin`/`cos`
/// values stay register-resident across the whole pair-table pass (a
/// lane-minor loop over all K spills them every iteration), while each
/// pass still consumes contiguous quarter-rows of the SoA layout (a fully
/// lane-major loop would stream every cache line K times for one lane's
/// worth of work). A serial replay (K = 1) is one single-lane pass.
fn apply_pairs_rot(
    amps: &mut [Complex64],
    pairs: &[[u32; 2]],
    sins: &[f64],
    coss: &[f64],
    config: &SimConfig,
) {
    const BLOCK: usize = 4;
    let lanes = sins.len();
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, pairs.len(), |range| {
        let pairs = &pairs[range];
        let mut start = 0;
        while start < lanes {
            let base = ptr.get();
            // SAFETY: pairs disjoint, ranks in-bounds; worker chunks
            // partition the pair list and own all K lanes of their pairs.
            // The `K mod 4` leftover lanes take one pass of their width.
            start += unsafe {
                match lanes - start {
                    1 => rot_lanes::<1>(base, pairs, lanes, start, sins, coss),
                    2 => rot_lanes::<2>(base, pairs, lanes, start, sins, coss),
                    3 => rot_lanes::<3>(base, pairs, lanes, start, sins, coss),
                    _ => rot_lanes::<BLOCK>(base, pairs, lanes, start, sins, coss),
                }
            };
        }
    });
}

/// One pass of the rotation over `pairs` for the `W` lanes from `start`,
/// returning `W`. Each lane evaluates the [`LaneKernel::Rot`] expression.
///
/// # Safety
///
/// Every pair's rows must be valid, distinct amplitude rows of `lanes`
/// slots, with `start + W <= lanes`.
#[inline(always)]
unsafe fn rot_lanes<const W: usize>(
    base: *mut Complex64,
    pairs: &[[u32; 2]],
    lanes: usize,
    start: usize,
    sins: &[f64],
    coss: &[f64],
) -> usize {
    let s: [f64; W] = sins[start..start + W].try_into().expect("lane block");
    let c: [f64; W] = coss[start..start + W].try_into().expect("lane block");
    for p in pairs {
        let row_a = base.add(p[0] as usize * lanes + start);
        let row_b = base.add(p[1] as usize * lanes + start);
        for lane in 0..W {
            let (pa, pb) = (row_a.add(lane), row_b.add(lane));
            let (a, b) = (*pa, *pb);
            *pa = Complex64::new(
                c[lane] * a.re + s[lane] * b.im,
                c[lane] * a.im - s[lane] * b.re,
            );
            *pb = Complex64::new(
                c[lane] * b.re + s[lane] * a.im,
                c[lane] * b.im - s[lane] * a.re,
            );
        }
    }
    W
}

/// Applies a pair step for mixed batches: one traversal of the pair
/// table updates all K lanes, each through its own frozen [`LaneKernel`]
/// (all-rotation batches take [`apply_pairs_rot`] instead).
fn apply_pairs_lanes(
    amps: &mut [Complex64],
    pairs: &[[u32; 2]],
    kernels: &[LaneKernel],
    config: &SimConfig,
) {
    let lanes = kernels.len();
    let ptr = AmpPtr(amps.as_mut_ptr());
    dispatch(config, pairs.len(), |range| {
        let base = ptr.get();
        for p in &pairs[range] {
            // SAFETY: pairs disjoint, ranks in-bounds; worker chunks
            // partition the pair list and own all K lanes of their pairs.
            unsafe {
                let row_a = base.add(p[0] as usize * lanes);
                let row_b = base.add(p[1] as usize * lanes);
                for (lane, k) in kernels.iter().enumerate() {
                    let (pa, pb) = (row_a.add(lane), row_b.add(lane));
                    let (a, b) = k.apply(*pa, *pb);
                    *pa = a;
                    *pb = b;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::UBlock;
    use crate::state::StateVector;

    fn test_poly() -> Arc<PhasePoly> {
        let mut poly = PhasePoly::new(4);
        poly.add_linear(1, 0.7);
        poly.add_quadratic(0, 3, -0.4);
        Arc::new(poly)
    }

    fn confined_circuit_with(poly: &Arc<PhasePoly>, theta: f64) -> Circuit {
        let mut c = Circuit::new(4);
        c.load_bits(0b0101);
        c.diag(poly.clone(), theta);
        c.ublock(UBlock::from_u_with_angle(&[1, -1, 0, 0], 0.5));
        c.ublock(UBlock::from_u_with_angle(&[0, 0, 1, -1], theta));
        // A second layer: phases on the spread state, then rotations
        // whose pair members are both occupied and complex.
        c.diag(poly.clone(), theta);
        c.ublock(UBlock::from_u_with_angle(&[1, -1, 0, 0], theta));
        c
    }

    fn confined_circuit(theta: f64) -> Circuit {
        confined_circuit_with(&test_poly(), theta)
    }

    /// Replays `circuits` as one K-lane batch from the plan's start rank.
    fn replay(circuits: &[Circuit], plan: &GatePlan, config: &SimConfig) -> Vec<Complex64> {
        let k = circuits.len();
        let mut amps = vec![Complex64::ZERO; k * plan.basis().bits.len()];
        let start = plan.basis().start * k;
        amps[start..start + k].fill(Complex64::ONE);
        let scratch = &mut BatchScratch::default();
        plan.execute(circuits, &mut amps, scratch, config, |_| {});
        amps
    }

    fn run_plan(circuit: &Circuit, plan: &GatePlan) -> Vec<Complex64> {
        replay(std::slice::from_ref(circuit), plan, &SimConfig::serial())
    }

    /// Whether two amplitudes agree bit for bit, sign of zero included.
    fn same_bits(a: Complex64, b: Complex64) -> bool {
        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
    }

    /// Replays the batch and asserts every lane equals a dense run of its
    /// own circuit (exact zeros off the feasible basis), and equals a
    /// K = 1 replay of that circuit alone bit for bit, sign of zero
    /// included — the width independence batched optimizers rely on.
    /// Returns the batch amplitudes.
    fn assert_lanes_match_dense(
        circuits: &[Circuit],
        plan: &GatePlan,
        config: &SimConfig,
    ) -> Vec<Complex64> {
        let k = circuits.len();
        let amps = replay(circuits, plan, config);
        for (lane, circuit) in circuits.iter().enumerate() {
            let dense = StateVector::run(circuit);
            let single = run_plan(circuit, plan);
            for (bits, &d) in dense.amplitudes().iter().enumerate() {
                let a = match plan.basis().bits.binary_search(&(bits as u64)) {
                    Ok(rank) => {
                        let a = amps[rank * k + lane];
                        assert!(
                            same_bits(a, single[rank]),
                            "lane={lane} bits={bits}: K={k} {a:?} vs K=1 {:?}",
                            single[rank]
                        );
                        a
                    }
                    Err(_) => Complex64::ZERO,
                };
                assert!(
                    a.re == d.re && a.im == d.im,
                    "lane={lane} bits={bits}: replay {a} vs dense {d}"
                );
            }
        }
        amps
    }

    #[test]
    fn leading_loads_fold_into_the_start_state() {
        // The two X gates of `load_bits(0b0101)` compile as no-ops; the
        // walk starts at |0101⟩, so the basis holds exactly the states the
        // two blocks reach from it and never |0…0⟩.
        let circuit = confined_circuit(0.9);
        let plan = GatePlan::compile(&circuit, 1 << 10).unwrap();
        assert!(matches!(plan.steps[..2], [PlanStep::Noop, PlanStep::Noop]));
        assert_eq!(plan.basis().bits, vec![0b0101, 0b0110, 0b1001, 0b1010]);
        assert_eq!(plan.basis().bits[plan.basis().start], 0b0101);
        // A later X is an ordinary pair step.
        let mut c = Circuit::new(3);
        c.x(2).x(0).h(1).x(0);
        let plan = GatePlan::compile(&c, 16).unwrap();
        assert_eq!(plan.basis().bits, vec![0b100, 0b101, 0b110, 0b111]);
        assert_eq!(plan.basis().start, 1);
        assert!(matches!(plan.steps[3], PlanStep::Pairs { .. }));
        assert_lanes_match_dense(&[c], &plan, &SimConfig::serial());
    }

    #[test]
    fn one_plan_replays_many_angle_sets() {
        // The point of the compile-once design: the same plan serves
        // every iteration's angles (the polynomial Arc — part of the
        // shape identity — is shared, as the solver's build closure does).
        let poly = test_poly();
        let plan = GatePlan::compile(&confined_circuit_with(&poly, 0.1), 1 << 10).unwrap();
        for theta in [0.0, 0.3, -1.2, 2.8] {
            let circuit = confined_circuit_with(&poly, theta);
            assert!(plan.shape().matches(&circuit), "theta={theta}");
            assert_lanes_match_dense(std::slice::from_ref(&circuit), &plan, &SimConfig::serial());
        }
    }

    #[test]
    fn shape_mismatch_is_detected() {
        let circuit = confined_circuit(0.4);
        let plan = GatePlan::compile(&circuit, 1 << 10).unwrap();
        // Different structure: one more gate.
        let mut longer = confined_circuit(0.4);
        longer.x(0);
        assert!(!plan.shape().matches(&longer));
        // Different polynomial allocation with identical values.
        let other = confined_circuit(0.4);
        assert!(
            !plan.shape().matches(&other),
            "distinct Arc allocations must not share a plan"
        );
        // Same circuit object still matches.
        assert!(plan.shape().matches(&circuit));
    }

    #[test]
    fn dense_shapes_abort_compilation() {
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q);
        }
        let err = GatePlan::compile(&c, 8).unwrap_err();
        let PlanError::TooDense { support } = err;
        assert!(support > 8, "support {support}");
    }

    #[test]
    fn degenerate_gates_compile_to_noops() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.push(Gate::Cx(0, 0));
        c.push(Gate::Swap(1, 1));
        let plan = GatePlan::compile(&c, 16).unwrap();
        assert!(matches!(plan.steps[1], PlanStep::Noop));
        assert!(matches!(plan.steps[2], PlanStep::Noop));
    }

    #[test]
    fn merge_sorted_handles_overlap() {
        assert_eq!(merge_sorted(&[1, 3, 5], &[2, 3, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(merge_sorted(&[], &[4, 4]), vec![4]);
        assert_eq!(merge_sorted(&[7], &[]), vec![7]);
    }

    #[test]
    fn batched_replay_is_bit_identical_per_lane() {
        let poly = test_poly();
        let plan = GatePlan::compile(&confined_circuit_with(&poly, 0.1), 1 << 10).unwrap();
        let circuits: Vec<Circuit> = [0.0, 0.3, -1.2, 2.8, 0.9]
            .iter()
            .map(|&t| confined_circuit_with(&poly, t))
            .collect();
        for threads in [1, 2, 4] {
            let config = SimConfig {
                threads,
                parallel_threshold: 1,
                ..SimConfig::default()
            };
            assert_lanes_match_dense(&circuits, &plan, &config);
        }
    }

    #[test]
    fn mixed_kernel_lanes_take_their_own_serial_branches() {
        // One shape, three angle sets: θ = 0 resolves Rx to the diagonal
        // identity branch, θ = π to the anti-diagonal branch, anything
        // else to the generic complex branch — all inside one batch, next
        // to Ry's real branch, H's fixed real matrix, and phase steps.
        let mixed: fn(f64) -> Circuit = |theta| {
            let mut c = Circuit::new(3);
            c.h(0);
            c.rx(1, theta);
            c.ry(2, theta * 0.5);
            c.rz(0, theta);
            c.cz(0, 1);
            c.cx(1, 2);
            c.p(2, theta);
            c
        };
        // Here θ = 0 also gives P/Rz unit entries next to the other lanes'
        // non-unit ones, on amplitudes where multiplying by exactly one
        // would flip the sign of a zero: each lane must skip it, as the
        // dense engine does.
        let unit_entries: fn(f64) -> Circuit = |theta| {
            let mut c = Circuit::new(2);
            c.y(1);
            c.ry(0, -theta);
            c.p(1, -theta);
            c.rz(0, theta);
            c.z(1);
            c.rx(1, theta);
            c.p(1, theta);
            c
        };
        for build in [mixed, unit_entries] {
            let plan = GatePlan::compile(&build(0.7), 1 << 10).unwrap();
            let circuits: Vec<Circuit> = [0.0, std::f64::consts::PI, 0.7]
                .iter()
                .map(|&t| build(t))
                .collect();
            for threads in [1, 2] {
                let config = SimConfig {
                    threads,
                    parallel_threshold: 1,
                    ..SimConfig::default()
                };
                let amps = assert_lanes_match_dense(&circuits, &plan, &config);
                // Unlike commute-block circuits, these agree with the
                // dense engine on every sign of zero.
                for (lane, circuit) in circuits.iter().enumerate() {
                    let dense = StateVector::run(circuit);
                    for (rank, &bits) in plan.basis().bits.iter().enumerate() {
                        let (a, d) = (amps[rank * circuits.len() + lane], dense.amplitude(bits));
                        assert!(
                            same_bits(a, d),
                            "lane={lane} bits={bits}: replay {a:?} vs dense {d:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_wider_than_the_basis_is_fine() {
        // K = 17 lanes on a tiny feasible subspace (K > |F|) — the SoA
        // layout is rank-major, so nothing special happens; the loops just
        // run more lanes than ranks.
        let poly = test_poly();
        let plan = GatePlan::compile(&confined_circuit_with(&poly, 0.1), 1 << 10).unwrap();
        let circuits: Vec<Circuit> = (0..17)
            .map(|i| confined_circuit_with(&poly, 0.05 * i as f64 - 0.4))
            .collect();
        assert!(circuits.len() > plan.basis().bits.len());
        assert_lanes_match_dense(&circuits, &plan, &SimConfig::serial());
    }
}
