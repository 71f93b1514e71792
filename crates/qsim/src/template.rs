//! Parameterized circuits: build once, bind angles per evaluation.

use crate::circuit::Circuit;
use crate::gate::Gate;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identities handed to templates; 0 is never issued. `Relaxed` suffices:
/// an identity only has to be unique and publishes no other data.
static NEXT_TEMPLATE_ID: AtomicU64 = AtomicU64::new(1);

/// A circuit whose structure is fixed and whose angles come from an
/// optimizer's parameter vector: a base [`Circuit`] plus angle slots.
/// An evaluation binds numbers into an existing circuit instead of
/// building one, and [`crate::SimWorkspace::run_template`] resolves the
/// template's plan once instead of matching every circuit to the cache.
///
/// A slot writes `params[i]`, or `scale * params[i]`, the expression a
/// circuit builder writes, so a bound gate carries the built angle's
/// bits. Every mutation gives the template a new identity, so a
/// workspace never replays a plan resolved for an earlier structure.
///
/// ```
/// use choco_qsim::{Circuit, CircuitTemplate, Gate};
///
/// let mut template = CircuitTemplate::new(Circuit::new(2));
/// template.push(Gate::Cz(0, 1));
/// template.push_slot(Gate::Rx(1, 0.0), 0, 2.0);
/// let mut built = Circuit::new(2);
/// built.cz(0, 1).rx(1, 2.0 * 0.3);
/// assert_eq!(template.bind(&[0.3]), built);
/// ```
#[derive(Clone, Debug)]
pub struct CircuitTemplate {
    /// The identity a workspace keys the template's resolved plan by.
    pub(crate) id: u64,
    base: Circuit,
    /// Angle slots `(gate, param, scale)`: gate `gate` of `base` takes
    /// `scale · params[param]`, or `params[param]` itself at scale 1.
    slots: Vec<(usize, usize, f64)>,
}

impl CircuitTemplate {
    /// A template whose fixed prefix is `base`.
    pub fn new(base: Circuit) -> Self {
        CircuitTemplate {
            id: NEXT_TEMPLATE_ID.fetch_add(1, Ordering::Relaxed),
            base,
            slots: Vec::new(),
        }
    }

    /// Appends a gate whose angle (if any) never changes.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        self.id = NEXT_TEMPLATE_ID.fetch_add(1, Ordering::Relaxed);
        self.base.push(gate);
        self
    }

    /// Appends `gate` with its angle bound to `scale · params[param]`.
    ///
    /// # Panics
    ///
    /// Panics if the gate has no angle.
    pub fn push_slot(&mut self, mut gate: Gate, param: usize, scale: f64) -> &mut Self {
        assert!(gate.set_angle(0.0), "gate {gate} has no angle to bind");
        self.slots.push((self.base.len(), param, scale));
        self.push(gate)
    }

    /// The base circuit (slot angles hold placeholders).
    pub fn circuit(&self) -> &Circuit {
        &self.base
    }

    /// The circuit at `params`.
    pub fn bind(&self, params: &[f64]) -> Circuit {
        let mut circuit = self.base.clone();
        self.bind_into(params, &mut circuit);
        circuit
    }

    /// Writes the angles for `params` into `circuit`, a clone of
    /// [`CircuitTemplate::circuit`], without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `circuit` is not the base's length.
    pub fn bind_into(&self, params: &[f64], circuit: &mut Circuit) {
        assert_eq!(
            circuit.len(),
            self.base.len(),
            "not this template's circuit"
        );
        for &(gate, param, scale) in &self.slots {
            let x = params[param];
            let angle = if scale == 1.0 { x } else { scale * x };
            circuit.gate_mut(gate).set_angle(angle);
        }
    }
}
