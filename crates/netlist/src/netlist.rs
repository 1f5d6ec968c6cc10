//! Core netlist data structures.

use fbb_device::Cell;
use std::fmt;

use crate::NetlistError;

/// Identifier of a gate instance within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Index into [`Netlist::gates`].
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `GateId` from a dense index (for external tables).
    pub fn from_index(index: usize) -> Self {
        GateId(u32::try_from(index).expect("gate index fits in u32"))
    }

    /// Builds a `GateId` from its stored `u32` form (total; decode paths).
    pub const fn from_u32(id: u32) -> Self {
        GateId(id)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Identifier of a net (signal) within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Index into [`Netlist::nets`].
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NetId` from a dense index (for external tables).
    pub fn from_index(index: usize) -> Self {
        NetId(u32::try_from(index).expect("net index fits in u32"))
    }

    /// Builds a `NetId` from its stored `u32` form (total; decode paths).
    pub const fn from_u32(id: u32) -> Self {
        NetId(id)
    }
}

/// Dense [`GateId`] for table row `i`, saturating instead of panicking.
///
/// In-memory tables are bounded by the u32 id space (ids are stored as
/// `u32`s), so saturation is unreachable in practice; staying total keeps
/// the traversal helpers usable on untrusted-decode paths.
fn gate_at(i: usize) -> GateId {
    GateId(u32::try_from(i).unwrap_or(u32::MAX))
}

/// Dense [`NetId`] for table row `i`, saturating instead of panicking (see
/// [`gate_at`]).
fn net_at(i: usize) -> NetId {
    NetId(u32::try_from(i).unwrap_or(u32::MAX))
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A gate instance: one library cell driving one net.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The library cell implementing this gate.
    pub cell: Cell,
    /// Input nets, in pin order (`cell.kind.input_count()` of them).
    pub inputs: Vec<NetId>,
    /// The single output net this gate drives.
    pub output: NetId,
}

/// A net: a signal driven by a primary input or exactly one gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Net name (unique within the netlist).
    pub name: String,
    /// Driving gate, or `None` for primary inputs.
    pub driver: Option<GateId>,
    /// Gates that consume this net.
    pub sinks: Vec<GateId>,
}

/// A flattened, mapped gate-level netlist.
///
/// Invariants (enforced by [`NetlistBuilder`](crate::NetlistBuilder) /
/// [`Netlist::validate`]):
///
/// * every net is driven by exactly one gate or is a primary input;
/// * gate input arity matches the cell kind;
/// * the combinational graph (flip-flops removed) is acyclic.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) gates: Vec<Gate>,
    pub(crate) nets: Vec<Net>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<NetId>,
}

impl Netlist {
    /// Reassembles a netlist from raw tables, e.g. decoded from a persisted
    /// design database.
    ///
    /// All cross-references are bounds-checked *before* the structural
    /// invariants of [`Netlist::validate`] are enforced, so arbitrarily
    /// corrupted tables produce an error, never a panic:
    ///
    /// * every net id referenced by gates, `inputs`, and `outputs` is in
    ///   range;
    /// * every gate id referenced by net drivers and sink lists is in range;
    /// * a net's recorded driver actually drives it, and its sink list
    ///   matches (as a multiset) the gates that list it as an input.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Inconsistent`] on any dangling or mismatched
    /// cross-reference, plus everything [`Netlist::validate`] reports.
    pub fn from_parts(
        name: String,
        gates: Vec<Gate>,
        nets: Vec<Net>,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
    ) -> Result<Self, NetlistError> {
        let n_gates = gates.len();
        let n_nets = nets.len();
        let net_in_range = |id: NetId| id.index() < n_nets;
        let gate_in_range = |id: GateId| id.index() < n_gates;

        for (i, gate) in gates.iter().enumerate() {
            if !net_in_range(gate.output) || gate.inputs.iter().any(|&n| !net_in_range(n)) {
                return Err(NetlistError::Inconsistent(format!(
                    "gate g{i} references a net beyond the {n_nets} defined"
                )));
            }
        }
        for (i, net) in nets.iter().enumerate() {
            let driver_ok = net.driver.map(gate_in_range).unwrap_or(true);
            if !driver_ok || net.sinks.iter().any(|&g| !gate_in_range(g)) {
                return Err(NetlistError::Inconsistent(format!(
                    "net n{i} references a gate beyond the {n_gates} defined"
                )));
            }
            if let Some(driver) = net.driver {
                if gates[driver.index()].output.index() != i {
                    return Err(NetlistError::Inconsistent(format!(
                        "net n{i} claims driver {driver}, which drives {}",
                        gates[driver.index()].output
                    )));
                }
            }
        }
        if let Some(&bad) = inputs.iter().chain(outputs.iter()).find(|&&n| !net_in_range(n)) {
            return Err(NetlistError::Inconsistent(format!(
                "primary port references {bad} beyond the {n_nets} defined nets"
            )));
        }

        // Sink lists feed the topological sort's fan-in counting; a missing
        // or phantom entry would corrupt it, so they must match the gate
        // input tables exactly (as a per-net multiset — order is free).
        let mut expected: Vec<Vec<u32>> = vec![Vec::new(); n_nets];
        for (i, gate) in gates.iter().enumerate() {
            for &input in &gate.inputs {
                expected[input.index()].push(i as u32);
            }
        }
        for (i, net) in nets.iter().enumerate() {
            let mut recorded: Vec<u32> = net.sinks.iter().map(|g| g.0).collect();
            recorded.sort_unstable();
            expected[i].sort_unstable();
            if recorded != expected[i] {
                return Err(NetlistError::Inconsistent(format!(
                    "net n{i} sink list disagrees with the gate input tables"
                )));
            }
        }

        let nl = Netlist { name, gates, nets, inputs, outputs };
        nl.validate()?;
        Ok(nl)
    }

    /// [`Netlist::from_parts`] minus the semantic consistency sweep, for
    /// callers whose tables already carry an integrity guarantee (e.g. a
    /// CRC-verified `.fbb` section written by this crate's own encoder).
    ///
    /// Every cross-reference is still bounds-checked — corrupt ids return
    /// [`NetlistError::Inconsistent`], never panic — but driver/sink
    /// agreement, arity, undriven-net detection, and the combinational-cycle
    /// scan are all skipped. Feeding this tables that violate those
    /// invariants yields a netlist whose analyses (topological order, STA)
    /// may be silently wrong, which is exactly the trade the trusted decode
    /// path documents.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Inconsistent`] on any out-of-range net or
    /// gate id.
    pub fn from_parts_trusted(
        name: String,
        gates: Vec<Gate>,
        nets: Vec<Net>,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
    ) -> Result<Self, NetlistError> {
        let n_gates = gates.len();
        let n_nets = nets.len();
        let net_in_range = |id: NetId| id.index() < n_nets;
        let gate_in_range = |id: GateId| id.index() < n_gates;

        for (i, gate) in gates.iter().enumerate() {
            if !net_in_range(gate.output) || gate.inputs.iter().any(|&n| !net_in_range(n)) {
                return Err(NetlistError::Inconsistent(format!(
                    "gate g{i} references a net beyond the {n_nets} defined"
                )));
            }
        }
        for (i, net) in nets.iter().enumerate() {
            let driver_ok = net.driver.map(gate_in_range).unwrap_or(true);
            if !driver_ok || net.sinks.iter().any(|&g| !gate_in_range(g)) {
                return Err(NetlistError::Inconsistent(format!(
                    "net n{i} references a gate beyond the {n_gates} defined"
                )));
            }
        }
        if let Some(&bad) = inputs.iter().chain(outputs.iter()).find(|&&n| !net_in_range(n)) {
            return Err(NetlistError::Inconsistent(format!(
                "primary port references {bad} beyond the {n_nets} defined nets"
            )));
        }

        Ok(Netlist { name, gates, nets, inputs, outputs })
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All gate instances (index = [`GateId::index`]).
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// All nets (index = [`NetId::index`]).
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Primary input nets.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Number of gate instances (sequential elements included).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// The gate with the given id.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// The net with the given id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Iterates over `(GateId, &Gate)`.
    pub fn iter_gates(&self) -> impl Iterator<Item = (GateId, &Gate)> + '_ {
        self.gates.iter().enumerate().map(|(i, g)| (gate_at(i), g))
    }

    /// Number of sequential elements (DFFs).
    pub fn dff_count(&self) -> usize {
        self.gates.iter().filter(|g| g.cell.kind.is_sequential()).count()
    }

    /// A topological order of the **combinational** gates.
    ///
    /// Flip-flop outputs are treated as sources (like primary inputs) and
    /// flip-flop inputs as sinks; DFF gates themselves are excluded from the
    /// returned order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// graph contains a cycle.
    pub fn topo_order(&self) -> Result<Vec<GateId>, NetlistError> {
        let n = self.gates.len();
        // Pending fan-in count per combinational gate.
        let mut pending: Vec<u32> = vec![0; n];
        let mut order = Vec::with_capacity(n);
        let mut queue = std::collections::VecDeque::new();

        for (i, gate) in self.gates.iter().enumerate() {
            if gate.cell.kind.is_sequential() {
                continue;
            }
            let mut deps = 0;
            for &input in &gate.inputs {
                if let Some(driver) = self.nets[input.index()].driver {
                    if !self.gates[driver.index()].cell.kind.is_sequential() {
                        deps += 1;
                    }
                }
            }
            pending[i] = deps;
            if deps == 0 {
                queue.push_back(gate_at(i));
            }
        }

        while let Some(id) = queue.pop_front() {
            order.push(id);
            let out = self.gates[id.index()].output;
            for &sink in &self.nets[out.index()].sinks {
                if self.gates[sink.index()].cell.kind.is_sequential() {
                    continue;
                }
                pending[sink.index()] -= 1;
                if pending[sink.index()] == 0 {
                    queue.push_back(sink);
                }
            }
        }

        let comb_count = n - self.dff_count();
        if order.len() != comb_count {
            return Err(NetlistError::CombinationalCycle {
                reached: order.len(),
                total: comb_count,
            });
        }
        Ok(order)
    }

    /// Checks the structural invariants, returning the first violation.
    ///
    /// The builder enforces these on the fly; this is useful after parsing a
    /// netlist from text or constructing one programmatically.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found: driverless internal nets,
    /// arity mismatches, dangling gate outputs, or combinational cycles.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (i, net) in self.nets.iter().enumerate() {
            let id = net_at(i);
            let is_input = self.inputs.contains(&id);
            if net.driver.is_none() && !is_input {
                return Err(NetlistError::UndrivenNet(net.name.clone()));
            }
            if let (Some(_), true) = (net.driver, is_input) {
                return Err(NetlistError::DrivenPrimaryInput(net.name.clone()));
            }
        }
        for (i, gate) in self.gates.iter().enumerate() {
            if gate.inputs.len() != gate.cell.kind.input_count() {
                return Err(NetlistError::ArityMismatch {
                    gate: gate_at(i),
                    kind: gate.cell.kind,
                    got: gate.inputs.len(),
                });
            }
            let out_net = &self.nets[gate.output.index()];
            if out_net.driver != Some(gate_at(i)) {
                return Err(NetlistError::InconsistentDriver(out_net.name.clone()));
            }
        }
        self.topo_order()?;
        Ok(())
    }

    /// Fraction of gates whose output drives nothing and is not a primary
    /// output (useful as a generator sanity metric).
    pub fn dangling_output_fraction(&self) -> f64 {
        if self.gates.is_empty() {
            return 0.0;
        }
        let dangling = self
            .gates
            .iter()
            .filter(|g| {
                let net = &self.nets[g.output.index()];
                net.sinks.is_empty() && !self.outputs.contains(&g.output)
            })
            .count();
        dangling as f64 / self.gates.len() as f64
    }

    /// Summary statistics line, e.g. for experiment logs.
    pub fn stats(&self) -> String {
        format!(
            "{}: {} gates ({} seq), {} nets, {} PIs, {} POs",
            self.name,
            self.gate_count(),
            self.dff_count(),
            self.net_count(),
            self.inputs.len(),
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::NetlistBuilder;
    use fbb_device::{CellKind, DriveStrength};

    use super::*;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.gate(CellKind::Nand2, DriveStrength::X1, &[a, c]).unwrap();
        let y = b.gate(CellKind::Inv, DriveStrength::X1, &[x]).unwrap();
        b.output(y, "y");
        b.finish().unwrap()
    }

    #[test]
    fn accessors() {
        let nl = tiny();
        assert_eq!(nl.name(), "tiny");
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.net_count(), 4);
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 1);
        assert_eq!(nl.dff_count(), 0);
        assert!(nl.stats().contains("2 gates"));
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let nl = tiny();
        let order = nl.topo_order().unwrap();
        assert_eq!(order.len(), 2);
        // NAND (gate 0) must come before INV (gate 1).
        assert!(order.iter().position(|g| g.index() == 0) < order.iter().position(|g| g.index() == 1));
    }

    #[test]
    fn dff_breaks_cycles() {
        // A counter-ish loop: q -> inv -> dff -> q. Legal because the DFF
        // breaks the combinational cycle.
        let mut b = NetlistBuilder::new("loopy");
        let (d_placeholder, q) = b.dff_floating(DriveStrength::X1);
        let nq = b.gate(CellKind::Inv, DriveStrength::X1, &[q]).unwrap();
        b.connect_dff_input(d_placeholder, nq).unwrap();
        b.output(q, "q");
        let nl = b.finish().unwrap();
        assert_eq!(nl.dff_count(), 1);
        assert_eq!(nl.topo_order().unwrap().len(), 1);
        nl.validate().unwrap();
    }

    #[test]
    fn from_parts_trusted_bounds_checks_but_skips_semantics() {
        let nl = tiny();
        // Good tables round-trip through the trusted constructor.
        let ok = Netlist::from_parts_trusted(
            nl.name.clone(),
            nl.gates.clone(),
            nl.nets.clone(),
            nl.inputs.clone(),
            nl.outputs.clone(),
        )
        .unwrap();
        assert_eq!(ok.gate_count(), nl.gate_count());

        // Out-of-range ids are still rejected (never a downstream panic)...
        let mut bad_gates = nl.gates.clone();
        bad_gates[0].output = NetId::from_index(999);
        assert!(matches!(
            Netlist::from_parts_trusted(
                nl.name.clone(),
                bad_gates,
                nl.nets.clone(),
                nl.inputs.clone(),
                nl.outputs.clone(),
            ),
            Err(NetlistError::Inconsistent(_))
        ));

        // ...but a semantic lie the full constructor catches slides through:
        // drop a sink so the sink list disagrees with the gate input tables.
        let mut lying_nets = nl.nets.clone();
        let victim = lying_nets.iter_mut().find(|n| !n.sinks.is_empty()).unwrap();
        victim.sinks.clear();
        assert!(Netlist::from_parts(
            nl.name.clone(),
            nl.gates.clone(),
            lying_nets.clone(),
            nl.inputs.clone(),
            nl.outputs.clone(),
        )
        .is_err());
        assert!(Netlist::from_parts_trusted(
            nl.name.clone(),
            nl.gates.clone(),
            lying_nets,
            nl.inputs.clone(),
            nl.outputs.clone(),
        )
        .is_ok());
    }

    #[test]
    fn validate_detects_cycle() {
        // Build a cyclic combinational netlist by hand.
        let mut nl = tiny();
        // Rewire NAND's first input to the INV output (creating a comb loop).
        let inv_out = nl.gates[1].output;
        nl.gates[0].inputs[0] = inv_out;
        nl.nets[inv_out.index()].sinks.push(GateId::from_index(0));
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn dangling_fraction() {
        let mut b = NetlistBuilder::new("dangle");
        let a = b.input("a");
        let used = b.gate(CellKind::Inv, DriveStrength::X1, &[a]).unwrap();
        let _unused = b.gate(CellKind::Inv, DriveStrength::X1, &[a]).unwrap();
        b.output(used, "y");
        let nl = b.finish().unwrap();
        assert!((nl.dangling_output_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ids_display() {
        assert_eq!(GateId::from_index(3).to_string(), "g3");
        assert_eq!(NetId::from_index(7).to_string(), "n7");
    }
}
