//! VMs, communicating VM pairs (flows), and their traffic rates.

use crate::ModelError;
use ppdc_topology::{mint_u32, Graph, NodeId, NodeKind};
use serde::{Deserialize, Serialize};

/// Index of a VM within a [`Workload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VmId(pub u32);

impl VmId {
    /// The raw index.
    #[inline]
    #[expect(
        clippy::as_conversions,
        reason = "u32 → usize is lossless on every supported target"
    )]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Converts a container index back into an id, checking the `u32` id
    /// space (the sanctioned inverse of [`VmId::index`]).
    #[inline]
    pub fn from_index(i: usize) -> VmId {
        VmId(mint_u32(i, "VM index exceeds the u32 id space"))
    }
}

/// Index of a flow (a communicating VM pair) within a [`Workload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The raw index.
    #[inline]
    #[expect(
        clippy::as_conversions,
        reason = "u32 → usize is lossless on every supported target"
    )]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Converts a container index back into an id, checking the `u32` id
    /// space (the sanctioned inverse of [`FlowId::index`]).
    #[inline]
    pub fn from_index(i: usize) -> FlowId {
        FlowId(mint_u32(i, "flow index exceeds the u32 id space"))
    }
}

/// A communicating VM pair `(v_i, v'_i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flow {
    /// The source VM `v_i`.
    pub src: VmId,
    /// The destination VM `v'_i`.
    pub dst: VmId,
}

/// The set of VMs, flows, and the traffic-rate vector `λ`.
///
/// Rates are mutable because the PPDC is *dynamic*: the simulator rewrites
/// `λ` every hour following the diurnal model, then asks TOM to migrate.
/// VM→host assignments are also mutable because the PLAN/MCF baselines
/// migrate VMs rather than VNFs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Workload {
    host_of: Vec<NodeId>,
    flows: Vec<Flow>,
    rates: Vec<u64>,
}

impl Workload {
    /// Creates an empty workload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a VM on `host` and returns its id. `host` must be a host node of
    /// the graph the workload is used with (validated by [`Workload::validate`]).
    pub fn add_vm(&mut self, host: NodeId) -> VmId {
        let id = VmId(mint_u32(self.host_of.len(), "too many VMs"));
        self.host_of.push(host);
        id
    }

    /// Adds a flow between two existing VMs with traffic rate `rate`.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownVm`] if either endpoint VM does not exist.
    pub fn try_add_flow(&mut self, src: VmId, dst: VmId, rate: u64) -> Result<FlowId, ModelError> {
        for v in [src, dst] {
            if v.index() >= self.host_of.len() {
                return Err(ModelError::UnknownVm(v));
            }
        }
        let id = FlowId(mint_u32(self.flows.len(), "too many flows"));
        self.flows.push(Flow { src, dst });
        self.rates.push(rate);
        Ok(id)
    }

    /// Adds a flow between two existing VMs with traffic rate `rate`.
    ///
    /// # Panics
    ///
    /// Panics if either VM id is unknown; use [`Workload::try_add_flow`] at
    /// boundaries that handle untrusted flow descriptions.
    pub fn add_flow(&mut self, src: VmId, dst: VmId, rate: u64) -> FlowId {
        match self.try_add_flow(src, dst, rate) {
            Ok(id) => id,
            #[expect(
                clippy::panic,
                reason = "documented panicking facade; boundaries with untrusted flows use try_add_flow"
            )]
            Err(e) => panic!("add_flow: {e}"),
        }
    }

    /// Convenience: creates a fresh VM pair on `(src_host, dst_host)` and a
    /// flow of rate `rate` between them.
    pub fn add_pair(&mut self, src_host: NodeId, dst_host: NodeId, rate: u64) -> FlowId {
        let s = self.add_vm(src_host);
        let d = self.add_vm(dst_host);
        self.add_flow(s, d, rate)
    }

    /// Number of VMs.
    pub fn num_vms(&self) -> usize {
        self.host_of.len()
    }

    /// Number of flows (`l` in the paper).
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// The host `s(v)` of VM `v`.
    #[inline]
    pub fn host_of(&self, v: VmId) -> NodeId {
        self.host_of[v.index()]
    }

    /// Moves VM `v` to `host` (used by VM-migration baselines).
    pub fn set_host(&mut self, v: VmId, host: NodeId) {
        self.host_of[v.index()] = host;
    }

    /// The flow with id `f`.
    #[inline]
    pub fn flow(&self, f: FlowId) -> Flow {
        self.flows[f.index()]
    }

    /// Source and destination *hosts* of flow `f`.
    #[inline]
    pub fn endpoints(&self, f: FlowId) -> (NodeId, NodeId) {
        let fl = self.flows[f.index()];
        (self.host_of(fl.src), self.host_of(fl.dst))
    }

    /// The traffic rate `λ_f`.
    #[inline]
    pub fn rate(&self, f: FlowId) -> u64 {
        self.rates[f.index()]
    }

    /// Overwrites the traffic rate of one flow.
    pub fn set_rate(&mut self, f: FlowId, rate: u64) {
        self.rates[f.index()] = rate;
    }

    /// Replaces the whole rate vector `λ`.
    ///
    /// # Errors
    ///
    /// The new vector must have one rate per flow.
    pub fn set_rates(&mut self, rates: &[u64]) -> Result<(), ModelError> {
        if rates.len() != self.flows.len() {
            return Err(ModelError::WrongLength {
                expected: self.flows.len(),
                got: rates.len(),
            });
        }
        self.rates.copy_from_slice(rates);
        Ok(())
    }

    /// Every VM's host, indexed by VM id.
    pub fn vm_hosts(&self) -> &[NodeId] {
        &self.host_of
    }

    /// Every flow, indexed by flow id.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// The rate vector `λ`.
    pub fn rates(&self) -> &[u64] {
        &self.rates
    }

    /// Sum of all rates, saturating at `u64::MAX` (as the attach
    /// aggregates' total does), so a cost over it pins at the sentinel
    /// instead of trapping.
    pub fn total_rate(&self) -> u64 {
        self.rates.iter().fold(0, |sum, &r| sum.saturating_add(r))
    }

    /// Iterates over `(flow id, src host, dst host, rate)`.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, NodeId, NodeId, u64)> + '_ {
        (0..self.flows.len()).map(move |i| {
            let f = FlowId::from_index(i);
            let (s, d) = self.endpoints(f);
            (f, s, d, self.rates[i])
        })
    }

    /// Flow ids.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> {
        (0..self.flows.len()).map(FlowId::from_index)
    }

    /// VM ids.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> {
        (0..self.host_of.len()).map(VmId::from_index)
    }

    /// Checks that every VM sits on a host node of `g`.
    ///
    /// # Errors
    ///
    /// Returns the first VM found on a non-host node.
    pub fn validate(&self, g: &Graph) -> Result<(), ModelError> {
        for &h in &self.host_of {
            if h.index() >= g.num_nodes() || g.kind(h) != NodeKind::Host {
                return Err(ModelError::NotAHost(h));
            }
        }
        Ok(())
    }
}

/// Per-host VM slot capacities, used by the VM-migration baselines
/// (PLAN \[17\], MCF \[24\]) where VMs can only move to hosts with free slots.
///
/// All VMs have the same size (paper, Section III), so a slot count
/// suffices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostCapacities {
    capacity: Vec<u32>,
    used: Vec<u32>,
}

impl HostCapacities {
    /// Gives every node `slots` capacity (non-host nodes simply never get
    /// VMs assigned), then counts existing VMs of `w`.
    pub fn uniform(g: &Graph, w: &Workload, slots: u32) -> Self {
        let mut c = HostCapacities {
            capacity: vec![slots; g.num_nodes()],
            used: vec![0; g.num_nodes()],
        };
        for v in w.vm_ids() {
            c.used[w.host_of(v).index()] += 1;
        }
        c
    }

    /// Free slots on `host` (saturating: an over-packed initial assignment
    /// reports 0 free).
    pub fn free(&self, host: NodeId) -> u32 {
        self.capacity[host.index()].saturating_sub(self.used[host.index()])
    }

    /// Slots in use on `host`.
    pub fn used(&self, host: NodeId) -> u32 {
        self.used[host.index()]
    }

    /// Total capacity of `host`.
    pub fn capacity(&self, host: NodeId) -> u32 {
        self.capacity[host.index()]
    }

    /// Records a VM move from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Fails (without mutating) if `to` has no free slot.
    pub fn transfer(&mut self, from: NodeId, to: NodeId) -> Result<(), ModelError> {
        if self.free(to) == 0 {
            return Err(ModelError::HostFull(to));
        }
        self.used[from.index()] -= 1;
        self.used[to.index()] += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_topology::builders::linear;

    fn setup() -> (Graph, NodeId, NodeId, Workload) {
        let (g, h1, h2) = linear(3).unwrap();
        let mut w = Workload::new();
        w.add_pair(h1, h1, 100);
        w.add_pair(h2, h2, 1);
        (g, h1, h2, w)
    }

    #[test]
    fn pair_creation() {
        let (_, h1, h2, w) = setup();
        assert_eq!(w.num_vms(), 4);
        assert_eq!(w.num_flows(), 2);
        assert_eq!(w.endpoints(FlowId(0)), (h1, h1));
        assert_eq!(w.endpoints(FlowId(1)), (h2, h2));
        assert_eq!(w.rates(), &[100, 1]);
        assert_eq!(w.total_rate(), 101);
    }

    #[test]
    fn total_rate_saturates() {
        let (_, h1, h2, mut w) = setup();
        for _ in 0..3 {
            w.add_pair(h1, h2, 1 << 63);
        }
        assert_eq!(w.total_rate(), u64::MAX);
    }

    #[test]
    fn rate_updates() {
        let (_, _, _, mut w) = setup();
        w.set_rate(FlowId(0), 7);
        assert_eq!(w.rate(FlowId(0)), 7);
        w.set_rates(&[1, 100]).unwrap();
        assert_eq!(w.rates(), &[1, 100]);
        assert!(matches!(
            w.set_rates(&[1, 2, 3]),
            Err(ModelError::WrongLength {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn vm_moves() {
        let (_, h1, h2, mut w) = setup();
        let vm = w.flow(FlowId(0)).src;
        assert_eq!(w.host_of(vm), h1);
        w.set_host(vm, h2);
        assert_eq!(w.endpoints(FlowId(0)), (h2, h1));
    }

    #[test]
    fn try_add_flow_rejects_unknown_vms() {
        let (_, h1, _, mut w) = setup();
        let bogus = VmId(99);
        assert_eq!(
            w.try_add_flow(bogus, VmId(0), 5),
            Err(ModelError::UnknownVm(bogus))
        );
        assert_eq!(
            w.try_add_flow(VmId(0), bogus, 5),
            Err(ModelError::UnknownVm(bogus))
        );
        assert_eq!(w.num_flows(), 2); // nothing was added
        let v = w.add_vm(h1);
        assert!(w.try_add_flow(v, VmId(0), 5).is_ok());
    }

    #[test]
    fn validate_rejects_non_host() {
        let (g, _, _, mut w) = setup();
        let sw = g.switches().next().unwrap();
        w.add_vm(sw);
        assert_eq!(w.validate(&g), Err(ModelError::NotAHost(sw)));
    }

    #[test]
    fn validate_accepts_hosts() {
        let (g, _, _, w) = setup();
        assert!(w.validate(&g).is_ok());
    }

    #[test]
    fn iter_yields_all_flows() {
        let (_, h1, h2, w) = setup();
        let v: Vec<_> = w.iter().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], (FlowId(0), h1, h1, 100));
        assert_eq!(v[1], (FlowId(1), h2, h2, 1));
    }

    #[test]
    fn capacities_track_transfers() {
        let (g, h1, h2, w) = setup();
        let mut cap = HostCapacities::uniform(&g, &w, 3);
        assert_eq!(cap.used(h1), 2);
        assert_eq!(cap.used(h2), 2);
        assert_eq!(cap.free(h1), 1);
        cap.transfer(h1, h2).unwrap();
        assert_eq!(cap.used(h2), 3);
        assert_eq!(cap.free(h2), 0);
        assert_eq!(cap.transfer(h1, h2), Err(ModelError::HostFull(h2)));
        // Failed transfer must not mutate.
        assert_eq!(cap.used(h1), 1);
    }
}
