//! Crash-safe epoch checkpoints (`ppdc-ckpt/v3`).
//!
//! A [`Checkpoint`] freezes everything [`crate::run_day`] needs to restart
//! a fault-aware day from the last completed hour and finish it
//! **bit-identically** to the uninterrupted run: the incumbent placement,
//! the workload's current VM hosts, the fault set, the elected serving
//! view, every accumulated per-hour record, and the running totals. What
//! the inputs regenerate is deliberately *not* stored — the rates are
//! `rates_at(hour)` masked by the stored stranded set, and the distance
//! matrix, metric closure, and attach aggregates are recomputed on
//! restore; the bit-identity guarantees (delta-fed aggregates ≡ rebuilds,
//! dirty-row APSP ≡ full rebuilds) make the reconstruction exact.
//!
//! There is no RNG position to save: the fault schedule and traffic trace
//! are generated *before* the day starts, so the epoch loop itself never
//! draws randomness. Instead the checkpoint carries a [`fingerprint`] of
//! every input (graph, workload, trace rates, SFC, config, schedule) and
//! restore refuses a snapshot whose fingerprint does not match — resuming
//! against different inputs cannot silently produce a franken-day.
//!
//! [`CheckpointStore`] writes snapshots atomically (tmp + fsync + rename)
//! and keeps the previous snapshot as a `.prev` fallback, so a crash *mid
//! write* — a torn or truncated primary file — still recovers from the
//! last good hour.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use ppdc_model::{Sfc, Workload};
use ppdc_obs::json::{self, Value};
use ppdc_obs::{names as obs_names, Stopwatch};
use ppdc_topology::{Cost, EdgeId, Graph, NodeId};
use ppdc_traffic::DynamicTrace;

use crate::fault::{DegradedHourRecord, FaultSchedule, HourProvenance};
use crate::simulator::{HourRecord, MigrationPolicy, SimConfig};

/// Version tag every snapshot carries; restore rejects anything else.
pub const CKPT_SCHEMA: &str = "ppdc-ckpt/v3";

/// Errors from writing, reading, or validating a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// A filesystem operation failed (`op` is `read`/`write`/`rename`/…).
    Io {
        /// The operation that failed.
        op: &'static str,
        /// The path it failed on.
        path: String,
        /// The OS error message.
        msg: String,
    },
    /// The file held no parseable JSON document — the classic torn write.
    Parse(String),
    /// The document parsed but is not a snapshot of the parser's schema.
    Schema(String),
    /// A field is missing, has the wrong type, or holds an impossible
    /// value (id out of range, mismatched array length, …).
    Corrupt(String),
    /// The snapshot was taken from different inputs than the resume call's
    /// (graph / workload / trace / config / schedule fingerprint differs).
    InputMismatch {
        /// Fingerprint stored in the snapshot.
        stored: u64,
        /// Fingerprint of the inputs handed to resume.
        expected: u64,
    },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io { op, path, msg } => {
                write!(f, "checkpoint {op} failed for {path}: {msg}")
            }
            CkptError::Parse(msg) => write!(f, "torn or invalid checkpoint: {msg}"),
            CkptError::Schema(found) => {
                write!(f, "checkpoint schema {found:?}, expected {CKPT_SCHEMA:?}")
            }
            CkptError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CkptError::InputMismatch { stored, expected } => write!(
                f,
                "checkpoint was taken from different inputs \
                 (fingerprint {stored:#018x}, expected {expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for CkptError {}

/// A frozen mid-day simulator state: everything mutable the epoch loop
/// carries across hours, plus the accumulated day records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// FNV-1a hash of every input (see [`fingerprint`]).
    pub fingerprint: u64,
    /// The last *completed* hour; resume continues at `hour + 1`.
    pub hour: u32,
    /// The TOP placement cost at hour 0.
    pub initial_cost: Cost,
    /// The incumbent placement's switches, in SFC order.
    pub placement: Vec<NodeId>,
    /// Current host of every VM (PLAN/MCF move VMs mid-day).
    pub hosts: Vec<NodeId>,
    /// Switches down at end of `hour`, in id order.
    pub failed_nodes: Vec<NodeId>,
    /// Explicitly failed links at end of `hour`, in id order.
    pub failed_edges: Vec<EdgeId>,
    /// The serving component's candidate switches, in id order. Stored
    /// rather than re-derived: stranding was computed against the VM
    /// endpoints of the *election* hour, which VM migration may since have
    /// changed.
    pub candidates: Vec<NodeId>,
    /// Per-flow stranded mask of the serving view; restore zeroes these
    /// flows' `trace.rates_at(hour)`.
    pub stranded: Vec<bool>,
    /// Hour records accumulated so far (hours `1..=hour`).
    pub hours: Vec<HourRecord>,
    /// Degradation records accumulated so far. Phase timings are not
    /// persisted (they are wall-clock noise); restored records carry
    /// `phase: None`.
    pub degraded: Vec<DegradedHourRecord>,
    /// Running served-cost total.
    pub total_cost: Cost,
    /// Running migration count (policy + recovery).
    pub total_migrations: usize,
    /// Aggregate builds so far (hour 0 plus event hours).
    pub aggregate_rebuilds: usize,
    /// Hours skipped as blackouts so far.
    pub blackout_hours: usize,
    /// Recovery migrations so far.
    pub recovery_migrations: usize,
}

fn prov_code(p: HourProvenance) -> u64 {
    match p {
        HourProvenance::Exact => 0,
        HourProvenance::DegradedDeadline => 1,
        HourProvenance::LastKnownGood => 2,
        HourProvenance::Blackout => 3,
    }
}

fn prov_from_code(c: u64) -> Result<HourProvenance, CkptError> {
    match c {
        0 => Ok(HourProvenance::Exact),
        1 => Ok(HourProvenance::DegradedDeadline),
        2 => Ok(HourProvenance::LastKnownGood),
        3 => Ok(HourProvenance::Blackout),
        _ => Err(CkptError::Corrupt(format!("unknown provenance code {c}"))),
    }
}

impl Checkpoint {
    /// Serializes to the deterministic `ppdc-ckpt/v3` JSON document. Two
    /// equal checkpoints always produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{CKPT_SCHEMA}\",\n"));
        out.push_str(&format!("  \"fingerprint\": {},\n", self.fingerprint));
        out.push_str(&format!("  \"hour\": {},\n", self.hour));
        out.push_str(&format!("  \"initial_cost\": {},\n", self.initial_cost));
        let ids = |v: &[NodeId]| v.iter().map(|n| u64::from(n.0)).collect::<Vec<u64>>();
        push_list(&mut out, "placement", ids(&self.placement));
        push_list(&mut out, "hosts", ids(&self.hosts));
        push_list(&mut out, "failed_nodes", ids(&self.failed_nodes));
        push_list(
            &mut out,
            "failed_edges",
            self.failed_edges.iter().map(|e| u64::from(e.0)),
        );
        push_list(&mut out, "candidates", ids(&self.candidates));
        out.push_str("  \"stranded\": [");
        for (i, s) in self.stranded.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push(if *s { '1' } else { '0' });
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"totals\": {{\"total_cost\": {}, \"total_migrations\": {}, \
             \"aggregate_rebuilds\": {}, \"blackout_hours\": {}, \
             \"recovery_migrations\": {}}},\n",
            self.total_cost,
            self.total_migrations,
            self.aggregate_rebuilds,
            self.blackout_hours,
            self.recovery_migrations
        ));
        // Hour records as compact rows:
        // [hour, migration_cost, comm_cost, total_cost, num_migrations].
        out.push_str("  \"hours\": [");
        for (i, r) in self.hours.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[{},{},{},{},{}]",
                r.hour, r.migration_cost, r.comm_cost, r.total_cost, r.num_migrations
            ));
        }
        out.push_str("],\n");
        // Degraded records as compact rows: [hour, failed_switches,
        // failed_links, stranded_flows, stranded_rate, reroute_cost,
        // recovery_migrations, blackout, degraded_solver, provenance,
        // solver_retries].
        out.push_str("  \"degraded\": [");
        for (i, d) in self.degraded.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[{},{},{},{},{},{},{},{},{},{},{}]",
                d.hour,
                d.failed_switches,
                d.failed_links,
                d.stranded_flows,
                d.stranded_rate,
                d.reroute_cost,
                d.recovery_migrations,
                u8::from(d.blackout),
                u8::from(d.degraded_solver),
                prov_code(d.provenance),
                d.solver_retries
            ));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a `ppdc-ckpt/v3` document.
    ///
    /// # Errors
    ///
    /// [`CkptError::Parse`] on torn/invalid JSON, [`CkptError::Schema`] on
    /// a foreign document, [`CkptError::Corrupt`] on missing or malformed
    /// fields. Semantic validation against the run inputs happens
    /// separately in [`Checkpoint::validate_against`].
    pub fn from_json(src: &str) -> Result<Self, CkptError> {
        let v = json::parse(src).map_err(|e| CkptError::Parse(e.to_string()))?;
        let top = as_obj(&v, "document")?;
        match str_field(top, "schema") {
            Ok(s) if s == CKPT_SCHEMA => {}
            Ok(s) => return Err(CkptError::Schema(s.to_string())),
            Err(_) => return Err(CkptError::Schema("<missing>".to_string())),
        }
        let totals = as_obj(field(top, "totals")?, "totals")?;
        let hours = arr_field(top, "hours")?
            .iter()
            .map(|row| {
                let r = row_u64(row, 5, "hours")?;
                Ok(HourRecord {
                    hour: to_u32(r[0], "hour")?,
                    migration_cost: r[1],
                    comm_cost: r[2],
                    total_cost: r[3],
                    num_migrations: to_usize(r[4])?,
                })
            })
            .collect::<Result<Vec<_>, CkptError>>()?;
        let degraded = arr_field(top, "degraded")?
            .iter()
            .map(|row| {
                let r = row_u64(row, 11, "degraded")?;
                Ok(DegradedHourRecord {
                    hour: to_u32(r[0], "hour")?,
                    failed_switches: to_usize(r[1])?,
                    failed_links: to_usize(r[2])?,
                    stranded_flows: to_usize(r[3])?,
                    stranded_rate: r[4],
                    reroute_cost: r[5],
                    recovery_migrations: to_usize(r[6])?,
                    blackout: r[7] != 0,
                    degraded_solver: r[8] != 0,
                    provenance: prov_from_code(r[9])?,
                    solver_retries: to_u32(r[10], "solver_retries")?,
                    phase: None,
                })
            })
            .collect::<Result<Vec<_>, CkptError>>()?;
        Ok(Checkpoint {
            fingerprint: u64_field(top, "fingerprint")?,
            hour: to_u32(u64_field(top, "hour")?, "hour")?,
            initial_cost: u64_field(top, "initial_cost")?,
            placement: node_ids(top, "placement")?,
            hosts: node_ids(top, "hosts")?,
            failed_nodes: node_ids(top, "failed_nodes")?,
            failed_edges: u64_arr(arr_field(top, "failed_edges")?, "failed_edges")?
                .into_iter()
                .map(|x| Ok(EdgeId(to_u32(x, "failed_edges")?)))
                .collect::<Result<Vec<_>, CkptError>>()?,
            candidates: node_ids(top, "candidates")?,
            stranded: u64_arr(arr_field(top, "stranded")?, "stranded")?
                .into_iter()
                .map(|x| x != 0)
                .collect(),
            hours,
            degraded,
            total_cost: u64_field(totals, "total_cost")?,
            total_migrations: to_usize(u64_field(totals, "total_migrations")?)?,
            aggregate_rebuilds: to_usize(u64_field(totals, "aggregate_rebuilds")?)?,
            blackout_hours: to_usize(u64_field(totals, "blackout_hours")?)?,
            recovery_migrations: to_usize(u64_field(totals, "recovery_migrations")?)?,
        })
    }

    /// Semantic validation against the inputs of the run being resumed:
    /// fingerprint match, hour within the day, every array shaped for this
    /// graph/workload/SFC, every id in range.
    ///
    /// # Errors
    ///
    /// [`CkptError::InputMismatch`] or [`CkptError::Corrupt`].
    pub fn validate_against(
        &self,
        g: &Graph,
        w: &Workload,
        sfc: &Sfc,
        n_hours: u32,
        expected_fingerprint: u64,
    ) -> Result<(), CkptError> {
        if self.fingerprint != expected_fingerprint {
            return Err(CkptError::InputMismatch {
                stored: self.fingerprint,
                expected: expected_fingerprint,
            });
        }
        if self.hour == 0 || self.hour > n_hours {
            return Err(CkptError::Corrupt(format!(
                "hour {} outside 1..={n_hours}",
                self.hour
            )));
        }
        let shape = [
            ("placement", self.placement.len(), sfc.len()),
            ("hosts", self.hosts.len(), w.num_vms()),
            ("stranded", self.stranded.len(), w.num_flows()),
            ("hours", self.hours.len(), self.hour as usize),
            ("degraded", self.degraded.len(), self.hour as usize),
        ];
        for (name, got, want) in shape {
            if got != want {
                return Err(CkptError::Corrupt(format!(
                    "{name} has {got} entries, expected {want}"
                )));
            }
        }
        let n = g.num_nodes();
        for (name, list) in [
            ("placement", &self.placement),
            ("hosts", &self.hosts),
            ("failed_nodes", &self.failed_nodes),
            ("candidates", &self.candidates),
        ] {
            if let Some(bad) = list.iter().find(|id| id.index() >= n) {
                return Err(CkptError::Corrupt(format!(
                    "{name} references node {} outside the graph",
                    bad.0
                )));
            }
        }
        if let Some(bad) = self
            .failed_edges
            .iter()
            .find(|e| e.index() >= g.num_edges())
        {
            return Err(CkptError::Corrupt(format!(
                "failed_edges references edge {} outside the graph",
                bad.0
            )));
        }
        Ok(())
    }
}

pub(crate) fn as_obj<'a>(
    v: &'a Value,
    what: &str,
) -> Result<&'a BTreeMap<String, Value>, CkptError> {
    v.as_obj()
        .ok_or_else(|| CkptError::Corrupt(format!("{what} is not an object")))
}

pub(crate) fn field<'a>(o: &'a BTreeMap<String, Value>, k: &str) -> Result<&'a Value, CkptError> {
    o.get(k)
        .ok_or_else(|| CkptError::Corrupt(format!("missing field {k:?}")))
}

pub(crate) fn str_field<'a>(o: &'a BTreeMap<String, Value>, k: &str) -> Result<&'a str, CkptError> {
    field(o, k)?
        .as_str()
        .ok_or_else(|| CkptError::Corrupt(format!("field {k:?} is not a string")))
}

pub(crate) fn u64_field(o: &BTreeMap<String, Value>, k: &str) -> Result<u64, CkptError> {
    field(o, k)?
        .as_u64()
        .ok_or_else(|| CkptError::Corrupt(format!("field {k:?} is not a u64")))
}

pub(crate) fn arr_field<'a>(
    o: &'a BTreeMap<String, Value>,
    k: &str,
) -> Result<&'a [Value], CkptError> {
    field(o, k)?
        .as_arr()
        .ok_or_else(|| CkptError::Corrupt(format!("field {k:?} is not an array")))
}

pub(crate) fn u64_arr(vals: &[Value], what: &str) -> Result<Vec<u64>, CkptError> {
    vals.iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| CkptError::Corrupt(format!("{what} holds a non-u64 entry")))
        })
        .collect()
}

pub(crate) fn node_ids(o: &BTreeMap<String, Value>, k: &str) -> Result<Vec<NodeId>, CkptError> {
    u64_arr(arr_field(o, k)?, k)?
        .into_iter()
        .map(|x| Ok(NodeId(to_u32(x, k)?)))
        .collect()
}

pub(crate) fn row_u64(row: &Value, len: usize, what: &str) -> Result<Vec<u64>, CkptError> {
    let arr = row
        .as_arr()
        .ok_or_else(|| CkptError::Corrupt(format!("{what} row is not an array")))?;
    if arr.len() != len {
        return Err(CkptError::Corrupt(format!(
            "{what} row has {} entries, expected {len}",
            arr.len()
        )));
    }
    u64_arr(arr, what)
}

pub(crate) fn to_u32(x: u64, what: &str) -> Result<u32, CkptError> {
    u32::try_from(x).map_err(|_| CkptError::Corrupt(format!("{what} value {x} exceeds u32")))
}

pub(crate) fn to_usize(x: u64) -> Result<usize, CkptError> {
    usize::try_from(x).map_err(|_| CkptError::Corrupt(format!("value {x} exceeds usize")))
}

/// FNV-1a over every input that shapes a fault-aware day. Two runs with
/// equal fingerprints walk bit-identical trajectories, so a checkpoint is
/// resumable exactly when the fingerprints agree.
pub fn fingerprint(
    g: &Graph,
    w: &Workload,
    trace: &DynamicTrace,
    sfc: &Sfc,
    cfg: &SimConfig,
    schedule: &FaultSchedule,
) -> u64 {
    let mut h = Fnv::new();
    hash_instance(&mut h, g, w, sfc);
    h.u64(cfg.mu);
    h.u64(cfg.vm_mu);
    let (tag, a, b) = match cfg.policy {
        MigrationPolicy::MPareto => (0u64, 0u64, 0u64),
        MigrationPolicy::OptimalVnf { budget } => (1, budget, 0),
        MigrationPolicy::Plan { slots, passes } => (2, slots as u64, passes as u64),
        MigrationPolicy::Mcf { slots, candidates } => (3, slots as u64, candidates as u64),
        MigrationPolicy::NoMigration => (4, 0, 0),
    };
    h.u64(tag);
    h.u64(a);
    h.u64(b);
    let n_hours = schedule.n_hours();
    h.u64(u64::from(n_hours));
    for e in schedule.events() {
        h.u64(u64::from(e.hour));
        let (k, id) = match e.kind {
            crate::fault::FaultKind::FailSwitch(n) => (0u64, u64::from(n.0)),
            crate::fault::FaultKind::RepairSwitch(n) => (1, u64::from(n.0)),
            crate::fault::FaultKind::FailLink(l) => (2, u64::from(l.0)),
            crate::fault::FaultKind::RepairLink(l) => (3, u64::from(l.0)),
        };
        h.u64(k);
        h.u64(id);
    }
    hash_trace(&mut h, trace);
    h.finish()
}

/// Hashes the inputs both engines share: the graph, the workload's VM
/// hosts and flow endpoints, and the SFC length.
pub(crate) fn hash_instance(h: &mut Fnv, g: &Graph, w: &Workload, sfc: &Sfc) {
    h.u64(g.num_nodes() as u64);
    h.u64(g.num_edges() as u64);
    for (u, v, c) in g.edges() {
        h.u64(u64::from(u.0));
        h.u64(u64::from(v.0));
        h.u64(c);
    }
    h.u64(w.num_vms() as u64);
    h.u64(w.num_flows() as u64);
    for v in w.vm_ids() {
        h.u64(u64::from(w.host_of(v).0));
    }
    for f in w.flow_ids() {
        let fl = w.flow(f);
        h.u64(u64::from(fl.src.0));
        h.u64(u64::from(fl.dst.0));
    }
    h.u64(sfc.len() as u64);
}

/// Hashes a trace by its defining inputs ([`DynamicTrace::inputs`]): the
/// model (`n_hours`, `tau_min` bits), the cohort offset, the cohort flags
/// (64 to a word) and every base-rate row. Every hour's rate vector is a
/// pure function of these, so no rate is derived here.
pub(crate) fn hash_trace(h: &mut Fnv, trace: &DynamicTrace) {
    let t = trace.inputs();
    h.u64(u64::from(t.model.n_hours));
    h.u64(t.model.tau_min.to_bits());
    h.u64(u64::from_le_bytes(t.offset.to_le_bytes()));
    h.u64(t.east.len() as u64);
    for flags in t.east.chunks(64) {
        h.u64(
            flags
                .iter()
                .enumerate()
                .fold(0u64, |word, (i, &e)| word | (u64::from(e) << i)),
        );
    }
    h.u64(t.base.len() as u64);
    for row in t.base {
        h.u64(row.len() as u64);
        for &r in row {
            h.u64(r);
        }
    }
}

/// FNV-1a over 64-bit words: one xor-multiply per word.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Appends `x` in decimal without allocating.
fn push_u64(out: &mut String, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    for &d in &digits[i..] {
        out.push(char::from(d));
    }
}

/// Appends `"  \"key\": [a,b,...],\n"` for a list of integers.
pub(crate) fn push_list(out: &mut String, key: &str, xs: impl IntoIterator<Item = u64>) {
    out.push_str("  \"");
    out.push_str(key);
    out.push_str("\": [");
    for (i, x) in xs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, x);
    }
    out.push_str("],\n");
}

/// Which on-disk slot a checkpoint was recovered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptSlot {
    /// The primary file was intact.
    Primary,
    /// The primary file was torn/corrupt; the rotated `.prev` snapshot
    /// (one checkpoint interval older) was used instead.
    Previous,
}

/// Atomic two-slot checkpoint storage.
///
/// Writes go to `<path>.tmp`, are fsynced, and land via rename; the
/// previously-current snapshot is rotated to `<path>.prev` first. A crash
/// at any point leaves at least one loadable snapshot on disk (after the
/// first successful write), and [`CheckpointStore::load`] transparently
/// falls back to the `.prev` slot when the primary is torn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointStore {
    path: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `path` (the primary snapshot file).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointStore { path: path.into() }
    }

    /// The primary snapshot path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The rotated previous-snapshot path (`<path>.prev`).
    pub fn prev_path(&self) -> PathBuf {
        suffixed(&self.path, ".prev")
    }

    /// Atomically persists `ckpt`: serialize to `<path>.tmp`, fsync,
    /// rotate the current primary (if any) to `.prev`, rename the tmp file
    /// into place. Feeds the `ckpt.writes` / `ckpt.write_nanos` counters
    /// of the global obs registry when it is enabled.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] with the failing operation and path.
    pub fn write(&self, ckpt: &Checkpoint) -> Result<(), CkptError> {
        self.write_raw(&ckpt.to_json())
    }

    /// The slot machinery behind [`CheckpointStore::write`], usable with
    /// any serialized snapshot document (the streaming engine persists its
    /// own `ppdc-stream-ckpt/v3` schema through the same store).
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] with the failing operation and path.
    pub fn write_raw(&self, doc: &str) -> Result<(), CkptError> {
        let obs = ppdc_obs::global();
        let sw = Stopwatch::start_if(obs.is_enabled());
        let tmp = suffixed(&self.path, ".tmp");
        let io = |op: &'static str, p: &Path, e: std::io::Error| CkptError::Io {
            op,
            path: p.display().to_string(),
            msg: e.to_string(),
        };
        let mut f = fs::File::create(&tmp).map_err(|e| io("create", &tmp, e))?;
        f.write_all(doc.as_bytes())
            .map_err(|e| io("write", &tmp, e))?;
        f.sync_all().map_err(|e| io("fsync", &tmp, e))?;
        drop(f);
        if self.path.exists() {
            let prev = self.prev_path();
            fs::rename(&self.path, &prev).map_err(|e| io("rotate", &prev, e))?;
        }
        fs::rename(&tmp, &self.path).map_err(|e| io("rename", &self.path, e))?;
        obs.add(obs_names::CKPT_WRITES, 1);
        obs.add(obs_names::CKPT_WRITE_NANOS, sw.elapsed_ns());
        Ok(())
    }

    /// Loads the most recent intact snapshot: the primary if it parses,
    /// else the rotated `.prev` fallback. The returned [`CkptSlot`] says
    /// which one survived.
    ///
    /// # Errors
    ///
    /// The *primary's* error when neither slot holds a loadable snapshot.
    pub fn load(&self) -> Result<(Checkpoint, CkptSlot), CkptError> {
        self.load_with(Checkpoint::from_json)
    }

    /// [`CheckpointStore::load`] generalized over the snapshot parser:
    /// torn-primary detection is the parser failing, so any schema gets
    /// the same two-slot recovery (including the `ckpt.torn_recoveries`
    /// counter on fallback).
    ///
    /// # Errors
    ///
    /// The *primary's* error when neither slot parses.
    pub fn load_with<T>(
        &self,
        parse: impl Fn(&str) -> Result<T, CkptError>,
    ) -> Result<(T, CkptSlot), CkptError> {
        match self.load_slot(&self.path, &parse) {
            Ok(c) => Ok((c, CkptSlot::Primary)),
            Err(primary_err) => match self.load_slot(&self.prev_path(), &parse) {
                Ok(c) => {
                    ppdc_obs::global().add(obs_names::CKPT_TORN_RECOVERIES, 1);
                    Ok((c, CkptSlot::Previous))
                }
                Err(_) => Err(primary_err),
            },
        }
    }

    fn load_slot<T>(
        &self,
        path: &Path,
        parse: impl Fn(&str) -> Result<T, CkptError>,
    ) -> Result<T, CkptError> {
        let src = fs::read_to_string(path).map_err(|e| CkptError::Io {
            op: "read",
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        parse(&src)
    }
}

fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(suffix);
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(hour: u32) -> Checkpoint {
        Checkpoint {
            fingerprint: 0xDEAD_BEEF,
            hour,
            initial_cost: 1234,
            placement: vec![NodeId(4), NodeId(5), NodeId(6)],
            hosts: vec![NodeId(20), NodeId(21)],
            failed_nodes: vec![NodeId(4)],
            failed_edges: vec![EdgeId(7)],
            candidates: vec![NodeId(5), NodeId(6)],
            stranded: vec![false, true],
            hours: vec![HourRecord {
                hour: 1,
                migration_cost: 3,
                comm_cost: 40,
                total_cost: 43,
                num_migrations: 1,
            }],
            degraded: vec![DegradedHourRecord {
                hour: 1,
                failed_switches: 1,
                failed_links: 1,
                stranded_flows: 1,
                stranded_rate: 5,
                reroute_cost: 2,
                recovery_migrations: 1,
                blackout: false,
                degraded_solver: true,
                provenance: HourProvenance::DegradedDeadline,
                solver_retries: 2,
                phase: None,
            }],
            total_cost: 43,
            total_migrations: 1,
            aggregate_rebuilds: 2,
            blackout_hours: 0,
            recovery_migrations: 1,
        }
    }

    #[test]
    fn pre_v2_documents_are_refused_by_schema() {
        let doc = sample(1).to_json().replace(CKPT_SCHEMA, "ppdc-ckpt/v1");
        assert_eq!(
            Checkpoint::from_json(&doc),
            Err(CkptError::Schema("ppdc-ckpt/v1".to_string()))
        );
    }

    /// A `/v2` document, as the engine wrote it when snapshots carried
    /// the rate vector, is refused by its schema tag rather than resumed.
    #[test]
    fn v2_documents_with_rates_are_refused_by_schema() {
        let v2 = r#"{
  "schema": "ppdc-ckpt/v2",
  "fingerprint": 3735928559,
  "hour": 1,
  "initial_cost": 1234,
  "placement": [4,5,6],
  "hosts": [20,21],
  "rates": [10,0],
  "failed_nodes": [4],
  "failed_edges": [7],
  "candidates": [5,6],
  "stranded": [0,1],
  "totals": {"total_cost": 43, "total_migrations": 1, "aggregate_rebuilds": 2, "blackout_hours": 0, "recovery_migrations": 1},
  "hours": [[1,3,40,43,1]],
  "degraded": [[1,1,1,1,5,2,1,0,1,1,2]]
}
"#;
        assert_eq!(
            Checkpoint::from_json(v2),
            Err(CkptError::Schema("ppdc-ckpt/v2".to_string()))
        );
    }

    #[test]
    fn json_round_trip_is_lossless_and_deterministic() {
        let c = sample(1);
        let j = c.to_json();
        assert_eq!(j, c.to_json(), "serialization is deterministic");
        let back = Checkpoint::from_json(&j).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn torn_documents_yield_typed_parse_errors() {
        let j = sample(1).to_json();
        for cut in [0, 1, j.len() / 2, j.len() - 2] {
            let torn = &j[..cut];
            assert!(
                matches!(
                    Checkpoint::from_json(torn),
                    Err(CkptError::Parse(_) | CkptError::Schema(_) | CkptError::Corrupt(_))
                ),
                "cut at {cut} must be rejected"
            );
        }
        assert!(matches!(
            Checkpoint::from_json("{\"schema\": \"other/v1\"}"),
            Err(CkptError::Schema(_))
        ));
    }

    #[test]
    fn store_rotates_and_recovers_from_torn_primary() {
        let dir = std::env::temp_dir().join(format!("ppdc-ckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("day.ckpt"));
        let c1 = sample(1);
        let c2 = sample(2);
        store.write(&c1).unwrap();
        let (got, slot) = store.load().unwrap();
        assert_eq!(slot, CkptSlot::Primary);
        assert_eq!(got, c1);
        store.write(&c2).unwrap();
        // The previous snapshot rotated into the .prev slot.
        assert!(store.prev_path().exists());
        // Tear the primary mid-file: load falls back to hour 1.
        let bytes = fs::read(store.path()).unwrap();
        fs::write(store.path(), &bytes[..bytes.len() / 2]).unwrap();
        let (got, slot) = store.load().unwrap();
        assert_eq!(slot, CkptSlot::Previous);
        assert_eq!(got, c1);
        // Both slots gone: the primary's error surfaces.
        fs::remove_file(store.path()).unwrap();
        fs::remove_file(store.prev_path()).unwrap();
        assert!(matches!(store.load(), Err(CkptError::Io { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn validation_rejects_shape_and_range_violations() {
        use ppdc_topology::FatTree;
        let ft = FatTree::build(2).unwrap();
        let g = ft.graph();
        let mut w = Workload::new();
        let hosts: Vec<NodeId> = g.hosts().collect();
        w.add_pair(hosts[0], hosts[1], 5);
        w.add_pair(hosts[1], hosts[0], 7);
        let sfc = Sfc::of_len(3).unwrap();
        let mut c = sample(1);
        c.hosts = vec![hosts[0], hosts[0], hosts[1], hosts[1]];
        c.placement = vec![NodeId(0), NodeId(1), NodeId(2)];
        c.failed_nodes.clear();
        c.failed_edges.clear();
        c.candidates = vec![NodeId(0)];
        assert!(c.validate_against(g, &w, &sfc, 12, c.fingerprint).is_ok());
        assert!(matches!(
            c.validate_against(g, &w, &sfc, 12, c.fingerprint + 1),
            Err(CkptError::InputMismatch { .. })
        ));
        let mut bad = c.clone();
        bad.hour = 13;
        assert!(matches!(
            bad.validate_against(g, &w, &sfc, 12, c.fingerprint),
            Err(CkptError::Corrupt(_))
        ));
        let mut bad = c.clone();
        bad.stranded.push(false);
        assert!(matches!(
            bad.validate_against(g, &w, &sfc, 12, c.fingerprint),
            Err(CkptError::Corrupt(_))
        ));
        let mut bad = c.clone();
        bad.placement[0] = NodeId(10_000);
        assert!(matches!(
            bad.validate_against(g, &w, &sfc, 12, c.fingerprint),
            Err(CkptError::Corrupt(_))
        ));
    }
}
