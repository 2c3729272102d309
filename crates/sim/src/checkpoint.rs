//! Crash-safe epoch checkpoints: one append-only journal for both engines.
//!
//! A [`Checkpoint`] freezes everything [`crate::run_day`] needs to restart
//! a fault-aware day from the last completed hour and finish it
//! **bit-identically** to the uninterrupted run: the incumbent placement,
//! the workload's current VM hosts, the fault set, the elected serving
//! view, and the day so far (a [`FaultSimResult`]: every accumulated
//! per-hour record and the running totals). What
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
//! Both engines write one journal format (`ppdc-ckpt/v6` here,
//! `ppdc-stream-ckpt/v5` in [`crate::stream`]): a header line
//! `{"schema","fingerprint","initial_cost"}`, then one line per snapshot
//! with the records since the line before and the engine's state. A run's
//! first snapshot writes it atomically ([`CheckpointStore::write_raw`]),
//! later ones append a synced line ([`CheckpointStore::append`]). The
//! reader requires records `1, 2, …`, takes the state from the last line,
//! re-derives the totals, discards an unterminated (torn) tail, and
//! refuses a whole document of another schema by its tag.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use ppdc_model::{Sfc, Workload};
use ppdc_obs::json::{self, Value};
use ppdc_obs::{names as obs_names, Stopwatch};
use ppdc_topology::{Cost, EdgeId, Graph, NodeId};
use ppdc_traffic::DynamicTrace;

use crate::fault::{DegradedHourRecord, FaultSchedule, FaultSimResult, HourProvenance};
use crate::simulator::{HourRecord, MigrationPolicy, SimConfig};

/// Version tag of the hourly engine's journal; restore rejects anything
/// else. `/v6` appends a line per hour where `/v5` rewrote the whole day;
/// both hash the inputs in four lanes (see [`fingerprint`]).
pub const CKPT_SCHEMA: &str = "ppdc-ckpt/v6";

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
    /// No complete header and snapshot line survive.
    Parse(String),
    /// The file declares another schema than the reader's.
    Schema {
        /// The tag the file declares (`<missing>` when it has none).
        found: String,
        /// The tag the reader accepts.
        expected: &'static str,
    },
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
            CkptError::Schema { found, expected } => {
                write!(f, "checkpoint schema {found:?}, expected {expected:?}")
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
/// carries across hours, plus the day so far.
///
/// A `ppdc-ckpt/v6` line holds the rows since the line before, the fields
/// below but `fingerprint` and `hour`, and `aggregate_rebuilds`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// FNV-1a hash of every input (see [`fingerprint`]).
    pub fingerprint: u64,
    /// The last *completed* hour; resume continues at `hour + 1`.
    pub hour: u32,
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
    /// The day through `hour`: its records (hours `1..=hour`) and running
    /// totals. Phase timings are not persisted (they are wall-clock
    /// noise); restored records carry `phase: None`.
    pub result: FaultSimResult,
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
    /// Writes one `ppdc-ckpt/v6` line: `hours` and `degraded` (the rows
    /// since the line before), then this snapshot's state. The engine
    /// passes a checkpoint whose own rows are left empty.
    pub(crate) fn push_line(
        &self,
        out: &mut String,
        hours: &[HourRecord],
        degraded: &[DegradedHourRecord],
    ) {
        push_key(out, '{', "hours");
        push_rows(
            out,
            hours.iter().map(|r| {
                [
                    u64::from(r.hour),
                    r.migration_cost,
                    r.comm_cost,
                    r.total_cost,
                    r.num_migrations as u64,
                ]
            }),
        );
        push_key(out, ',', "degraded");
        push_rows(
            out,
            degraded.iter().map(|d| {
                [
                    u64::from(d.hour),
                    d.failed_switches as u64,
                    d.failed_links as u64,
                    d.stranded_flows as u64,
                    d.stranded_rate,
                    d.reroute_cost,
                    d.recovery_migrations as u64,
                    u64::from(d.blackout),
                    u64::from(d.degraded_solver),
                    prov_code(d.provenance),
                    u64::from(d.solver_retries),
                ]
            }),
        );
        for (key, ids) in [
            ("placement", &self.placement),
            ("hosts", &self.hosts),
            ("failed_nodes", &self.failed_nodes),
            ("candidates", &self.candidates),
        ] {
            push_key(out, ',', key);
            push_row(out, ids.iter().map(|n| u64::from(n.0)));
        }
        push_key(out, ',', "failed_edges");
        push_row(out, self.failed_edges.iter().map(|e| u64::from(e.0)));
        push_key(out, ',', "stranded");
        push_row(out, self.stranded.iter().map(|&x| u64::from(x)));
        push_key(out, ',', "aggregate_rebuilds");
        push_u64(out, self.result.aggregate_rebuilds as u64);
        out.push_str("}\n");
    }

    /// Serializes to a deterministic `ppdc-ckpt/v6` journal: the header
    /// and one line holding every hour record.
    pub fn to_json(&self) -> String {
        let (mut out, day) = (String::new(), &self.result);
        push_header(&mut out, CKPT_SCHEMA, self.fingerprint, day.initial_cost);
        self.push_line(&mut out, &day.hours, &day.degraded);
        out
    }

    /// Parses a `ppdc-ckpt/v6` journal (see the module docs); the totals
    /// are re-derived from the rows as the engine accumulates them.
    ///
    /// # Errors
    ///
    /// [`CkptError::Parse`] when no complete header and snapshot line
    /// survive, [`CkptError::Schema`] on another schema, else
    /// [`CkptError::Corrupt`] on malformed lines, fields or record runs.
    /// [`Checkpoint::validate_against`] checks it against the run inputs.
    pub fn from_json(src: &str) -> Result<Self, CkptError> {
        let journal = read_journal(src, CKPT_SCHEMA)?;
        let hours = journal.records("hours", 5, |r| {
            Ok(HourRecord {
                hour: to_u32(r[0], "hour")?,
                migration_cost: r[1],
                comm_cost: r[2],
                total_cost: r[3],
                num_migrations: to_usize(r[4])?,
            })
        })?;
        let degraded = journal.records("degraded", 11, |r| {
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
        })?;
        let last = &journal.last;
        Ok(Checkpoint {
            fingerprint: journal.fingerprint,
            hour: to_u32(hours.len() as u64, "hour")?,
            placement: ids(last, "placement", NodeId)?,
            hosts: ids(last, "hosts", NodeId)?,
            failed_nodes: ids(last, "failed_nodes", NodeId)?,
            failed_edges: ids(last, "failed_edges", EdgeId)?,
            candidates: ids(last, "candidates", NodeId)?,
            stranded: ids(last, "stranded", |x| x != 0)?,
            result: FaultSimResult {
                initial_cost: journal.initial_cost,
                total_cost: hours
                    .iter()
                    .fold(0, |t: Cost, r| t.saturating_add(r.total_cost)),
                total_migrations: hours.iter().map(|r| r.num_migrations).sum(),
                aggregate_rebuilds: to_usize(u64_field(last, "aggregate_rebuilds")?)?,
                blackout_hours: degraded.iter().filter(|d| d.blackout).count(),
                recovery_migrations: degraded.iter().map(|d| d.recovery_migrations).sum(),
                hours,
                degraded,
            },
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
            ("hours", self.result.hours.len(), self.hour as usize),
            ("degraded", self.result.degraded.len(), self.hour as usize),
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

/// The journal header line: schema tag, input fingerprint and hour-0 cost.
pub(crate) fn push_header(out: &mut String, schema: &str, fingerprint: u64, initial_cost: Cost) {
    out.push_str("{\"schema\":\"");
    out.push_str(schema);
    out.push_str("\",\"fingerprint\":");
    push_u64(out, fingerprint);
    out.push_str(",\"initial_cost\":");
    push_u64(out, initial_cost);
    out.push_str("}\n");
}

/// Appends `sep` (`{` before a line's first field, else `,`) and
/// `"key":`.
pub(crate) fn push_key(out: &mut String, sep: char, key: &str) {
    out.push(sep);
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

/// Appends `[[a,b,…],…]`, one row per record.
pub(crate) fn push_rows<R: IntoIterator<Item = u64>>(
    out: &mut String,
    rows: impl IntoIterator<Item = R>,
) {
    out.push('[');
    for (i, row) in rows.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_row(out, row);
    }
    out.push(']');
}

/// A parsed JSON object: a journal line or header.
type Obj = BTreeMap<String, Value>;

/// A journal read back: its header's fields and every complete snapshot
/// line, the last of which holds the snapshot's state.
pub(crate) struct Journal {
    pub(crate) fingerprint: u64,
    pub(crate) initial_cost: Cost,
    earlier: Vec<Obj>,
    pub(crate) last: Obj,
}

/// What a journal reader keeps of `src` (everything before its last
/// newline), and whether it drops an unterminated tail after that.
fn complete_lines(src: &str) -> (&str, bool) {
    let cut = src.rfind('\n').map_or(0, |end| end + 1);
    (&src[..cut.saturating_sub(1)], cut < src.len())
}

/// Reads a journal of `schema`: the header and every newline-terminated
/// line after it. An unterminated final fragment is a torn tail and is
/// discarded.
///
/// # Errors
///
/// [`CkptError::Parse`] when no complete header and snapshot line
/// survive, [`CkptError::Schema`] on a header or a whole document of
/// another schema, [`CkptError::Corrupt`] on a terminated line that is
/// not a JSON object, or a header missing its fields.
pub(crate) fn read_journal(src: &str, schema: &'static str) -> Result<Journal, CkptError> {
    let mut lines = complete_lines(src).0.split('\n');
    let header = match json::parse(lines.next().unwrap_or_default()) {
        Ok(Value::Obj(header)) => header,
        // No schema field: refused below.
        Ok(_) => BTreeMap::new(),
        Err(e) => {
            return Err(foreign_schema(src, schema).unwrap_or(CkptError::Parse(e.to_string())))
        }
    };
    let found = header.get("schema").and_then(Value::as_str);
    if found != Some(schema) {
        return Err(CkptError::Schema {
            found: found.unwrap_or("<missing>").to_string(),
            expected: schema,
        });
    }
    let mut earlier = lines
        .enumerate()
        .map(|(i, line)| match json::parse(line) {
            Ok(Value::Obj(snap)) => Ok(snap),
            _ => Err(CkptError::Corrupt(format!(
                "journal line {} is not a JSON object",
                i + 2
            ))),
        })
        .collect::<Result<Vec<_>, CkptError>>()?;
    let Some(last) = earlier.pop() else {
        return Err(CkptError::Parse(
            "the journal holds no complete snapshot line".to_string(),
        ));
    };
    Ok(Journal {
        fingerprint: u64_field(&header, "fingerprint")?,
        initial_cost: u64_field(&header, "initial_cost")?,
        earlier,
        last,
    })
}

impl Journal {
    /// The records every line holds under `key`, concatenated: rows of
    /// `width` integers whose first is the record's number, which must
    /// continue `1, 2, …`.
    pub(crate) fn records<T>(
        &self,
        key: &str,
        width: usize,
        make: impl Fn(&[u64]) -> Result<T, CkptError>,
    ) -> Result<Vec<T>, CkptError> {
        let mut out = Vec::new();
        for line in self.earlier.iter().chain([&self.last]) {
            for row in arr_field(line, key)? {
                let r = row_u64(row, width, key)?;
                if r[0] != out.len() as u64 + 1 {
                    return Err(CkptError::Corrupt(format!(
                        "{key} record {} follows {} records",
                        r[0],
                        out.len()
                    )));
                }
                out.push(make(&r)?);
            }
        }
        Ok(out)
    }
}

/// The schema a whole JSON document of another layout declares (an
/// older snapshot is one pretty-printed object), so a leftover file is
/// refused by its tag rather than as a torn journal.
fn foreign_schema(src: &str, schema: &'static str) -> Option<CkptError> {
    let v = json::parse(src).ok()?;
    let found = v.as_obj()?.get("schema")?.as_str()?;
    (found != schema).then(|| CkptError::Schema {
        found: found.to_string(),
        expected: schema,
    })
}

pub(crate) fn u64_field(o: &Obj, k: &str) -> Result<u64, CkptError> {
    o.get(k)
        .and_then(Value::as_u64)
        .ok_or_else(|| CkptError::Corrupt(format!("field {k:?} is missing or not a u64")))
}

fn arr_field<'a>(o: &'a Obj, k: &str) -> Result<&'a [Value], CkptError> {
    o.get(k)
        .and_then(Value::as_arr)
        .ok_or_else(|| CkptError::Corrupt(format!("field {k:?} is missing or not an array")))
}

fn u64_arr(vals: &[Value], what: &str) -> Result<Vec<u64>, CkptError> {
    vals.iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| CkptError::Corrupt(format!("{what} holds a non-u64 entry")))
        })
        .collect()
}

/// The `u32` ids under `k`, each wrapped by `id`.
pub(crate) fn ids<T>(o: &Obj, k: &str, id: fn(u32) -> T) -> Result<Vec<T>, CkptError> {
    u64_arr(arr_field(o, k)?, k)?
        .into_iter()
        .map(|x| Ok(id(to_u32(x, k)?)))
        .collect()
}

fn row_u64(row: &Value, len: usize, what: &str) -> Result<Vec<u64>, CkptError> {
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

fn to_usize(x: u64) -> Result<usize, CkptError> {
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
/// hosts and flow endpoints, and the SFC length. Hosts go two to a word,
/// and each flow is one word (`src | dst << 32`).
pub(crate) fn hash_instance(h: &mut Fnv, g: &Graph, w: &Workload, sfc: &Sfc) {
    h.u64(g.num_nodes() as u64);
    h.u64(g.num_edges() as u64);
    for (u, v, c) in g.edges() {
        h.u64(pair(u.0, v.0));
        h.u64(c);
    }
    h.u64(w.num_vms() as u64);
    h.u64(w.num_flows() as u64);
    h.chunked::<2, _>(w.vm_hosts(), |c| pair_of(c, |n| n.0));
    h.chunked::<1, _>(w.flows(), |c| {
        c.first().map_or(0, |fl| pair(fl.src.0, fl.dst.0))
    });
    h.u64(sfc.len() as u64);
}

/// Hashes a trace by its defining inputs ([`DynamicTrace::inputs`]): the
/// model (`n_hours`, `tau_min` bits), the cohort offset, the cohort flags
/// (64 to a word), the base table, hour 0's base ids, and then each later
/// hour's change count, changed flows and new base ids, two ids to a
/// word. Every hour's rate vector is a pure function of these, so no rate
/// is derived here, and a repeated hour costs one word. The base table is
/// strictly increasing, so ids plus the table pin the same rates as every
/// rate hashed by value would, at half the bytes.
pub(crate) fn hash_trace(h: &mut Fnv, trace: &DynamicTrace) {
    let t = trace.inputs();
    h.u64(u64::from(t.model.n_hours));
    h.u64(t.model.tau_min.to_bits());
    h.u64(u64::from_le_bytes(t.offset.to_le_bytes()));
    h.u64(t.east.len() as u64);
    h.chunked::<64, _>(t.east, |flags| {
        flags
            .iter()
            .enumerate()
            .fold(0u64, |word, (i, &e)| word | (u64::from(e) << i))
    });
    h.u64(t.bases.len() as u64);
    h.chunked::<1, _>(t.bases, |c| c.first().copied().unwrap_or(0));
    h.u64(t.row0.len() as u64);
    h.chunked::<2, _>(t.row0, |c| pair_of(c, |id| id));
    h.u64(t.changes.len() as u64);
    for hour in t.changes {
        h.u64(hour.flows().len() as u64);
        h.chunked::<2, _>(hour.flows(), |c| pair_of(c, |f| f));
        h.chunked::<2, _>(hour.ids(), |c| pair_of(c, |id| id));
    }
}

/// Two `u32`s as one word, `lo` in the low half.
fn pair(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | (u64::from(hi) << 32)
}

/// The first two entries of `c` as one word; a missing second one is 0.
fn pair_of<T: Copy>(c: &[T], id: impl Fn(T) -> u32) -> u64 {
    let at = |i: usize| c.get(i).map_or(0, |&x| id(x));
    pair(at(0), at(1))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over 64-bit words in four independent lanes: word `i` folds
/// into lane `i mod 4`, so four multiplies are in flight where one
/// dependent chain ran before. [`Fnv::finish`] folds the word count and
/// the four lanes, in order, with one more FNV-1a pass.
pub(crate) struct Fnv {
    lanes: [u64; 4],
    words: u64,
}

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv {
            lanes: [FNV_OFFSET; 4],
            words: 0,
        }
    }

    pub(crate) fn u64(&mut self, x: u64) {
        let lane = &mut self.lanes[(self.words % 4) as usize];
        *lane = mix(*lane, x);
        self.words += 1;
    }

    /// Hashes one word per `W` entries of `xs`, packed by `word` (a short
    /// last chunk is packed as it is; callers hash the length first, so
    /// that is unambiguous). Equal to [`Fnv::u64`] of each word in turn,
    /// with the lanes held in registers over whole blocks of four words.
    pub(crate) fn chunked<const W: usize, T>(&mut self, xs: &[T], word: impl Fn(&[T]) -> u64) {
        let lead = ((4 - self.words % 4) % 4) as usize;
        let (head, body) = xs.split_at((lead * W).min(xs.len()));
        for c in head.chunks(W) {
            self.u64(word(c));
        }
        let mut blocks = body.chunks_exact(4 * W);
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for block in &mut blocks {
            let (x0, rest) = block.split_at(W);
            let (x1, rest) = rest.split_at(W);
            let (x2, x3) = rest.split_at(W);
            a = mix(a, word(x0));
            b = mix(b, word(x1));
            c = mix(c, word(x2));
            d = mix(d, word(x3));
        }
        self.lanes = [a, b, c, d];
        self.words += (body.len() / (4 * W) * 4) as u64;
        for c in blocks.remainder().chunks(W) {
            self.u64(word(c));
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.lanes
            .iter()
            .fold(mix(FNV_OFFSET, self.words), |h, &lane| mix(h, lane))
    }
}

/// Appends `x` in decimal without allocating.
pub(crate) fn push_u64(out: &mut String, mut x: u64) {
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

/// Appends `[a,b,...]` for a list of integers.
pub(crate) fn push_row(out: &mut String, xs: impl IntoIterator<Item = u64>) {
    out.push('[');
    for (i, x) in xs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, x);
    }
    out.push(']');
}

/// Checkpoint journal storage at one path. After the first successful
/// write a crash at any point leaves the last durable snapshot loadable:
/// the first write is atomic, and a torn append is an unterminated tail,
/// which the journal readers discard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointStore {
    path: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `path` (the journal file).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointStore { path: path.into() }
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Replaces the file with `doc` atomically (`<path>.tmp`, fsync,
    /// rename), then fsyncs the parent directory (`.` for a bare file
    /// name), so the rename itself is durable on return: without it, a
    /// power loss could undo the rename that starts a run's journal.
    /// Feeds the `ckpt.writes` / `ckpt.write_nanos` counters when the
    /// global obs registry is enabled.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] with the failing operation and path.
    pub fn write_raw(&self, doc: &str) -> Result<(), CkptError> {
        let obs = ppdc_obs::global();
        let sw = Stopwatch::start_if(obs.is_enabled());
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut f = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        f.write_all(doc.as_bytes())
            .map_err(|e| io_err("write", &tmp, e))?;
        f.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
        drop(f);
        fs::rename(&tmp, &self.path).map_err(|e| io_err("rename", &self.path, e))?;
        sync_parent(&self.path)?;
        obs.add(obs_names::CKPT_WRITES, 1);
        obs.add(obs_names::CKPT_WRITE_NANOS, sw.elapsed_ns());
        Ok(())
    }

    /// Appends `line` and `sync_data`s it, so it is durable on return (a
    /// crash mid-append leaves a torn tail). Feeds the same counters as
    /// [`CheckpointStore::write_raw`].
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] with the failing operation and path.
    pub fn append(&self, line: &str) -> Result<(), CkptError> {
        let obs = ppdc_obs::global();
        let sw = Stopwatch::start_if(obs.is_enabled());
        let path = &self.path;
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err("open", path, e))?;
        f.write_all(line.as_bytes())
            .map_err(|e| io_err("append", path, e))?;
        f.sync_data().map_err(|e| io_err("fdatasync", path, e))?;
        obs.add(obs_names::CKPT_WRITES, 1);
        obs.add(obs_names::CKPT_WRITE_NANOS, sw.elapsed_ns());
        Ok(())
    }

    /// Persists a run's snapshot for either engine. Its first (`journaled`
    /// is `None`) replaces the journal with `header` and every record,
    /// dropping what an interrupted run left; later ones append the line
    /// of the records after `journaled`, which `line(out, since)` writes.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] with the failing operation and path.
    pub(crate) fn persist(
        &self,
        journaled: Option<usize>,
        header: impl FnOnce(&mut String),
        line: impl FnOnce(&mut String, usize),
    ) -> Result<(), CkptError> {
        let mut text = String::new();
        if let Some(since) = journaled {
            line(&mut text, since);
            self.append(&text)
        } else {
            header(&mut text);
            line(&mut text, 0);
            self.write_raw(&text)
        }
    }

    /// Reads the journal and parses it with `parse` (either engine's
    /// `from_json`). A load that succeeds past a torn tail, which the
    /// reader dropped, bumps the `ckpt.torn_recoveries` counter.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] when the file cannot be read, else `parse`'s.
    pub fn load_with<T>(
        &self,
        parse: impl Fn(&str) -> Result<T, CkptError>,
    ) -> Result<T, CkptError> {
        let src = fs::read_to_string(&self.path).map_err(|e| io_err("read", &self.path, e))?;
        let snapshot = parse(&src)?;
        if complete_lines(&src).1 {
            ppdc_obs::global().add(obs_names::CKPT_TORN_RECOVERIES, 1);
        }
        Ok(snapshot)
    }
}

/// Fsyncs the directory holding `path`, which makes a rename into it
/// durable. Directories can be opened and synced this way on Unix only;
/// elsewhere this is a no-op.
fn sync_parent(path: &Path) -> Result<(), CkptError> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if cfg!(unix) {
        fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("fsync", dir, e))?;
    }
    Ok(())
}

fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> CkptError {
    CkptError::Io {
        op,
        path: path.display().to_string(),
        msg: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(hour: u32) -> Checkpoint {
        let hours = (1..=hour)
            .map(|h| HourRecord {
                hour: h,
                migration_cost: 3,
                comm_cost: 40,
                total_cost: 43,
                num_migrations: 1,
            })
            .collect::<Vec<_>>();
        let degraded = (1..=hour)
            .map(|h| DegradedHourRecord {
                hour: h,
                failed_switches: 1,
                failed_links: 1,
                stranded_flows: 1,
                stranded_rate: 5,
                reroute_cost: 2,
                recovery_migrations: 1,
                blackout: h == 2,
                degraded_solver: true,
                provenance: HourProvenance::DegradedDeadline,
                solver_retries: 2,
                phase: None,
            })
            .collect::<Vec<_>>();
        Checkpoint {
            fingerprint: 0xDEAD_BEEF,
            hour,
            placement: vec![NodeId(4), NodeId(5), NodeId(6)],
            hosts: vec![NodeId(20), NodeId(21)],
            failed_nodes: vec![NodeId(4)],
            failed_edges: vec![EdgeId(7)],
            candidates: vec![NodeId(5), NodeId(6)],
            stranded: vec![false, true],
            result: FaultSimResult {
                initial_cost: 1234,
                total_cost: 43 * u64::from(hour),
                total_migrations: hour as usize,
                aggregate_rebuilds: 2,
                blackout_hours: usize::from(hour >= 2),
                recovery_migrations: hour as usize,
                hours,
                degraded,
            },
        }
    }

    /// The line that brings a journal holding `c`'s first `since` hours
    /// up to `c`, as the engine appends it.
    fn line_since(c: &Checkpoint, since: usize) -> String {
        let mut out = String::new();
        c.push_line(
            &mut out,
            &c.result.hours[since..],
            &c.result.degraded[since..],
        );
        out
    }

    fn schema_err(found: &str) -> Result<Checkpoint, CkptError> {
        Err(CkptError::Schema {
            found: found.to_string(),
            expected: CKPT_SCHEMA,
        })
    }

    /// A journal's first write syncs the directory it renames into. That
    /// directory is found for a path in a freshly created nested
    /// directory and for a bare relative file name, whose parent is the
    /// working directory; either journal then takes an appended line and
    /// loads back.
    #[test]
    fn journals_start_in_a_new_nested_directory_and_under_a_bare_name() {
        let tag = format!("ppdc-ckpt-dirsync-{}", std::process::id());
        let root = std::env::temp_dir().join(&tag);
        let nested = root.join("a").join("b");
        fs::create_dir_all(&nested).unwrap();
        let bare = PathBuf::from(format!("{tag}.ckpt"));
        assert_eq!(bare.parent(), Some(Path::new("")));
        for path in [nested.join("day.ckpt"), bare] {
            let store = CheckpointStore::new(&path);
            let (first, last) = (sample(1), sample(3));
            store.write_raw(&first.to_json()).unwrap();
            assert_eq!(store.load_with(Checkpoint::from_json).unwrap(), first);
            store.append(&line_since(&last, 1)).unwrap();
            assert_eq!(store.load_with(Checkpoint::from_json).unwrap(), last);
            fs::remove_file(&path).unwrap();
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn pre_v2_documents_are_refused_by_schema() {
        let doc = sample(1).to_json().replace(CKPT_SCHEMA, "ppdc-ckpt/v1");
        assert_eq!(Checkpoint::from_json(&doc), schema_err("ppdc-ckpt/v1"));
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
        assert_eq!(Checkpoint::from_json(v2), schema_err("ppdc-ckpt/v2"));
    }

    /// A `/v3` document's fingerprint hashed the trace as one dense row
    /// per hour; it is refused by its schema tag rather than failing
    /// later as a foreign input.
    #[test]
    fn v3_documents_are_refused_by_schema() {
        let doc = sample(1).to_json().replace(CKPT_SCHEMA, "ppdc-ckpt/v3");
        assert_eq!(Checkpoint::from_json(&doc), schema_err("ppdc-ckpt/v3"));
    }

    /// A `/v4` document's fingerprint hashed one word per input id in a
    /// single FNV-1a chain and the trace's rates by value; it is refused
    /// by its schema tag rather than failing later as a foreign input.
    #[test]
    fn v4_documents_are_refused_by_schema() {
        let doc = sample(1).to_json().replace(CKPT_SCHEMA, "ppdc-ckpt/v4");
        assert_eq!(Checkpoint::from_json(&doc), schema_err("ppdc-ckpt/v4"));
    }

    /// A `/v5` snapshot, one pretty-printed document holding the whole
    /// day, is refused by its tag rather than read as a torn journal.
    #[test]
    fn v5_documents_are_refused_by_schema() {
        let v5 = r#"{
  "schema": "ppdc-ckpt/v5",
  "fingerprint": 3735928559,
  "hour": 1,
  "initial_cost": 1234,
  "placement": [4,5,6],
  "hosts": [20,21],
  "failed_nodes": [4],
  "failed_edges": [7],
  "candidates": [5,6],
  "stranded": [0,1],
  "totals": {"total_cost": 43, "total_migrations": 1, "aggregate_rebuilds": 2, "blackout_hours": 0, "recovery_migrations": 1},
  "hours": [[1,3,40,43,1]],
  "degraded": [[1,1,1,1,5,2,1,0,1,1,2]]
}
"#;
        assert_eq!(Checkpoint::from_json(v5), schema_err("ppdc-ckpt/v5"));
        let msg = Checkpoint::from_json(v5).unwrap_err().to_string();
        assert_eq!(
            msg,
            "checkpoint schema \"ppdc-ckpt/v5\", expected \"ppdc-ckpt/v6\""
        );
    }

    /// The four-lane block loop hashes exactly the words a word-at-a-time
    /// loop would, whatever lane the run starts in and however short its
    /// last chunk.
    #[test]
    fn chunked_hashing_equals_word_at_a_time() {
        let ids: Vec<u32> = (0..23u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        for lead in 0..4u64 {
            for len in 0..ids.len() {
                let xs = &ids[..len];
                let (mut fast, mut slow) = (Fnv::new(), Fnv::new());
                for x in 0..lead {
                    fast.u64(x);
                    slow.u64(x);
                }
                fast.chunked::<2, _>(xs, |c| pair_of(c, |id| id));
                for c in xs.chunks(2) {
                    slow.u64(pair_of(c, |id| id));
                }
                assert_eq!(fast.finish(), slow.finish(), "lead {lead}, {len} ids");
            }
        }
    }

    #[test]
    fn json_round_trip_is_lossless_and_deterministic() {
        for hour in 1..=3 {
            let c = sample(hour);
            let j = c.to_json();
            assert_eq!(j, c.to_json(), "serialization is deterministic");
            assert_eq!(j.lines().count(), 2, "a header and one snapshot line");
            let back = Checkpoint::from_json(&j).unwrap();
            assert_eq!(c, back);
        }
    }

    /// A journal written line by line loads the same snapshot as the
    /// one-line journal of the same checkpoint.
    #[test]
    fn appended_lines_load_like_one_line() {
        let whole = sample(3);
        let mut text = sample(1).to_json();
        text.push_str(&line_since(&sample(2), 1));
        text.push_str(&line_since(&whole, 2));
        assert_eq!(text.lines().count(), 4);
        assert_eq!(Checkpoint::from_json(&text), Ok(whole));
    }

    #[test]
    fn torn_documents_yield_typed_parse_errors() {
        let j = sample(1).to_json();
        let header_end = j.find('\n').unwrap() + 1;
        for cut in [0, 1, header_end - 1, header_end, j.len() / 2, j.len() - 2] {
            assert!(
                matches!(Checkpoint::from_json(&j[..cut]), Err(CkptError::Parse(_))),
                "cut at {cut} must be rejected"
            );
        }
        assert!(matches!(
            Checkpoint::from_json("{\"schema\": \"other/v1\"}\n"),
            Err(CkptError::Schema { .. })
        ));
    }

    #[test]
    fn only_an_unterminated_tail_is_torn() {
        assert_eq!(complete_lines(""), ("", false));
        assert_eq!(complete_lines("a\nb\n"), ("a\nb", false));
        assert_eq!(complete_lines("a\nb\nc"), ("a\nb", true));
        assert_eq!(complete_lines("{\"sch"), ("", true));
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
