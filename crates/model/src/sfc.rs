//! Service function chains and VNF placements.

use crate::ModelError;
use ppdc_topology::{Graph, NodeId, NodeKind};
use serde::{Deserialize, Serialize};

/// A service function chain `(f₁, f₂, …, f_n)`.
///
/// VM traffic must traverse the VNFs in chain order; `f₁` is the *ingress*
/// VNF and `f_n` the *egress* VNF. Real-world SFCs have up to ~13 functions
/// (5–6 access + 4–5 application functions, per the IETF SFC data-center use
/// cases the paper cites), which is the range the experiments sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sfc {
    names: Vec<String>,
}

impl Sfc {
    /// An SFC of `n` anonymous VNFs `f1 … fn`.
    ///
    /// # Errors
    ///
    /// `n` must be at least 1.
    pub fn of_len(n: usize) -> Result<Self, ModelError> {
        if n == 0 {
            return Err(ModelError::EmptySfc);
        }
        Ok(Sfc {
            names: (1..=n).map(|i| format!("f{i}")).collect(),
        })
    }

    /// An SFC with explicit VNF names (e.g. `["firewall", "cache-proxy"]`).
    ///
    /// # Errors
    ///
    /// The name list must be non-empty.
    pub fn named<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Result<Self, ModelError> {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        if names.is_empty() {
            return Err(ModelError::EmptySfc);
        }
        Ok(Sfc { names })
    }

    /// Chain length `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Always false — empty SFCs cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The name of VNF `j` (0-based; the paper's `f_{j+1}`).
    pub fn name(&self, j: usize) -> &str {
        &self.names[j]
    }

    /// All VNF names in chain order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// A VNF placement `p : F → V_s` (also used for migrations `m`).
///
/// `switch(j)` is the switch hosting VNF `f_{j+1}`. Placements are injective
/// — different VNFs of an SFC occupy different switches — per the paper's
/// per-switch NFV-server resource assumption (Section III, footnote 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Placement {
    switches: Vec<NodeId>,
}

impl Placement {
    /// Validates and wraps a placement for `sfc` on `g`.
    ///
    /// # Errors
    ///
    /// Every slot must be a distinct switch of `g`, and the length must
    /// equal the SFC length.
    pub fn new(g: &Graph, sfc: &Sfc, switches: Vec<NodeId>) -> Result<Self, ModelError> {
        if switches.len() != sfc.len() {
            return Err(ModelError::WrongLength {
                expected: sfc.len(),
                got: switches.len(),
            });
        }
        let mut seen = vec![false; g.num_nodes()];
        for &s in &switches {
            if s.index() >= g.num_nodes() || g.kind(s) != NodeKind::Switch {
                return Err(ModelError::NotASwitch(s));
            }
            if seen[s.index()] {
                return Err(ModelError::DuplicateSwitch(s));
            }
            seen[s.index()] = true;
        }
        Ok(Placement { switches })
    }

    /// Wraps a placement the caller guarantees valid (used by solvers on
    /// their own output). Debug builds still assert distinctness.
    pub fn new_unchecked(switches: Vec<NodeId>) -> Self {
        debug_assert!(
            {
                let mut s = switches.clone();
                s.sort_unstable();
                s.windows(2).all(|w| w[0] != w[1])
            },
            "placement switches must be distinct"
        );
        Placement { switches }
    }

    /// Wraps a placement that may temporarily violate injectivity.
    ///
    /// VNF *migration frontiers* (Definition 2 of the paper) snapshot the
    /// chain mid-migration, where two VNFs can legitimately sit on the same
    /// switch for one evaluation step. Cost arithmetic is well defined on
    /// such snapshots; only final placements must be injective.
    pub fn new_relaxed(switches: Vec<NodeId>) -> Self {
        Placement { switches }
    }

    /// True if no switch hosts two VNFs.
    pub fn is_injective(&self) -> bool {
        let mut s = self.switches.clone();
        s.sort_unstable();
        s.windows(2).all(|w| w[0] != w[1])
    }

    /// Chain length `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.switches.len()
    }

    /// True if the placement covers no VNFs (never, for validated ones).
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty()
    }

    /// The switch hosting VNF `j` (0-based).
    #[inline]
    pub fn switch(&self, j: usize) -> NodeId {
        self.switches[j]
    }

    /// The ingress switch `p(1)`.
    #[inline]
    pub fn ingress(&self) -> NodeId {
        self.switches[0]
    }

    /// The egress switch `p(n)`.
    #[expect(
        clippy::expect_used,
        reason = "Placement::new rejects empty chains; unchecked constructors document the same requirement"
    )]
    #[inline]
    pub fn egress(&self) -> NodeId {
        *self.switches.last().expect("placements are non-empty")
    }

    /// All switches in chain order.
    pub fn switches(&self) -> &[NodeId] {
        &self.switches
    }

    /// Replaces the switch of VNF `j`, returning a new placement
    /// (used when walking migration frontiers).
    pub fn with_switch(&self, j: usize, s: NodeId) -> Placement {
        let mut switches = self.switches.clone();
        switches[j] = s;
        Placement { switches }
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.switches.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{}", s.index())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_topology::builders::linear;

    #[test]
    fn sfc_lengths() {
        assert_eq!(Sfc::of_len(3).unwrap().len(), 3);
        assert_eq!(Sfc::of_len(0), Err(ModelError::EmptySfc));
        let named = Sfc::named(["firewall", "cache"]).unwrap();
        assert_eq!(named.len(), 2);
        assert_eq!(named.name(0), "firewall");
        assert_eq!(named.names()[1], "cache");
        assert_eq!(Sfc::named(Vec::<String>::new()), Err(ModelError::EmptySfc));
    }

    #[test]
    fn placement_validation() {
        let (g, h1, _) = linear(3).unwrap();
        let sfc = Sfc::of_len(2).unwrap();
        let s: Vec<NodeId> = g.switches().collect();
        let p = Placement::new(&g, &sfc, vec![s[0], s[2]]).unwrap();
        assert_eq!(p.ingress(), s[0]);
        assert_eq!(p.egress(), s[2]);
        assert_eq!(p.len(), 2);

        assert_eq!(
            Placement::new(&g, &sfc, vec![s[0]]),
            Err(ModelError::WrongLength {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            Placement::new(&g, &sfc, vec![s[0], s[0]]),
            Err(ModelError::DuplicateSwitch(s[0]))
        );
        assert_eq!(
            Placement::new(&g, &sfc, vec![s[0], h1]),
            Err(ModelError::NotASwitch(h1))
        );
    }

    #[test]
    fn with_switch_replaces_one_slot() {
        let (g, _, _) = linear(4).unwrap();
        let sfc = Sfc::of_len(2).unwrap();
        let s: Vec<NodeId> = g.switches().collect();
        let p = Placement::new(&g, &sfc, vec![s[0], s[1]]).unwrap();
        let q = p.with_switch(1, s[3]);
        assert_eq!(q.switches(), &[s[0], s[3]]);
        assert_eq!(p.switches(), &[s[0], s[1]], "original untouched");
    }

    #[test]
    fn display_renders_chain() {
        let (g, _, _) = linear(2).unwrap();
        let sfc = Sfc::of_len(2).unwrap();
        let s: Vec<NodeId> = g.switches().collect();
        let p = Placement::new(&g, &sfc, vec![s[0], s[1]]).unwrap();
        assert_eq!(p.to_string(), "[0 → 1]");
    }
}
