// Fixture: the sanctioned twins — ordered containers for anything that
// is iterated or looked up. Names no type the scoped crates' `clippy.toml`
// disallows.
pub struct Registry {
    seen: std::collections::BTreeSet<u32>,
}

pub fn merge_counts(pairs: &[(u32, u64)]) -> Vec<(u32, u64)> {
    let mut m = std::collections::BTreeMap::new();
    for (k, v) in pairs {
        *m.entry(*k).or_insert(0) += *v;
    }
    let mut out = Vec::new();
    for (k, v) in &m {
        out.push((*k, *v));
    }
    out
}

pub fn snapshot(r: &Registry) -> Vec<u32> {
    r.seen.iter().copied().collect()
}

pub fn lookup(m: &std::collections::BTreeMap<u32, u64>, k: u32) -> u64 {
    m.get(&k).copied().unwrap_or(0)
}
