// Fixture: hash containers in deterministic/solver code — iteration order
// varies across runs and seeds. Every type it names is in the scoped
// crates' `clippy.toml` `disallowed-types`, so `clippy::disallowed_types`
// rejects it.
pub struct Registry {
    seen: std::collections::HashSet<u32>,
}

pub fn merge_counts(pairs: &[(u32, u64)]) -> Vec<(u32, u64)> {
    let mut m = std::collections::HashMap::new();
    for (k, v) in pairs {
        *m.entry(*k).or_insert(0) += *v;
    }
    let mut out = Vec::new();
    for (k, v) in &m {
        // HashMap iteration order is unstable
        out.push((*k, *v));
    }
    out
}

pub fn snapshot(r: &Registry) -> Vec<u32> {
    r.seen.iter().copied().collect() // unordered drain into a Vec
}
