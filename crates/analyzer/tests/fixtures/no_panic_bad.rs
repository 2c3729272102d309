// Fixture: solver-crate library code that panics instead of returning
// typed errors. Every marked line uses a construct that the panic-family
// clippy denies in each solver and engine crate's lib.rs reject.
pub fn optimal_lookup(v: &[u64], i: usize) -> u64 {
    let first = v.first().unwrap(); // flagged
    let last = v.last().expect("non-empty"); // flagged
    if i > v.len() {
        panic!("index out of range"); // flagged
    }
    match v.get(i) {
        Some(x) => *x + first + last,
        None => unreachable!("checked above"), // flagged
    }
}
