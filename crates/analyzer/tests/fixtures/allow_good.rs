// Fixture: reasoned suppressions — own-line, trailing, and stacked forms
// all waive their target line. Clean overall, with 4 suppressions.
pub fn optimal_covered(v: &[u64]) -> u64 {
    // analyzer:allow(no-panic) -- fixture: invariant documented here
    let a = v.first().unwrap();
    let b = v.last().unwrap(); // analyzer:allow(no-panic) -- trailing form
    // analyzer:allow(no-panic) -- stacked form, panic half
    // analyzer:allow(raw-cost-arith) -- stacked form, sentinel half
    let c = *v.get(0).unwrap() + INFINITY;
    a + b + c
}
