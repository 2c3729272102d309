// Fixture: wall clocks and entropy in simulation library code. Every
// marked call is in the deterministic crates' `clippy.toml`
// `disallowed-methods`, so `clippy::disallowed_methods` rejects it.
pub fn epoch_seed() -> u64 {
    let t = std::time::Instant::now(); // disallowed
    let st = std::time::SystemTime::now(); // disallowed
    let mut rng = rand::thread_rng(); // disallowed
    drop((t, st, rng));
    0
}
