// Fixture: the same logic surfaced as typed errors — clean under the
// panic-family clippy denies. Test modules may panic freely.
pub enum LookupError {
    Empty,
    OutOfRange(usize),
}

pub fn optimal_lookup(v: &[u64], i: usize) -> Result<u64, LookupError> {
    let first = v.first().ok_or(LookupError::Empty)?;
    let last = v.last().ok_or(LookupError::Empty)?;
    v.get(i)
        .map(|x| *x + first + last)
        .ok_or(LookupError::OutOfRange(i))
}

#[cfg(test)]
mod tests {
    #[test]
    fn panics_are_fine_in_tests() {
        let v = vec![1u64];
        assert_eq!(v.first().unwrap(), &1);
    }
}
