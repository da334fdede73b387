//! Fixture: panic-path rule family. Not compiled — scanned by
//! `lint_rules.rs` with `panic_rules` enabled.

fn bad_unwrap(v: Option<u32>) -> u32 {
    v.unwrap() // line 5: panic
}

fn bad_expect(v: Option<u32>) -> u32 {
    v.expect("present") // line 9: panic
}

fn bad_macros(x: u32) {
    if x > 3 {
        panic!("boom"); // line 14: panic
    }
    unreachable!() // line 16: panic
}

fn bad_index(v: &[u8]) -> u8 {
    v[0] // line 20: index
}

fn bad_discard() {
    let _ = std::fs::remove_file("x"); // line 24: discard
}

fn allowed_unwrap(v: Option<u32>) -> u32 {
    v.unwrap() // lint:allow(panic): fixture shows a justified waiver
}

fn allowed_index(v: &[u8]) -> u8 {
    // lint:allow(index): bounds established by caller contract
    v[0]
}

fn strings_and_comments_do_not_count() {
    // .unwrap() in a comment is fine
    let _s = "calling .unwrap() in a string is fine";
}

fn waiver_quoted_in_a_string_does_not_count(v: Option<u32>) -> u32 {
    let _m = "lint:allow(panic): x"; v.unwrap() // line 42: panic
}

fn typo_in_a_waiver_is_flagged(v: Option<u32>) -> u32 {
    // lint:allow(panics): typo — line 46: bad_allow (unknown rule)
    v.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic_freely() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
        let s = &[1u8, 2][..];
        let _ = s[0];
        panic!("even this is exempt");
    }
}

#[cfg(all(test, unix))]
mod unix_tests {
    fn unix_only_helper(v: Option<u32>) -> u32 {
        v.unwrap() // exempt: `all(test, unix)` requires test
    }
}
