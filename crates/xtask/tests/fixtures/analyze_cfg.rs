//! Fixture: the test-only predicate. `live_outside_tests` is compiled
//! in every build but a test build, so its edge counts; the
//! `all(test, unix)` module is test-only, so its inverted order does not
//! close a cycle. Scanned by `analyze_rules.rs`.

struct Ledger {
    entries: Mutex<Vec<u64>>,
}

struct Roster {
    members: RwLock<Vec<u64>>,
}

#[cfg(not(test))]
fn live_outside_tests(ledger: &Ledger, roster: &Roster) {
    let entries = ledger.entries.lock();
    let members = roster.members.write();
    drop(members);
    drop(entries);
}

#[cfg(all(test, unix))]
mod unix_tests {
    fn inverted(ledger: &Ledger, roster: &Roster) {
        let members = roster.members.write();
        let entries = ledger.entries.lock();
        drop(entries);
        drop(members);
    }
}
