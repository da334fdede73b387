//! The admission counters a benchmark exports. A test binary of its own,
//! so no other test sheds into the process-wide registry it reads.

// Integration tests unwrap freely; hygiene lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wire::{DbServer, ServerConfig};

#[test]
fn a_fresh_servers_snapshot_holds_a_zero_shed_count() {
    let server = DbServer::start(ServerConfig::default()).unwrap();
    let snap = obskit::metrics::global().snapshot();
    assert_eq!(snap.counters.get("admission.shed"), Some(&0));
    server.crash();
}
