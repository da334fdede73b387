//! Fixture: lock-discipline rule family. Not compiled — scanned by
//! `lint_rules.rs` with `lock_rules` enabled.

fn blocks_while_holding_guard(m: &Mutex<u32>, rx: &Receiver<u32>) {
    let guard = m.lock();
    let _v = rx.recv(); // line 6: lock (guard held across recv)
    drop(guard);
}

fn condvar_wait_names_the_guard(m: &Mutex<bool>, cv: &Condvar) {
    let mut state = m.lock();
    while !*state {
        cv.wait(&mut state); // OK: wait releases `state` atomically
    }
}

fn drop_releases_before_blocking(m: &Mutex<u32>, rx: &Receiver<u32>) {
    let guard = m.lock();
    let _x = *guard;
    drop(guard);
    let _v = rx.recv(); // OK: guard explicitly dropped
}

fn scope_releases_before_blocking(m: &Mutex<u32>, rx: &Receiver<u32>) {
    {
        let guard = m.lock();
        let _x = *guard;
    }
    let _v = rx.recv(); // OK: guard died with its block
}

fn if_let_guard_lives_in_its_body(m: &RwLock<Option<u32>>, rx: &Receiver<u32>) {
    if let Some(v) = m.read().as_deref() {
        let _x = rx.recv(); // line 34: lock (read guard live through the body)
        let _ = v;
    }
    let _v = rx.recv(); // OK: the if-let guard died with its body
}

fn while_let_guard_lives_in_its_body(q: &Mutex<Vec<u32>>, rx: &Receiver<u32>) {
    while let Some(item) = q.lock().pop() {
        let _x = rx.recv(); // line 42: lock (scrutinee guard live through the body)
        let _ = item;
    }
    let _v = rx.recv(); // OK: released once the loop ends
}

fn method_chain_guard_is_tracked(pool: &BufferPool, rx: &Receiver<u32>) {
    let page = pool.frames.first().data.write();
    let _v = rx.recv(); // line 50: lock (chained write guard held)
    drop(page);
}

fn io_while_holding_guard(m: &Mutex<u32>) {
    let guard = m.lock();
    let _data = fs::read("wal.log"); // line 56: lock (file I/O under guard)
    drop(guard);
}

fn waived_blocking(m: &Mutex<u32>, rx: &Receiver<u32>) {
    let guard = m.lock();
    let _v = rx.recv(); // lint:allow(lock): fixture shows a justified waiver
    drop(guard);
}

fn split_let_guard_is_tracked(m: &Mutex<u32>, rx: &Receiver<u32>) {
    let guard =
        m.lock();
    let _v = rx.recv(); // line 69: lock (rustfmt split the guard's `let`)
    drop(guard);
}

fn match_scrutinee_guard_lives_through_the_arms(m: &Mutex<Option<u32>>, rx: &Receiver<u32>) {
    match *m.lock() {
        Some(_) => {
            rx.recv(); // line 76: lock (scrutinee guard held across the arms)
        }
        None => {}
    }
    let _v = rx.recv(); // OK: the scrutinee guard died with the match
}

fn wait_releases_only_the_guard_it_names(m: &Mutex<bool>, n: &Mutex<u32>, cv: &Condvar) {
    let state2 = n.lock();
    let mut state = m.lock();
    while !*state {
        cv.wait(&mut state); // line 87: lock (`state2` stays held)
    }
    drop(state2);
}

struct PageGuard {
    data: RwLock<Vec<u8>>,
}

impl PageGuard {
    fn write(&self) -> RwLockWriteGuard<'_, Vec<u8>> {
        self.data.write()
    }
}

fn wrapper_guard_is_tracked(page: &PageGuard, rx: &Receiver<u32>) {
    let d = page.write();
    let _v = rx.recv(); // line 104: lock (`PageGuard::write` hands back a guard)
    drop(d);
}
