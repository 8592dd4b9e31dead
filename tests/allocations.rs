//! What a row and a write cost the heap: an allocation net.
//!
//! A counting global allocator tallies, per thread, every allocation request
//! and the bytes live. The engine spawns no thread, so everything a
//! transaction allocates on behalf of the calling thread is counted on it,
//! and the test harness's other tests, on their own threads, cannot disturb
//! the count.
//!
//! The database is loaded the way the repository benchmark loads SmallBank
//! (three tables, one row per customer in each: a 16-byte account key, 8-byte
//! savings and checking keys, 8-byte values, in 3,000-row transactions at
//! Serializable SI) and purged, and three numbers are checked:
//!
//! * allocations per loaded row;
//! * live heap bytes per row after the purge, as requested from the
//!   allocator and as glibc chunks (what the resident set pays);
//! * allocations per steady-state transaction that reads two random rows and
//!   writes two others at Serializable SI.
//!
//! The bounds are the values measured when the net went in, with a little
//! room for the amortized growth of the hash and ordered maps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use serializable_si::{Database, IsolationLevel, Options, TableRef};

struct Counting;

#[derive(Clone, Copy, Default)]
struct Tally {
    allocations: u64,
    /// Bytes requested and not yet freed.
    live: i64,
    /// The same, rounded up to the glibc chunk each request takes.
    live_chunks: i64,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { allocations: 0, live: 0, live_chunks: 0 })
    };
}

/// The size of the malloc chunk glibc carves for a request on 64-bit Linux:
/// the request plus an 8-byte header, rounded up to 16, at least 32.
fn chunk(size: usize) -> i64 {
    ((size + 8).next_multiple_of(16).max(32)) as i64
}

fn note(allocated: Option<usize>, freed: Option<usize>) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = TALLY.try_with(|tally| {
        let mut t = tally.get();
        if let Some(size) = allocated {
            t.allocations += 1;
            t.live += size as i64;
            t.live_chunks += chunk(size);
        }
        if let Some(size) = freed {
            t.live -= size as i64;
            t.live_chunks -= chunk(size);
        }
        tally.set(t);
    });
}

// SAFETY: every call is forwarded to `System` unchanged; the tally only
// reads the layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(Some(layout.size()), None);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(Some(layout.size()), None);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(None, Some(layout.size()));
        System.dealloc(ptr, layout)
    }

    /// A reallocation is counted as one allocation request.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(Some(new_size), Some(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn tally() -> Tally {
    TALLY.with(Cell::get)
}

const CUSTOMERS: u64 = 20_000;
const LOAD_BATCH: u64 = 3000;
const TXNS: u64 = 4000;

/// The benchmark's SmallBank account key: `customer` and eight digits.
fn account_key(customer: u64) -> [u8; 16] {
    let mut key = *b"customer00000000";
    let mut rest = customer;
    for digit in key[8..].iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    key
}

/// Opens a database and loads the SmallBank rows; returns the tables and
/// what the load allocated.
fn loaded() -> (Database, [TableRef; 3], Tally) {
    let db = Database::open(Options::default());
    let tables = ["account", "savings", "checking"].map(|name| db.create_table(name).unwrap());
    let before = tally();
    let mut customer = 0;
    while customer < CUSTOMERS {
        let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
        for c in customer..(customer + LOAD_BATCH / 3).min(CUSTOMERS) {
            let value = (c as i64).to_be_bytes();
            txn.put(&tables[0], &account_key(c), &value).unwrap();
            txn.put(&tables[1], &c.to_be_bytes(), &value).unwrap();
            txn.put(&tables[2], &c.to_be_bytes(), &value).unwrap();
        }
        txn.commit().unwrap();
        customer += LOAD_BATCH / 3;
    }
    let after = tally();
    let load = Tally {
        allocations: after.allocations - before.allocations,
        live: after.live - before.live,
        live_chunks: after.live_chunks - before.live_chunks,
    };
    (db, tables, load)
}

#[test]
fn a_loaded_row_costs_four_allocations() {
    let (db, _tables, load) = loaded();
    let per_row = load.allocations as f64 / (3 * CUSTOMERS) as f64;
    println!("allocations per loaded row: {per_row:.2}");
    assert!(per_row <= 4.3, "{per_row:.2} allocations per loaded row");
    drop(db);
}

#[test]
fn a_row_costs_what_its_chain_version_and_keys_take() {
    let (db, tables, load) = loaded();
    let before = tally();
    db.purge();
    let after = tally();
    let rows = (3 * CUSTOMERS) as f64;
    let bytes = (load.live + after.live - before.live) as f64 / rows;
    let chunks = (load.live_chunks + after.live_chunks - before.live_chunks) as f64 / rows;
    println!("live heap bytes per row after a purge: {bytes:.1} requested, {chunks:.1} in chunks");
    let versions: usize = tables.iter().map(TableRef::version_count).sum();
    assert_eq!(versions, 3 * CUSTOMERS as usize, "one version per row");
    assert!(bytes <= 262.0, "{bytes:.1} bytes per row");
    assert!(
        chunks <= 290.0,
        "{chunks:.1} bytes per row in malloc chunks"
    );
}

#[test]
fn a_two_read_two_write_transaction_makes_eight_allocations() {
    let (db, tables, _) = loaded();
    db.purge();
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
    let mut random = move || {
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % CUSTOMERS
    };
    // Two random reads, and writes of the `n`-th customer of two walks that
    // visit each customer once.
    let mut run = |walk: std::ops::Range<u64>| {
        let before = tally().allocations;
        for n in walk.clone() {
            let (c, d) = (n * 7919 % CUSTOMERS, n * 104_729 % CUSTOMERS);
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            let one = txn
                .get(&tables[1], &random().to_be_bytes())
                .unwrap()
                .unwrap();
            let two = txn
                .get(&tables[2], &random().to_be_bytes())
                .unwrap()
                .unwrap();
            txn.put(&tables[1], &c.to_be_bytes(), &one).unwrap();
            txn.put(&tables[2], &d.to_be_bytes(), &two).unwrap();
            drop((one, two));
            txn.commit().unwrap();
        }
        (tally().allocations - before) as f64 / (walk.end - walk.start) as f64
    };
    run(0..TXNS / 4);
    // Every write is the first update of its row since the purge: the chain
    // keeps the new version inline beside the old one.
    let first = run(TXNS / 4..TXNS);
    println!("allocations per 2-read/2-write SSI transaction: {first:.2}");
    assert!(first <= 8.0, "{first:.2} allocations per transaction");
    // A third version spills the chain to a buffer: one more per write.
    let (once, twice) = (run(0..TXNS / 4), run(0..TXNS / 4));
    println!("the same writing rows updated once and twice since: {once:.2}, {twice:.2}");
    assert!(once <= 10.0, "{once:.2} allocations per transaction");
    assert!(twice <= 8.0, "{twice:.2} allocations per transaction");
}
