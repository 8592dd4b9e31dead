//! Embedded and wire runs are the same scenario: the same seed drives the
//! same operations through either backend and leaves the same rows behind.

use ssi_benchmark::backend::{Backend, Txn};
use ssi_benchmark::programs::{OpGen, Program};
use ssi_benchmark::runner::run_txn;
use ssi_benchmark::scenario::{set_up, Clients, Scenario};
use ssi_benchmark::single::out_dir;
use ssi_benchmark::spans::NoSpans;

const PROGRAM: Program = Program::SmallBank {
    customers: 300,
    hot: 20,
};

fn rows<B: Backend>(backend: &mut B) -> Vec<(usize, Vec<u8>, i64)> {
    let mut rows = Vec::new();
    let mut txn = backend.begin().unwrap();
    for table in 0..PROGRAM.tables().len() {
        txn.scan(table, &mut |key, value| {
            rows.push((table, key.to_vec(), value))
        })
        .unwrap();
    }
    txn.commit().unwrap();
    rows
}

/// Runs client 0's first 3000 operations of `seed` and returns the ledger
/// and every row.
fn drive<B: Backend>(backend: &mut B, seed: u64) -> (i64, Vec<(usize, Vec<u8>, i64)>) {
    let mut ops = OpGen::new(PROGRAM, seed, 0);
    let mut ledger = 0;
    for _ in 0..3000 {
        let run = run_txn(backend, &ops.next_op(), &mut NoSpans);
        assert_eq!(run.attempts, 1, "a lone client never conflicts");
        ledger += run.result.expect("a lone client never fails");
    }
    (ledger, rows(backend))
}

fn run(wire: bool, seed: u64) -> (i64, Vec<(usize, Vec<u8>, i64)>) {
    let scenario = Scenario {
        program: PROGRAM,
        wire,
        ..Scenario::named("smallbank_ssi_mem").unwrap()
    };
    let scratch = out_dir();
    std::fs::create_dir_all(&scratch).unwrap();
    let (env, mut clients) = set_up(scenario, &scratch).unwrap();
    let (outcome, round_trips) = match &mut clients {
        Clients::Embedded(backends) => (drive(&mut backends[0], seed), 0),
        Clients::Wire(backends) => {
            let outcome = drive(&mut backends[0], seed);
            (outcome, backends.iter().map(|w| w.round_trips).sum())
        }
    };
    drop(clients);
    // The run's own checks: conservation, and on the wire that the server
    // counted exactly the requests sent and no session survives shutdown.
    env.verify_and_tear_down(outcome.0, round_trips).unwrap();
    outcome
}

#[test]
fn same_seed_leaves_the_same_rows_on_both_backends() {
    let embedded = run(false, 11);
    let wire = run(true, 11);
    assert_eq!(embedded.0, wire.0, "ledgers differ");
    assert_eq!(embedded.1, wire.1, "rows differ");
    assert_eq!(embedded.1.len(), 900);
    let other_seed = run(false, 12);
    assert_ne!(embedded.1, other_seed.1, "--seed must change the outcome");
}
