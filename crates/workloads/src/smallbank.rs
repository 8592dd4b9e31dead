//! The SmallBank benchmark (Alomari et al., ICDE 2008), as adapted for a
//! key/value storage interface in Sec. 5.1 of the thesis.
//!
//! Schema:
//!
//! * `account(name) -> customer_id`
//! * `savings(customer_id) -> balance`
//! * `checking(customer_id) -> balance`
//!
//! Five transaction programs run with equal probability: Balance (read
//! only), DepositChecking, TransactSavings, Amalgamate and WriteCheck. The
//! static dependency graph contains the dangerous structure
//! `Balance → WriteCheck → TransactSavings → Balance` with WriteCheck as the
//! pivot (Fig. 2.9), so running the mix under plain SI can violate the
//! "no overdraft without penalty" business rule, while Serializable SI and
//! S2PL cannot.
//!
//! The thesis controls contention through the data volume (Sec. 6.1.2 uses a
//! table of roughly 100 Berkeley DB pages; Sec. 6.1.5 uses ten times more
//! data) and transaction weight through the number of SmallBank operations
//! executed per database transaction (1 in the base workload, 10 in the
//! "complex transactions" workload, Sec. 6.1.4). Both knobs are exposed here.

use ssi_common::encoding::{decode_i64, encode_i64, KeyBuilder};
use ssi_common::rng::WorkloadRng;
use ssi_common::Error;
use ssi_core::{Database, TableRef, Transaction};

use crate::driver::Workload;

/// Transaction-type indexes (also the order reported by the driver).
pub const TXN_BALANCE: usize = 0;
/// DepositChecking.
pub const TXN_DEPOSIT_CHECKING: usize = 1;
/// TransactSavings.
pub const TXN_TRANSACT_SAVINGS: usize = 2;
/// Amalgamate.
pub const TXN_AMALGAMATE: usize = 3;
/// WriteCheck.
pub const TXN_WRITE_CHECK: usize = 4;

/// Application-level techniques for making SmallBank serializable when the
/// engine only offers plain snapshot isolation (Sec. 2.6 and 2.8.5 of the
/// thesis). They are the state of the art the paper argues against: each
/// requires a static analysis of the whole transaction mix and a manual
/// modification of the programs, and each has a different performance
/// profile. With Serializable SI none of them is needed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Mitigation {
    /// Run the programs unmodified (correct only under SSI or S2PL).
    #[default]
    None,
    /// MaterializeWT: WriteCheck and TransactSavings both update a row of an
    /// otherwise unused `conflict` table keyed by customer, turning the
    /// vulnerable WC→TS edge into a write-write conflict.
    MaterializeWriteCheckTransact,
    /// PromoteWT: WriteCheck performs an identity write ("promotion") of the
    /// savings row it only needs to read.
    PromoteWriteCheckTransact,
    /// MaterializeBW: Balance and WriteCheck both update the `conflict`
    /// table row, breaking the vulnerable Bal→WC edge (turns the read-only
    /// Balance program into an update).
    MaterializeBalanceWriteCheck,
    /// PromoteBW: Balance performs an identity write of the checking row it
    /// reads (the technique recommended by vendor documentation, and the
    /// most expensive one in Alomari et al.'s measurements).
    PromoteBalanceWriteCheck,
}

impl Mitigation {
    /// All mitigation variants, for sweeps and tests.
    pub const ALL: [Mitigation; 5] = [
        Mitigation::None,
        Mitigation::MaterializeWriteCheckTransact,
        Mitigation::PromoteWriteCheckTransact,
        Mitigation::MaterializeBalanceWriteCheck,
        Mitigation::PromoteBalanceWriteCheck,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Mitigation::None => "none",
            Mitigation::MaterializeWriteCheckTransact => "materialize-wt",
            Mitigation::PromoteWriteCheckTransact => "promote-wt",
            Mitigation::MaterializeBalanceWriteCheck => "materialize-bw",
            Mitigation::PromoteBalanceWriteCheck => "promote-bw",
        }
    }

    /// True if the technique needs the auxiliary `conflict` table.
    pub fn needs_conflict_table(self) -> bool {
        matches!(
            self,
            Mitigation::MaterializeWriteCheckTransact | Mitigation::MaterializeBalanceWriteCheck
        )
    }
}

/// Parameters of a SmallBank instance.
#[derive(Clone, Debug)]
pub struct SmallBankConfig {
    /// Number of customers (each has one savings and one checking account).
    pub customers: u64,
    /// SmallBank operations executed per database transaction (1 = the
    /// standard workload, 10 = the "complex transactions" workload of
    /// Sec. 6.1.4).
    pub ops_per_txn: usize,
    /// Initial balance of every account, in cents.
    pub initial_balance: i64,
    /// Application-level serializability technique applied to the programs
    /// (only interesting when running at plain SI).
    pub mitigation: Mitigation,
}

impl Default for SmallBankConfig {
    fn default() -> Self {
        SmallBankConfig {
            customers: 1000,
            ops_per_txn: 1,
            initial_balance: 10_000,
            mitigation: Mitigation::None,
        }
    }
}

/// The SmallBank workload bound to a database's tables.
pub struct SmallBank {
    config: SmallBankConfig,
    account: TableRef,
    savings: TableRef,
    checking: TableRef,
    /// Auxiliary table used by the "materialize the conflict" techniques
    /// (Sec. 2.6.1); absent unless the configured mitigation needs it.
    conflict: Option<TableRef>,
}

fn name_of(customer: u64) -> String {
    format!("customer{customer:08}")
}

fn account_key(name: &str) -> Vec<u8> {
    KeyBuilder::new().str(name).build()
}

fn balance_key(customer: u64) -> Vec<u8> {
    KeyBuilder::new().u64(customer).build()
}

impl SmallBank {
    /// Creates the three tables (plus the auxiliary `conflict` table if the
    /// configured mitigation materializes conflicts) and loads the initial
    /// population.
    pub fn setup(db: &Database, config: SmallBankConfig) -> Self {
        let account = db.create_table("account").unwrap();
        let savings = db.create_table("savings").unwrap();
        let checking = db.create_table("checking").unwrap();
        let conflict = if config.mitigation.needs_conflict_table() {
            Some(db.create_table("conflict").unwrap())
        } else {
            None
        };

        let batch = 1000;
        let mut customer = 0;
        while customer < config.customers {
            let mut txn = db.begin();
            let end = (customer + batch).min(config.customers);
            for c in customer..end {
                txn.put(&account, &account_key(&name_of(c)), &c.to_be_bytes())
                    .unwrap();
                txn.put(
                    &savings,
                    &balance_key(c),
                    &encode_i64(config.initial_balance),
                )
                .unwrap();
                txn.put(
                    &checking,
                    &balance_key(c),
                    &encode_i64(config.initial_balance),
                )
                .unwrap();
                if let Some(conflict) = &conflict {
                    txn.put(conflict, &balance_key(c), &encode_i64(0)).unwrap();
                }
            }
            txn.commit().unwrap();
            customer = end;
        }
        SmallBank {
            config,
            account,
            savings,
            checking,
            conflict,
        }
    }

    /// The "materialize the conflict" statement of Sec. 2.6.1: bump the
    /// customer's row in the auxiliary table so that two programs touching
    /// the same customer develop a write-write conflict.
    fn touch_conflict_row(&self, txn: &mut Transaction, customer: u64) -> Result<(), Error> {
        if let Some(conflict) = &self.conflict {
            let current = txn
                .get_for_update(conflict, &balance_key(customer))?
                .map(|v| decode_i64(&v))
                .unwrap_or(0);
            txn.put(conflict, &balance_key(customer), &encode_i64(current + 1))?;
        }
        Ok(())
    }

    /// The "promotion" statement of Sec. 2.6.2: an identity write of a row
    /// the program only reads, so the first-committer-wins rule serializes
    /// it against concurrent writers of that row.
    fn promote_row(
        &self,
        txn: &mut Transaction,
        table: &TableRef,
        customer: u64,
    ) -> Result<(), Error> {
        let key = balance_key(customer);
        match txn.get_for_update(table, &key)? {
            Some(value) => txn.put(table, &key, &value),
            None => txn.put(table, &key, &encode_i64(0)),
        }
    }

    /// Workload parameters.
    pub fn config(&self) -> &SmallBankConfig {
        &self.config
    }

    /// Total money in the system (sum of all balances); used by consistency
    /// checks — DepositChecking, WriteCheck and TransactSavings change the
    /// total, so the invariant checked after a run is only that no *negative
    /// savings* balance exists (TransactSavings refuses overdrafts) — see
    /// [`SmallBank::negative_savings_accounts`].
    pub fn total_balance(&self, db: &Database) -> i64 {
        let mut txn = db.begin();
        let mut total = 0;
        for table in [&self.savings, &self.checking] {
            let rows = txn
                .scan(
                    table,
                    std::ops::Bound::Unbounded,
                    std::ops::Bound::Unbounded,
                )
                .unwrap();
            total += rows.iter().map(|(_, v)| decode_i64(v)).sum::<i64>();
        }
        txn.commit().unwrap();
        total
    }

    /// Number of customers whose savings balance is negative. TransactSavings
    /// checks the balance before withdrawing, so in any serializable
    /// execution this is zero; under plain SI, write skew between
    /// WriteCheck and TransactSavings can push it below zero.
    pub fn negative_savings_accounts(&self, db: &Database) -> usize {
        let mut txn = db.begin();
        let rows = txn
            .scan(
                &self.savings,
                std::ops::Bound::Unbounded,
                std::ops::Bound::Unbounded,
            )
            .unwrap();
        let count = rows.iter().filter(|(_, v)| decode_i64(v) < 0).count();
        txn.commit().unwrap();
        count
    }

    fn lookup_customer(&self, txn: &mut Transaction, customer: u64) -> Result<u64, Error> {
        let name = name_of(customer);
        let id = txn
            .get(&self.account, &account_key(&name))?
            .map(|v| u64::from_be_bytes(v[..].try_into().unwrap()))
            .unwrap_or(customer);
        Ok(id)
    }

    fn read_balance(
        &self,
        txn: &mut Transaction,
        table: &TableRef,
        customer: u64,
    ) -> Result<i64, Error> {
        Ok(txn
            .get(table, &balance_key(customer))?
            .map(|v| decode_i64(&v))
            .unwrap_or(0))
    }

    fn write_balance(
        &self,
        txn: &mut Transaction,
        table: &TableRef,
        customer: u64,
        balance: i64,
    ) -> Result<(), Error> {
        txn.put(table, &balance_key(customer), &encode_i64(balance))
    }

    /// Balance(N): return the sum of savings and checking balances.
    fn op_balance(&self, txn: &mut Transaction, customer: u64) -> Result<(), Error> {
        let id = self.lookup_customer(txn, customer)?;
        let _total = self.read_balance(txn, &self.savings, id)?
            + self.read_balance(txn, &self.checking, id)?;
        match self.config.mitigation {
            // Break the vulnerable Bal → WC edge (Sec. 2.8.5).
            Mitigation::MaterializeBalanceWriteCheck => self.touch_conflict_row(txn, id)?,
            Mitigation::PromoteBalanceWriteCheck => self.promote_row(txn, &self.checking, id)?,
            _ => {}
        }
        Ok(())
    }

    /// DepositChecking(N, V): add V to the checking balance.
    fn op_deposit_checking(
        &self,
        txn: &mut Transaction,
        customer: u64,
        amount: i64,
    ) -> Result<(), Error> {
        let id = self.lookup_customer(txn, customer)?;
        let balance = self.read_balance(txn, &self.checking, id)?;
        self.write_balance(txn, &self.checking, id, balance + amount)
    }

    /// TransactSavings(N, V): add V to the savings balance, refusing to make
    /// it negative.
    fn op_transact_savings(
        &self,
        txn: &mut Transaction,
        customer: u64,
        amount: i64,
    ) -> Result<(), Error> {
        let id = self.lookup_customer(txn, customer)?;
        if self.config.mitigation == Mitigation::MaterializeWriteCheckTransact {
            self.touch_conflict_row(txn, id)?;
        }
        let balance = self.read_balance(txn, &self.savings, id)?;
        if balance + amount < 0 {
            // Application-level rollback; the driver counts it separately.
            return Err(Error::abort(ssi_common::AbortKind::UserRequested, txn.id()));
        }
        self.write_balance(txn, &self.savings, id, balance + amount)
    }

    /// Amalgamate(N1, N2): move all funds of N1 into N2's checking account.
    fn op_amalgamate(
        &self,
        txn: &mut Transaction,
        customer1: u64,
        customer2: u64,
    ) -> Result<(), Error> {
        let id1 = self.lookup_customer(txn, customer1)?;
        let id2 = self.lookup_customer(txn, customer2)?;
        let total = self.read_balance(txn, &self.savings, id1)?
            + self.read_balance(txn, &self.checking, id1)?;
        let dest = self.read_balance(txn, &self.checking, id2)?;
        self.write_balance(txn, &self.checking, id2, dest + total)?;
        self.write_balance(txn, &self.savings, id1, 0)?;
        self.write_balance(txn, &self.checking, id1, 0)
    }

    /// WriteCheck(N, V): deduct V from checking, charging a $1 penalty if the
    /// combined balance is insufficient. This is the pivot of SmallBank's
    /// dangerous structure.
    fn op_write_check(
        &self,
        txn: &mut Transaction,
        customer: u64,
        amount: i64,
    ) -> Result<(), Error> {
        let id = self.lookup_customer(txn, customer)?;
        match self.config.mitigation {
            // Break the vulnerable WC → TS edge (Sec. 2.8.5): either both
            // programs write the conflict row, or WriteCheck promotes its
            // read of the savings row to an (identity) write.
            Mitigation::MaterializeWriteCheckTransact
            | Mitigation::MaterializeBalanceWriteCheck => self.touch_conflict_row(txn, id)?,
            Mitigation::PromoteWriteCheckTransact => self.promote_row(txn, &self.savings, id)?,
            _ => {}
        }
        let combined = self.read_balance(txn, &self.savings, id)?
            + self.read_balance(txn, &self.checking, id)?;
        let checking = self.read_balance(txn, &self.checking, id)?;
        if combined < amount {
            self.write_balance(txn, &self.checking, id, checking - amount - 100)
        } else {
            self.write_balance(txn, &self.checking, id, checking - amount)
        }
    }

    /// Runs one randomly chosen SmallBank operation inside an already-open
    /// transaction; returns the operation's type index.
    fn run_random_op(&self, txn: &mut Transaction, rng: &mut WorkloadRng) -> Result<usize, Error> {
        let customer = rng.uniform(0, self.config.customers - 1);
        let amount = rng.uniform(1, 100) as i64;
        let ty = rng.index(5);
        match ty {
            TXN_BALANCE => self.op_balance(txn, customer)?,
            TXN_DEPOSIT_CHECKING => self.op_deposit_checking(txn, customer, amount)?,
            TXN_TRANSACT_SAVINGS => {
                // Mix deposits and withdrawals; withdrawals may be refused.
                let signed = if rng.chance(0.5) { amount } else { -amount };
                self.op_transact_savings(txn, customer, signed)?
            }
            TXN_AMALGAMATE => {
                let other = rng.uniform(0, self.config.customers - 1);
                self.op_amalgamate(txn, customer, other)?
            }
            _ => self.op_write_check(txn, customer, amount)?,
        }
        Ok(ty)
    }
}

impl Workload for SmallBank {
    fn name(&self) -> &str {
        "smallbank"
    }

    fn transaction_types(&self) -> usize {
        5
    }

    fn transaction_type_name(&self, ty: usize) -> &'static str {
        match ty {
            TXN_BALANCE => "Balance",
            TXN_DEPOSIT_CHECKING => "DepositChecking",
            TXN_TRANSACT_SAVINGS => "TransactSavings",
            TXN_AMALGAMATE => "Amalgamate",
            TXN_WRITE_CHECK => "WriteCheck",
            _ => "unknown",
        }
    }

    fn execute_one(&self, db: &Database, rng: &mut WorkloadRng) -> (usize, Result<(), Error>) {
        // The "complex transactions" workload groups several SmallBank
        // operations into one database transaction (Sec. 6.1.4). A purely
        // read-only transaction (all operations are Balance) is begun via
        // `begin_read_only` so the mixed SI/SSI mode of Sec. 3.8 can apply.
        let mut txn = db.begin();
        let mut first_type = TXN_BALANCE;
        let result = (|| {
            for i in 0..self.config.ops_per_txn.max(1) {
                let ty = self.run_random_op(&mut txn, rng)?;
                if i == 0 {
                    first_type = ty;
                }
            }
            Ok(())
        })();
        match result {
            Ok(()) => (first_type, txn.commit()),
            Err(e) => (first_type, Err(e)),
        }
    }

    fn check_consistency(&self, db: &Database) -> Option<String> {
        let negative = self.negative_savings_accounts(db);
        if negative > 0 {
            Some(format!("{negative} savings accounts are negative"))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_workload, RunConfig};
    use ssi_core::Options;
    use std::time::Duration;

    fn small_config() -> SmallBankConfig {
        SmallBankConfig {
            customers: 50,
            ops_per_txn: 1,
            initial_balance: 1_000,
            mitigation: Mitigation::None,
        }
    }

    #[test]
    fn setup_loads_all_customers() {
        let db = Database::open(Options::default());
        let bank = SmallBank::setup(&db, small_config());
        assert_eq!(bank.account.key_count(), 50);
        assert_eq!(bank.savings.key_count(), 50);
        assert_eq!(bank.checking.key_count(), 50);
        assert_eq!(bank.total_balance(&db), 50 * 2 * 1_000);
        assert_eq!(bank.negative_savings_accounts(&db), 0);
    }

    #[test]
    fn operations_have_expected_effects() {
        let db = Database::open(Options::default());
        let bank = SmallBank::setup(&db, small_config());

        // Deposit 500 into customer 3's checking.
        let mut txn = db.begin();
        bank.op_deposit_checking(&mut txn, 3, 500).unwrap();
        txn.commit().unwrap();

        // Amalgamate customer 3 into customer 4.
        let mut txn = db.begin();
        bank.op_amalgamate(&mut txn, 3, 4).unwrap();
        txn.commit().unwrap();

        let mut txn = db.begin();
        let s3 = bank.read_balance(&mut txn, &bank.savings, 3).unwrap();
        let c3 = bank.read_balance(&mut txn, &bank.checking, 3).unwrap();
        let c4 = bank.read_balance(&mut txn, &bank.checking, 4).unwrap();
        txn.commit().unwrap();
        assert_eq!((s3, c3), (0, 0));
        assert_eq!(c4, 1_000 + 1_000 + 500 + 1_000);
        // Money is conserved by these two operations.
        assert_eq!(bank.total_balance(&db), 50 * 2 * 1_000 + 500);
    }

    #[test]
    fn transact_savings_refuses_overdraft() {
        let db = Database::open(Options::default());
        let bank = SmallBank::setup(&db, small_config());
        let mut txn = db.begin();
        let err = bank.op_transact_savings(&mut txn, 1, -5_000).unwrap_err();
        assert_eq!(err.abort_kind(), Some(ssi_common::AbortKind::UserRequested));
    }

    #[test]
    fn write_check_applies_penalty_on_overdraft() {
        let db = Database::open(Options::default());
        let bank = SmallBank::setup(&db, small_config());
        let mut txn = db.begin();
        bank.op_write_check(&mut txn, 2, 5_000).unwrap();
        txn.commit().unwrap();
        let mut txn = db.begin();
        let checking = bank.read_balance(&mut txn, &bank.checking, 2).unwrap();
        txn.commit().unwrap();
        // 1000 - 5000 - 100 penalty.
        assert_eq!(checking, -4_100);
    }

    #[test]
    fn mitigation_metadata() {
        assert_eq!(Mitigation::ALL.len(), 5);
        assert!(Mitigation::MaterializeWriteCheckTransact.needs_conflict_table());
        assert!(Mitigation::MaterializeBalanceWriteCheck.needs_conflict_table());
        assert!(!Mitigation::PromoteWriteCheckTransact.needs_conflict_table());
        assert!(!Mitigation::None.needs_conflict_table());
        let labels: std::collections::HashSet<&str> =
            Mitigation::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 5);
    }

    /// Sec. 2.8.5: each application-level technique must stop WriteCheck and
    /// TransactSavings from running concurrently on the same customer under
    /// plain SI — either through a write-write (first-committer-wins)
    /// conflict on the materialized row, or by blocking on the promoted
    /// row. Without a technique, the same interleaving commits on both
    /// sides (that is the dangerous structure).
    #[test]
    fn wt_mitigations_serialize_writecheck_and_transactsavings_under_si() {
        use ssi_common::IsolationLevel;

        let run = |mitigation: Mitigation| -> bool {
            let mut options = Options::default().with_isolation(IsolationLevel::SnapshotIsolation);
            // The single-threaded interleaving cannot release blocking
            // locks, so a short timeout stands in for "the technique forced
            // the programs to serialize".
            options.lock.wait_timeout = std::time::Duration::from_millis(50);
            let db = Database::open(options);
            let bank = SmallBank::setup(
                &db,
                SmallBankConfig {
                    customers: 4,
                    ops_per_txn: 1,
                    initial_balance: 1_000,
                    mitigation,
                },
            );
            let mut wc = db.begin();
            let mut ts = db.begin();
            // Pin both snapshots first, as in the anomaly.
            let _ = bank.op_balance(&mut wc, 0);
            let _ = bank.op_balance(&mut ts, 0);
            let r1 = bank
                .op_write_check(&mut wc, 0, 100)
                .and_then(|_| wc.commit());
            let r2 = bank
                .op_transact_savings(&mut ts, 0, -100)
                .and_then(|_| ts.commit());
            r1.is_ok() && r2.is_ok()
        };

        assert!(
            run(Mitigation::None),
            "without a technique both programs commit under SI"
        );
        assert!(
            !run(Mitigation::MaterializeWriteCheckTransact),
            "materializing the WC/TS conflict must stop one of them"
        );
        assert!(
            !run(Mitigation::PromoteWriteCheckTransact),
            "promoting WriteCheck's savings read must stop one of them"
        );
    }

    /// The BW techniques break the Balance → WriteCheck edge instead: a
    /// Balance and a WriteCheck for the same customer can no longer overlap.
    #[test]
    fn bw_mitigations_serialize_balance_and_writecheck_under_si() {
        use ssi_common::IsolationLevel;

        let run = |mitigation: Mitigation| -> bool {
            let mut options = Options::default().with_isolation(IsolationLevel::SnapshotIsolation);
            options.lock.wait_timeout = std::time::Duration::from_millis(50);
            let db = Database::open(options);
            let bank = SmallBank::setup(
                &db,
                SmallBankConfig {
                    customers: 4,
                    ops_per_txn: 1,
                    initial_balance: 1_000,
                    mitigation,
                },
            );
            let mut wc = db.begin();
            let mut bal = db.begin();
            let r1 = bank
                .op_write_check(&mut wc, 0, 100)
                .and_then(|_| wc.commit());
            let r2 = bank.op_balance(&mut bal, 0).and_then(|_| bal.commit());
            r1.is_ok() && r2.is_ok()
        };

        // Sequentially ordered calls never conflict without a technique…
        assert!(run(Mitigation::None));
        // …but the interleaved versions do once the conflict is introduced.
        let run_interleaved = |mitigation: Mitigation| -> bool {
            let mut options = Options::default().with_isolation(IsolationLevel::SnapshotIsolation);
            options.lock.wait_timeout = std::time::Duration::from_millis(50);
            let db = Database::open(options);
            let bank = SmallBank::setup(
                &db,
                SmallBankConfig {
                    customers: 4,
                    ops_per_txn: 1,
                    initial_balance: 1_000,
                    mitigation,
                },
            );
            let mut wc = db.begin();
            let mut bal = db.begin();
            // Balance performs its (possibly promoted/materialized) reads
            // first, then WriteCheck runs and commits, then Balance commits.
            let r_bal_ops = bank.op_balance(&mut bal, 0);
            let r1 = bank
                .op_write_check(&mut wc, 0, 100)
                .and_then(|_| wc.commit());
            let r2 = r_bal_ops.and_then(|_| bal.commit());
            r1.is_ok() && r2.is_ok()
        };
        assert!(run_interleaved(Mitigation::None));
        assert!(!run_interleaved(Mitigation::MaterializeBalanceWriteCheck));
        assert!(!run_interleaved(Mitigation::PromoteBalanceWriteCheck));
    }

    #[test]
    fn driver_run_is_consistent_under_ssi() {
        let db = Database::open(Options::default());
        let bank = SmallBank::setup(
            &db,
            SmallBankConfig {
                customers: 20,
                ops_per_txn: 1,
                initial_balance: 1_000,
                mitigation: Mitigation::None,
            },
        );
        let stats = run_workload(
            &db,
            &bank,
            &RunConfig {
                mpl: 4,
                warmup: Duration::from_millis(20),
                duration: Duration::from_millis(300),
                seed: 3,
            },
        );
        assert!(stats.commits > 0);
        assert_eq!(bank.check_consistency(&db), None);
    }
}
