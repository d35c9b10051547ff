//! Seeded generators: table contents, statement streams, and the result
//! each statement must produce.
//!
//! Everything derives from `--seed` through `SplitMix64`. The program under
//! test sees only the generated SQL and tuples; the expectations stay on
//! jagbench's side and are computed from the generated data, never by
//! asking the engine.

use std::fmt::Write as _;
use std::sync::Arc;

use jaguar_common::rng::SplitMix64;
use jaguar_core::{Tuple, Value};

/// Table sizes. `FULL` is what every reported number uses; `SMOKE` only
/// proves the paths work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub rel_rows: usize,
    pub wide_rows: usize,
    pub acct_rows: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        rel_rows: 10_000,
        wide_rows: 200_000,
        acct_rows: 10_000,
    };
    pub const SMOKE: Sizes = Sizes {
        rel_rows: 600,
        wide_rows: 6_000,
        acct_rows: 1_000,
    };
}

/// An independent generator for one named purpose under one seed, so
/// adding a stream never shifts the values another stream yields.
fn stream_rng(seed: u64, stream: u64) -> SplitMix64 {
    let mut mixer = SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
    SplitMix64::new(mixer.next_u64())
}

const STREAM_REL: u64 = 1;
const STREAM_WIDE: u64 = 2;
const STREAM_ACCT: u64 = 3;
const STREAM_SCAN_STMTS: u64 = 4;
/// Client `c` of `oltp_mix` draws from stream `STREAM_OLTP_CLIENT + c`.
const STREAM_OLTP_CLIENT: u64 = 100;

// ---------------------------------------------------------------------
// Expectations
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// What a statement must return. Row sets compare by count and an
/// order-independent checksum: parallel plans emit rows in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Rows { count: usize, checksum: u64 },
    Affected(u64),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    pub sql: String,
    pub kind: Kind,
    pub expect: Expect,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Position-sensitive hash of one all-integer row.
fn row_hash(ints: impl IntoIterator<Item = i64>) -> u64 {
    ints.into_iter().fold(0x6A09_E667_F3BC_C909, |h, v| {
        mix(h ^ v as u64).wrapping_add(1)
    })
}

/// Builds a row-set expectation one row at a time.
#[derive(Debug, Default, Clone, Copy)]
pub struct RowSet {
    count: usize,
    checksum: u64,
}

impl RowSet {
    pub fn push(&mut self, ints: impl IntoIterator<Item = i64>) {
        self.count += 1;
        self.checksum = self.checksum.wrapping_add(row_hash(ints));
    }

    pub fn expect(self) -> Expect {
        Expect::Rows {
            count: self.count,
            checksum: self.checksum,
        }
    }
}

impl Expect {
    /// Check a result against this expectation; the error says what
    /// differed.
    pub fn verify(&self, rows: &[Tuple], affected: u64) -> Result<(), String> {
        match *self {
            Expect::Affected(n) if affected == n => Ok(()),
            Expect::Affected(n) => Err(format!("affected {affected} rows, expected {n}")),
            Expect::Rows { count, checksum } => {
                if rows.len() != count {
                    return Err(format!("{} rows, expected {count}", rows.len()));
                }
                let mut got = RowSet::default();
                for row in rows {
                    let mut ints = Vec::with_capacity(row.len());
                    for v in row.values() {
                        match v {
                            Value::Int(i) => ints.push(*i),
                            other => return Err(format!("non-integer result value {other}")),
                        }
                    }
                    got.push(ints);
                }
                if got.checksum != checksum {
                    return Err(format!(
                        "checksum {:#x} over {count} rows, expected {checksum:#x}",
                        got.checksum
                    ));
                }
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------
// rel100 — the paper's relation (§5.1), for the two UDF workloads
// ---------------------------------------------------------------------

const REL_BYTES: usize = 100;

/// The byte array of each `rel100` tuple; tuple `i` has `id = i`.
pub fn rel100(seed: u64, rows: usize) -> Vec<Vec<u8>> {
    let mut rng = stream_rng(seed, STREAM_REL);
    (0..rows)
        .map(|_| {
            let mut data = vec![0u8; REL_BYTES];
            rng.fill_bytes(&mut data);
            data
        })
        .collect()
}

/// The paper's generic-UDF query over every tuple of `rel100`.
pub fn udf_query(rows: usize, indep: i64, dep: i64, callbacks: i64) -> String {
    format!(
        "SELECT udf(R.bytearray, {indep}, {dep}, {callbacks}) FROM rel100 R WHERE R.id < {rows}"
    )
}

// ---------------------------------------------------------------------
// wide — the larger-than-cache table of scan_agg
// ---------------------------------------------------------------------

const WIDE_GROUPS: usize = 16;
const WIDE_V_RANGE: usize = 1_000;
/// Pads a row to ≈120 bytes on the page: 200,000 rows ≈ 24 MB, three
/// times the 8 MiB buffer pool.
const WIDE_PAD: usize = 80;

pub struct WideRow {
    pub grp: i64,
    pub v: i64,
    pub pad: Vec<u8>,
}

/// Rows of `wide` in id order.
pub fn wide_rows(seed: u64, rows: usize) -> impl Iterator<Item = WideRow> {
    let mut rng = stream_rng(seed, STREAM_WIDE);
    (0..rows).map(move |_| {
        let grp = rng.next_below(WIDE_GROUPS as u64) as i64;
        let v = rng.next_below(WIDE_V_RANGE as u64) as i64;
        let mut pad = vec![0u8; WIDE_PAD];
        rng.fill_bytes(&mut pad);
        WideRow { grp, v, pad }
    })
}

/// What `wide` holds, tallied while it is loaded: rows per `(grp, v)`.
/// Enough to answer the aggregate for any threshold.
pub struct WideModel {
    hist: Vec<u64>,
}

impl Default for WideModel {
    fn default() -> WideModel {
        WideModel {
            hist: vec![0; WIDE_GROUPS * WIDE_V_RANGE],
        }
    }
}

impl WideModel {
    pub fn add(&mut self, row: &WideRow) {
        self.hist[row.grp as usize * WIDE_V_RANGE + row.v as usize] += 1;
    }

    /// `SELECT grp, COUNT(*), SUM(v) … WHERE v >= threshold GROUP BY grp`.
    pub fn aggregate(&self, threshold: i64) -> Expect {
        let mut rows = RowSet::default();
        for grp in 0..WIDE_GROUPS {
            let (mut count, mut sum) = (0u64, 0u64);
            for v in threshold.max(0) as usize..WIDE_V_RANGE {
                let n = self.hist[grp * WIDE_V_RANGE + v];
                count += n;
                sum += n * v as u64;
            }
            if count > 0 {
                rows.push([grp as i64, count as i64, sum as i64]);
            }
        }
        rows.expect()
    }
}

/// The statement stream of `scan_agg`'s single client. Every statement
/// draws its own threshold, so no two share text (nothing can be served
/// from a statement-level cache) and the mean selectivity of a window is
/// the same for every seed.
pub struct ScanStream {
    rng: SplitMix64,
    model: Arc<WideModel>,
}

impl ScanStream {
    pub fn new(seed: u64, model: Arc<WideModel>) -> ScanStream {
        ScanStream {
            rng: stream_rng(seed, STREAM_SCAN_STMTS),
            model,
        }
    }

    pub fn next_stmt(&mut self) -> Stmt {
        // Selectivity 10 %–90 %: never an empty or a whole-table result.
        let lo = WIDE_V_RANGE as u64 / 10;
        let threshold = (lo + self.rng.next_below(WIDE_V_RANGE as u64 - 2 * lo)) as i64;
        Stmt {
            sql: format!(
                "SELECT grp, COUNT(*), SUM(v) FROM wide WHERE v >= {threshold} GROUP BY grp"
            ),
            kind: Kind::Read,
            expect: self.model.aggregate(threshold),
        }
    }
}

// ---------------------------------------------------------------------
// acct — the indexed table of oltp_mix
// ---------------------------------------------------------------------

pub const ACCT_TAG_BYTES: usize = 16;
/// Rows a range read covers.
const RANGE_ROWS: usize = 20;
/// Share of `acct` no client ever writes; reads that must see one exact
/// row draw their keys here.
const STABLE_TENTHS: usize = 8;

/// What the `tier` UDF of `oltp_mix` computes (see `workload::TIER_SOURCE`).
pub fn tier(bal: i64) -> i64 {
    bal / 1_000 + 1
}

pub struct AcctRow {
    pub bal: i64,
    pub tag: [u8; ACCT_TAG_BYTES],
}

/// Initial contents of `acct`; row `i` has `id = i`.
pub fn acct_rows(seed: u64, rows: usize) -> Vec<AcctRow> {
    let mut rng = stream_rng(seed, STREAM_ACCT);
    (0..rows)
        .map(|_| {
            let bal = rng.next_below(1_000_000) as i64;
            let mut tag = [0u8; ACCT_TAG_BYTES];
            rng.fill_bytes(&mut tag);
            AcctRow { bal, tag }
        })
        .collect()
}

pub fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02X}");
    }
    out
}

/// One client's seeded statement sequence for `oltp_mix`: 50 % point
/// reads, 20 % UDF range reads, 10 % each INSERT / UPDATE / DELETE.
///
/// Keys are partitioned so every result is known without asking the
/// engine: ids below `stable` are never written by anyone; the rest of
/// the initial rows are split into one slice per client, and a client
/// inserts only ids from its own private range. A client updates, deletes
/// and re-reads only rows it owns, so it always knows their `bal`.
pub struct OltpStream {
    rng: SplitMix64,
    acct: Arc<Vec<AcctRow>>,
    stable: usize,
    /// Rows this client owns and that are live now: `(id, bal)`.
    owned: Vec<(i64, i64)>,
    next_insert_id: i64,
    pub inserts: u64,
    pub deletes: u64,
}

impl OltpStream {
    pub fn new(seed: u64, client: usize, clients: usize, acct: Arc<Vec<AcctRow>>) -> OltpStream {
        let stable = acct.len() * STABLE_TENTHS / 10;
        let slice = (acct.len() - stable) / clients;
        let first = stable + client * slice;
        let owned = (first..first + slice)
            .map(|id| (id as i64, acct[id].bal))
            .collect();
        OltpStream {
            rng: stream_rng(seed, STREAM_OLTP_CLIENT + client as u64),
            acct,
            stable,
            owned,
            next_insert_id: 1_000_000 * (client as i64 + 1),
            inserts: 0,
            deletes: 0,
        }
    }

    fn pick_owned(&mut self) -> usize {
        self.rng.next_below(self.owned.len() as u64) as usize
    }

    fn stable_point_read(&mut self) -> Stmt {
        let id = self.rng.next_below(self.stable as u64) as usize;
        point_read(id as i64, self.acct[id].bal)
    }

    fn stable_range_read(&mut self) -> Stmt {
        let k = self.rng.next_below((self.stable - RANGE_ROWS + 1) as u64) as usize;
        let mut rows = RowSet::default();
        for row in &self.acct[k..k + RANGE_ROWS] {
            rows.push([row.tag[0] as i64, tier(row.bal)]);
        }
        Stmt {
            sql: format!(
                "SELECT lb(tag), tier(bal) FROM acct WHERE id >= {k} AND id < {}",
                k + RANGE_ROWS
            ),
            kind: Kind::Read,
            expect: rows.expect(),
        }
    }

    /// A read over rows nobody writes, in the mix's 5 : 2 point-to-range
    /// proportion — valid whatever this or any other stream has written.
    pub fn next_stable_read(&mut self) -> Stmt {
        if self.rng.next_below(7) < 5 {
            self.stable_point_read()
        } else {
            self.stable_range_read()
        }
    }

    pub fn next_stmt(&mut self) -> Stmt {
        let mut roll = self.rng.next_below(100);
        if self.owned.is_empty() && roll >= 80 {
            // Nothing left to update or delete: insert instead.
            roll = 70;
        }
        match roll {
            // A quarter of the point reads re-read a row this client wrote,
            // so lost or half-applied writes are caught.
            0..=49 if !self.owned.is_empty() && self.rng.next_below(4) == 0 => {
                let i = self.pick_owned();
                let (id, bal) = self.owned[i];
                point_read(id, bal)
            }
            0..=49 => self.stable_point_read(),
            50..=69 => self.stable_range_read(),
            70..=79 => {
                let id = self.next_insert_id;
                self.next_insert_id += 1;
                let bal = self.rng.next_below(1_000_000) as i64;
                let mut tag = [0u8; ACCT_TAG_BYTES];
                self.rng.fill_bytes(&mut tag);
                self.owned.push((id, bal));
                self.inserts += 1;
                Stmt {
                    sql: format!("INSERT INTO acct VALUES ({id}, {bal}, X'{}')", hex(&tag)),
                    kind: Kind::Write,
                    expect: Expect::Affected(1),
                }
            }
            80..=89 => {
                let i = self.pick_owned();
                let bal = self.rng.next_below(1_000_000) as i64;
                self.owned[i].1 = bal;
                Stmt {
                    sql: format!("UPDATE acct SET bal = {bal} WHERE id = {}", self.owned[i].0),
                    kind: Kind::Write,
                    expect: Expect::Affected(1),
                }
            }
            _ => {
                let i = self.pick_owned();
                let (id, _) = self.owned.swap_remove(i);
                self.deletes += 1;
                Stmt {
                    sql: format!("DELETE FROM acct WHERE id = {id}"),
                    kind: Kind::Write,
                    expect: Expect::Affected(1),
                }
            }
        }
    }
}

fn point_read(id: i64, bal: i64) -> Stmt {
    let mut rows = RowSet::default();
    rows.push([bal]);
    Stmt {
        sql: format!("SELECT bal FROM acct WHERE id = {id}"),
        kind: Kind::Read,
        expect: rows.expect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_rows(rows: &[&[i64]]) -> Vec<Tuple> {
        rows.iter()
            .map(|r| Tuple::new(r.iter().map(|v| Value::Int(*v)).collect()))
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(rel100(1, 50), rel100(1, 50));
        assert_ne!(rel100(1, 50), rel100(2, 50));
        let wide = |seed| -> Vec<(i64, i64, Vec<u8>)> {
            wide_rows(seed, 40).map(|r| (r.grp, r.v, r.pad)).collect()
        };
        assert_eq!(wide(3), wide(3));
        assert_ne!(wide(3), wide(4));
        let acct = |seed| -> Vec<(i64, [u8; ACCT_TAG_BYTES])> {
            acct_rows(seed, 40)
                .into_iter()
                .map(|r| (r.bal, r.tag))
                .collect()
        };
        assert_eq!(acct(5), acct(5));
        assert_ne!(acct(5), acct(6));
    }

    #[test]
    fn same_seed_yields_byte_identical_sql_streams() {
        let scan = |seed| {
            let mut model = WideModel::default();
            wide_rows(seed, 500).for_each(|r| model.add(&r));
            let mut s = ScanStream::new(seed, Arc::new(model));
            (0..50).map(|_| s.next_stmt()).collect::<Vec<_>>()
        };
        assert_eq!(scan(1), scan(1));
        assert_ne!(scan(1), scan(2));

        let oltp = |seed, client| {
            let mut s = OltpStream::new(seed, client, 2, Arc::new(acct_rows(seed, 1_000)));
            (0..2_000).map(|_| s.next_stmt()).collect::<Vec<_>>()
        };
        assert_eq!(oltp(1, 0), oltp(1, 0));
        assert_ne!(
            oltp(1, 0),
            oltp(1, 1),
            "clients draw from their own streams"
        );
        assert_ne!(oltp(1, 0), oltp(2, 0));
    }

    #[test]
    fn oltp_mix_has_the_stated_shares_and_disjoint_write_keys() {
        let acct = Arc::new(acct_rows(9, 1_000));
        let written_ids = |client| {
            let mut s = OltpStream::new(9, client, 2, Arc::clone(&acct));
            let mut ids = std::collections::BTreeSet::new();
            let mut tally = [0usize; 5];
            for _ in 0..20_000 {
                let stmt = s.next_stmt();
                let word = stmt.sql.split(' ').next().unwrap();
                let slot = match (word, stmt.sql.contains("lb(tag), tier(bal)")) {
                    ("SELECT", false) => 0,
                    ("SELECT", true) => 1,
                    ("INSERT", _) => 2,
                    ("UPDATE", _) => 3,
                    ("DELETE", _) => 4,
                    other => panic!("unexpected statement {other:?}"),
                };
                tally[slot] += 1;
                assert_eq!(stmt.kind == Kind::Write, slot >= 2);
                if slot >= 2 {
                    let digits: String = stmt
                        .sql
                        .rsplit_once(if slot == 2 { "VALUES (" } else { "id = " })
                        .unwrap()
                        .1
                        .chars()
                        .take_while(char::is_ascii_digit)
                        .collect();
                    ids.insert(digits.parse::<i64>().unwrap());
                }
            }
            for (slot, share) in [(0, 0.5), (1, 0.2), (2, 0.1), (3, 0.1), (4, 0.1)] {
                let got = tally[slot] as f64 / 20_000.0;
                assert!((got - share).abs() < 0.02, "slot {slot}: {got} vs {share}");
            }
            assert_eq!(s.inserts as usize, tally[2]);
            assert_eq!(s.deletes as usize, tally[4]);
            ids
        };
        let (a, b) = (written_ids(0), written_ids(1));
        assert!(a.is_disjoint(&b));
        assert!(
            a.iter().chain(&b).all(|id| *id >= 800),
            "stable rows are never written"
        );
    }

    #[test]
    fn wide_model_matches_a_direct_aggregate() {
        let rows: Vec<WideRow> = wide_rows(11, 3_000).collect();
        let mut model = WideModel::default();
        rows.iter().for_each(|r| model.add(r));
        for threshold in [0, 137, 500, 999] {
            let mut direct = RowSet::default();
            for grp in 0..WIDE_GROUPS as i64 {
                let hit: Vec<i64> = rows
                    .iter()
                    .filter(|r| r.grp == grp && r.v >= threshold)
                    .map(|r| r.v)
                    .collect();
                if !hit.is_empty() {
                    direct.push([grp, hit.len() as i64, hit.iter().sum()]);
                }
            }
            assert_eq!(model.aggregate(threshold), direct.expect());
        }
    }

    #[test]
    fn verify_accepts_any_row_order_and_rejects_wrong_results() {
        let mut rows = RowSet::default();
        rows.push([1, 10]);
        rows.push([2, 20]);
        let expect = rows.expect();
        assert!(expect.verify(&int_rows(&[&[2, 20], &[1, 10]]), 0).is_ok());
        assert!(
            expect.verify(&int_rows(&[&[1, 10]]), 0).is_err(),
            "row missing"
        );
        assert!(
            expect.verify(&int_rows(&[&[1, 10], &[2, 21]]), 0).is_err(),
            "wrong value"
        );
        assert!(
            expect.verify(&int_rows(&[&[10, 1], &[2, 20]]), 0).is_err(),
            "columns swapped"
        );
        let not_int = vec![
            Tuple::new(vec![Value::Null, Value::Int(10)]),
            int_rows(&[&[2, 20]]).remove(0),
        ];
        assert!(expect.verify(&not_int, 0).is_err());
        assert!(Expect::Affected(1).verify(&[], 1).is_ok());
        assert!(Expect::Affected(1).verify(&[], 0).is_err());
    }
}
