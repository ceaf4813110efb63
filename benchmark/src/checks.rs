//! What the benchmark checks about the program's outputs, and the client
//! models that know which output is right.
//!
//! Every check returns `Err(description)` on a violation; any violation
//! makes the run exit nonzero without printing a result.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use splitbft_app::KvOp;
use splitbft_loadgen::Workload;
use splitbft_types::wire::decode;
use std::collections::HashMap;

/// What a request does, as far as checking its result goes.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// Counter increment; the result is the post-increment value.
    Inc,
    /// KVS put; the result is the key's previous value.
    Write {
        /// The key.
        key: Bytes,
        /// The value written.
        value: Bytes,
        /// No other write to the key was in flight when this one went out.
        serialized: bool,
        /// The key's write epoch this write opened.
        epoch: u64,
    },
    /// KVS get; `expect` is the last acknowledged value and the epoch it
    /// belongs to, when no write to the key was in flight at issue.
    Read {
        /// The key.
        key: Bytes,
        /// Expected value and epoch, if the read is checkable.
        expect: Option<(Bytes, u64)>,
    },
}

/// The client-side model of the replicated application.
#[derive(Debug)]
pub enum Model {
    /// The counter: every completed increment observes its own slot.
    Counter(CounterModel),
    /// The key-value store: reads and writes checked against acks.
    Kvs(KvsModel),
}

impl Model {
    /// The model for `ops`, drawing operations from `seed`; `counter`
    /// is the counter's value before the first increment.
    pub fn new(ops: &Workload, seed: u64, counter: u64) -> Model {
        match ops {
            Workload::Kvs { value_size, .. } => {
                Model::Kvs(KvsModel::new(ops.clone(), *value_size, seed))
            }
            _ => Model::Counter(CounterModel::new(counter)),
        }
    }

    /// The next operation of the workload stream.
    pub fn next_op(&mut self, stamp: u64) -> (Bytes, OpKind) {
        match self {
            Model::Counter(_) => (Bytes::from_static(b"inc"), OpKind::Inc),
            Model::Kvs(kvs) => kvs.next_op(stamp),
        }
    }

    /// Checks a completed request's agreed result.
    pub fn on_complete(&mut self, kind: &OpKind, result: &[u8]) -> Result<(), String> {
        match self {
            Model::Counter(counter) => counter.on_complete(result),
            Model::Kvs(kvs) => kvs.on_complete(kind, result),
        }
    }

    /// Forgets a request whose outcome is unknown (timed out or never sent).
    pub fn on_abandon(&mut self, kind: &OpKind) {
        if let Model::Kvs(kvs) = self {
            kvs.on_abandon(kind);
        }
    }
}

/// Client-side view of the counter.
#[derive(Debug)]
pub struct CounterModel {
    /// The counter's value before the first increment.
    base: u64,
    /// One bit per value above `base` some acknowledged increment returned
    /// (a bit set, so that checking costs the process almost no memory).
    seen: Vec<u64>,
    /// Increments acknowledged by an `f + 1` quorum.
    pub completed: u64,
    /// Largest acknowledged post-increment value.
    pub highest: u64,
}

impl CounterModel {
    fn new(base: u64) -> Self {
        CounterModel {
            base,
            seen: Vec::new(),
            completed: 0,
            highest: base,
        }
    }

    fn on_complete(&mut self, result: &[u8]) -> Result<(), String> {
        let bytes: [u8; 8] = result
            .try_into()
            .map_err(|_| format!("counter inc returned {} bytes, not 8", result.len()))?;
        let value = u64::from_le_bytes(bytes);
        if value <= self.base {
            return Err(format!(
                "counter inc returned {value}, not above the value {} read before the run",
                self.base
            ));
        }
        let slot = value - self.base - 1;
        let (word, bit) = ((slot / 64) as usize, slot % 64);
        if word >= self.seen.len() {
            self.seen.resize(word + 1, 0);
        }
        // Two requests acknowledged with one value means two histories.
        if self.seen[word] & (1 << bit) != 0 {
            return Err(format!(
                "two counter incs were both acknowledged with value {value}"
            ));
        }
        self.seen[word] |= 1 << bit;
        self.completed += 1;
        self.highest = self.highest.max(value);
        Ok(())
    }
}

#[derive(Debug, Default)]
struct KeyState {
    /// Last acknowledged value; `None` while overlapping writes make the
    /// order of acknowledgements differ from the order of execution.
    acked: Option<Bytes>,
    inflight_writes: u32,
    epoch: u64,
}

/// Client-side view of the key-value store.
#[derive(Debug)]
pub struct KvsModel {
    ops: Workload,
    value_size: usize,
    rng: StdRng,
    keys: HashMap<Bytes, KeyState>,
    /// Reads whose result was compared with the last acknowledged value.
    pub reads_checked: u64,
    /// Writes whose returned previous value was compared likewise.
    pub writes_checked: u64,
}

impl KvsModel {
    fn new(ops: Workload, value_size: usize, seed: u64) -> Self {
        KvsModel {
            ops,
            value_size,
            rng: StdRng::seed_from_u64(seed),
            keys: HashMap::new(),
            reads_checked: 0,
            writes_checked: 0,
        }
    }

    /// A value of the workload's size that no other write carries.
    fn stamped_value(&self, stamp: u64) -> Bytes {
        let mut value = stamp.to_le_bytes().to_vec();
        value.resize(self.value_size.max(8), b'v');
        Bytes::from(value)
    }

    /// The write that loads key number `index` during set-up.
    pub fn prefill_op(&mut self, index: u64, stamp: u64) -> (Bytes, OpKind) {
        let key = format!("key{index:08}");
        let value = self.stamped_value(stamp);
        let op = KvOp::put(key.as_bytes(), &value).encode_op();
        (op, self.open_write(Bytes::from(key.into_bytes()), value))
    }

    fn open_write(&mut self, key: Bytes, value: Bytes) -> OpKind {
        let state = self.keys.entry(key.clone()).or_default();
        let serialized = state.inflight_writes == 0;
        state.inflight_writes += 1;
        state.epoch += 1;
        OpKind::Write {
            key,
            value,
            serialized,
            epoch: state.epoch,
        }
    }

    /// Draws the next operation from the workload and stamps puts with a
    /// unique value, so a stale read is visible.
    fn next_op(&mut self, stamp: u64) -> (Bytes, OpKind) {
        let drawn = self.ops.next_op(&mut self.rng, stamp);
        match decode::<KvOp>(&drawn).expect("the workload emits valid KVS ops") {
            KvOp::Put { key, .. } => {
                let value = self.stamped_value(stamp);
                let op = KvOp::put(&key, &value).encode_op();
                (op, self.open_write(key, value))
            }
            KvOp::Get { key } => {
                let state = self.keys.entry(key.clone()).or_default();
                let expect = match (&state.acked, state.inflight_writes) {
                    (Some(value), 0) => Some((value.clone(), state.epoch)),
                    _ => None,
                };
                (drawn, OpKind::Read { key, expect })
            }
            KvOp::Delete { .. } => unreachable!("the workload never deletes"),
        }
    }

    fn on_complete(&mut self, kind: &OpKind, result: &[u8]) -> Result<(), String> {
        match kind {
            OpKind::Write {
                key,
                value,
                serialized,
                epoch,
            } => {
                let state = self.keys.entry(key.clone()).or_default();
                state.inflight_writes = state.inflight_writes.saturating_sub(1);
                if !(*serialized && state.epoch == *epoch) {
                    state.acked = None;
                    return Ok(());
                }
                // The quorum acknowledged this write, so it is the last
                // acknowledged value whether or not the check below holds.
                let Some(previous) = state.acked.replace(value.clone()) else {
                    return Ok(());
                };
                self.writes_checked += 1;
                if previous[..] == *result {
                    Ok(())
                } else {
                    Err(format!(
                        "put {} returned a previous value other than the last acknowledged one",
                        String::from_utf8_lossy(key)
                    ))
                }
            }
            OpKind::Read {
                key,
                expect: Some((value, epoch)),
            } => {
                let state = self.keys.entry(key.clone()).or_default();
                if state.epoch != *epoch {
                    return Ok(()); // a write went out meanwhile; either value is legal
                }
                self.reads_checked += 1;
                if value[..] == *result {
                    Ok(())
                } else {
                    Err(format!(
                        "get {} returned a value other than the last acknowledged one",
                        String::from_utf8_lossy(key)
                    ))
                }
            }
            OpKind::Read { expect: None, .. } | OpKind::Inc => Ok(()),
        }
    }

    fn on_abandon(&mut self, kind: &OpKind) {
        if let OpKind::Write { key, .. } = kind {
            let state = self.keys.entry(key.clone()).or_default();
            state.inflight_writes = state.inflight_writes.saturating_sub(1);
            state.acked = None; // it may or may not have executed
        }
    }
}

/// The counter grew by exactly the increments clients saw acknowledged;
/// an increment whose outcome is unknown may or may not have executed.
pub fn counter_commits(
    before: u64,
    after: u64,
    acknowledged: u64,
    unknown: u64,
) -> Result<(), String> {
    let committed = after
        .checked_sub(before)
        .ok_or_else(|| format!("counter went backwards: {before} before the run, {after} after"))?;
    if committed < acknowledged || committed > acknowledged + unknown {
        return Err(format!(
            "counter advanced by {committed}, but clients saw {acknowledged} increments \
             acknowledged and {unknown} with unknown outcome"
        ));
    }
    Ok(())
}

/// No acknowledged increment returned a value past the final read.
pub fn counter_results_in_range(after: u64, highest: u64) -> Result<(), String> {
    if highest > after {
        return Err(format!(
            "an acknowledged increment returned {highest}, past the value {after} read after the run"
        ));
    }
    Ok(())
}

/// All replicas executed the same prefix once the load stopped.
pub fn progress_equal(progress: &[u64]) -> Result<(), String> {
    match progress.iter().min() == progress.iter().max() {
        true => Ok(()),
        false => Err(format!(
            "replicas disagree on progress after drain: {progress:?}"
        )),
    }
}

/// Latency percentiles are positive and ordered.
pub fn percentiles_monotone(p50: u64, p99: u64, max: u64) -> Result<(), String> {
    if 0 < p50 && p50 <= p99 && p99 <= max {
        Ok(())
    } else {
        Err(format!(
            "latency percentiles out of order: p50 {p50}, p99 {p99}, max {max} (ns)"
        ))
    }
}

/// Every issued request either completed or is counted as failed.
pub fn failures_accounted(issued: u64, completed: u64, failed: u64) -> Result<(), String> {
    if issued == 0 {
        return Err("no request was issued in the measurement window".into());
    }
    if completed + failed != issued {
        return Err(format!(
            "{issued} requests issued, but {completed} completed and {failed} failed"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_commits_must_match_acknowledged() {
        assert!(counter_commits(10, 110, 100, 0).is_ok());
        assert!(
            counter_commits(10, 111, 100, 0).is_err(),
            "one commit too many"
        );
        assert!(
            counter_commits(10, 109, 100, 0).is_err(),
            "one commit too few"
        );
        assert!(
            counter_commits(10, 111, 100, 1).is_ok(),
            "a timed-out inc may have run"
        );
        assert!(
            counter_commits(10, 9, 0, 0).is_err(),
            "counter went backwards"
        );
    }

    #[test]
    fn counter_results_must_be_distinct_and_in_range() {
        let mut model = CounterModel::new(10);
        model.on_complete(&11u64.to_le_bytes()).unwrap();
        model.on_complete(&200u64.to_le_bytes()).unwrap();
        assert!(
            model.on_complete(&11u64.to_le_bytes()).is_err(),
            "two requests, one slot"
        );
        assert!(
            model.on_complete(&10u64.to_le_bytes()).is_err(),
            "value from before the run"
        );
        assert!(model.on_complete(b"oops").is_err(), "not a u64");
        assert_eq!(model.completed, 2);
        assert!(counter_results_in_range(200, model.highest).is_ok());
        assert!(
            counter_results_in_range(199, model.highest).is_err(),
            "value past the final read"
        );
    }

    #[test]
    fn progress_must_agree() {
        assert!(progress_equal(&[7, 7, 7, 7]).is_ok());
        assert!(progress_equal(&[7, 7, 6, 7]).is_err());
    }

    #[test]
    fn percentiles_must_be_ordered() {
        assert!(percentiles_monotone(5, 9, 9).is_ok());
        assert!(percentiles_monotone(9, 5, 9).is_err());
        assert!(percentiles_monotone(5, 9, 8).is_err());
        assert!(percentiles_monotone(0, 9, 9).is_err(), "no latency is zero");
    }

    #[test]
    fn failures_count_against_issued() {
        assert!(failures_accounted(100, 98, 2).is_ok());
        assert!(
            failures_accounted(100, 98, 1).is_err(),
            "a request went missing"
        );
        assert!(failures_accounted(0, 0, 0).is_err(), "nothing attempted");
    }

    fn kvs() -> KvsModel {
        KvsModel::new(
            Workload::Kvs {
                keys: 4,
                value_size: 16,
                read_ratio: 0.5,
            },
            16,
            7,
        )
    }

    #[test]
    fn kvs_read_must_return_last_acknowledged_value() {
        let mut model = kvs();
        let (_, write) = model.prefill_op(0, 1);
        model.on_complete(&write, b"").unwrap();
        let OpKind::Write { value, .. } = &write else {
            unreachable!()
        };
        let read = OpKind::Read {
            key: Bytes::from_static(b"key00000000"),
            expect: Some((value.clone(), 1)),
        };
        assert!(model.on_complete(&read, value).is_ok());
        assert!(model.on_complete(&read, b"stale").is_err(), "stale read");
        assert_eq!(model.reads_checked, 2);
    }

    #[test]
    fn kvs_write_must_return_previous_value() {
        let mut model = kvs();
        let (_, first) = model.prefill_op(0, 1);
        model.on_complete(&first, b"").unwrap();
        let OpKind::Write {
            value: first_value, ..
        } = &first
        else {
            unreachable!()
        };
        let (_, second) = model.prefill_op(0, 2);
        assert!(model.on_complete(&second, b"wrong").is_err());
        let (_, third) = model.prefill_op(0, 3);
        let OpKind::Write {
            value: second_value,
            ..
        } = &second
        else {
            unreachable!()
        };
        // The failed check still records `second` as acknowledged.
        assert!(model.on_complete(&third, second_value).is_ok());
        assert_ne!(first_value, second_value);
    }

    #[test]
    fn kvs_overlapping_writes_are_not_checked() {
        let mut model = kvs();
        let (_, a) = model.prefill_op(0, 1);
        let (_, b) = model.prefill_op(0, 2);
        model.on_complete(&b, b"").unwrap();
        model.on_complete(&a, b"anything").unwrap();
        let (_, kind) = model.next_op(3);
        if let OpKind::Read { key, expect } = kind {
            if key[..] == b"key00000000"[..] {
                assert!(
                    expect.is_none(),
                    "order of two overlapping writes is unknown"
                );
            }
        }
        assert_eq!(model.writes_checked, 0);
    }
}
