//! Property-based equivalence between [`EventQueue`] and a plain reference
//! model.
//!
//! The [`EventQueue`] contract is that delivery order is a pure function of
//! the operation sequence: `(time, insertion-seq)` order, with past times
//! clamped to the clock. The model states that contract in the most direct
//! way possible — a `Vec` of `(time, seq, payload)` scanned for its minimum
//! on every pop. These tests drive the queue and the model through
//! identical random interleavings of `schedule` / `schedule_after` / `pop`
//! / `reset`, of pops immediately followed by zero, one or several
//! schedules (the queue overwrites a popped entry in place with the next
//! schedule), and of mid-run `len` / `is_empty` / `peek_time` reads. They
//! require the full observable history (popped times and payloads, every
//! mid-run read, clock, processed and clamped counters, pending length,
//! next pending time) to match exactly. Whole-simulation determinism rests
//! on this property.

use gpreempt_sim::EventQueue;
use gpreempt_types::SimTime;
use proptest::prelude::*;

/// One step of the interleaving. Times are raw nanosecond values so the
/// strategy can freely generate past, present and future schedules; the
/// queue is expected to clamp (and count) the past ones like the model.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at an absolute time (may lie in the past → clamp).
    Schedule(u64),
    /// Schedule relative to the current clock.
    ScheduleAfter(u64),
    /// Pop a single event.
    Pop,
    /// Pop a single event, then schedule `count` events (0, 1 or several)
    /// at times drawn from `raw`: mostly after the popped event, sometimes
    /// at it, and sometimes in the past (→ clamp).
    PopThenSchedule { count: u32, raw: u64 },
    /// Record `len` and `is_empty`.
    Len,
    /// Record `peek_time`.
    Peek,
    /// Reset the queue to a fresh state (keeps the allocation).
    Reset,
}

impl Op {
    /// The absolute times a [`Op::PopThenSchedule`] schedules, given the
    /// clock after its pop.
    fn follow_up_times(count: u32, raw: u64, now: u64) -> impl Iterator<Item = u64> {
        (0..count).map(move |j| {
            let draw = raw.rotate_right(13 * j) % 4_000;
            match draw % 8 {
                0 => now,
                1 => draw / 2,
                _ => now + draw,
            }
        })
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted choice over op kinds (the vendored proptest has no
    // `prop_oneof!`): clustered absolute times force same-timestamp
    // collisions (FIFO order must hold), the uniform tail spreads
    // timestamps over a wide range.
    (0u32..18, 0u64..100_000_000).prop_map(|(sel, raw)| match sel {
        0..=3 => Op::Schedule((raw % 50_000) / 500 * 500),
        4..=5 => Op::Schedule(raw),
        6..=8 => Op::ScheduleAfter(raw % 10_000),
        9..=11 => Op::Pop,
        12..=14 => Op::PopThenSchedule {
            count: [0, 1, 1, 1, 2, 3][(raw % 6) as usize],
            raw,
        },
        15 => Op::Len,
        16 => Op::Peek,
        _ => Op::Reset,
    })
}

/// Observable history of one run: everything a caller could see.
#[derive(Debug, PartialEq, Eq)]
struct History {
    /// (timestamp nanos, payload) of every popped event.
    pops: Vec<(u64, u64)>,
    /// Every mid-run read, in order.
    reads: Vec<Read>,
    processed: u64,
    clamped: u64,
    now: u64,
    len: usize,
    peek: Option<u64>,
}

/// One mid-run observation.
#[derive(Debug, PartialEq, Eq)]
enum Read {
    Len { len: usize, empty: bool },
    Peek(Option<u64>),
}

/// The reference model: pending `(time, seq, payload)` entries in
/// insertion order, popped by a linear minimum scan over `(time, seq)`.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64, u64)>,
    next_seq: u64,
    now: u64,
    processed: u64,
    clamped: u64,
}

impl Model {
    fn schedule(&mut self, time: u64, payload: u64) {
        let time = if time < self.now {
            self.clamped += 1;
            self.now
        } else {
            time
        };
        self.pending.push((time, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn min_index(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let (time, _, payload) = self.pending.swap_remove(self.min_index()?);
        self.now = time;
        self.processed += 1;
        Some((time, payload))
    }

    fn peek(&self) -> Option<u64> {
        self.min_index().map(|i| self.pending[i].0)
    }
}

fn run_queue(ops: &[Op]) -> History {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut pops = Vec::new();
    let mut reads = Vec::new();
    let mut payload = 0u64;
    for &op in ops {
        match op {
            Op::Schedule(t) => {
                q.schedule(SimTime::from_nanos(t), payload);
                payload += 1;
            }
            Op::ScheduleAfter(d) => {
                q.schedule_after(SimTime::from_nanos(d), payload);
                payload += 1;
            }
            Op::Pop => {
                if let Some((t, e)) = q.pop() {
                    pops.push((t.as_nanos(), e));
                }
            }
            Op::PopThenSchedule { count, raw } => {
                if let Some((t, e)) = q.pop() {
                    pops.push((t.as_nanos(), e));
                }
                for time in Op::follow_up_times(count, raw, q.now().as_nanos()) {
                    q.schedule(SimTime::from_nanos(time), payload);
                    payload += 1;
                }
            }
            Op::Len => reads.push(Read::Len {
                len: q.len(),
                empty: q.is_empty(),
            }),
            Op::Peek => reads.push(Read::Peek(q.peek_time().map(SimTime::as_nanos))),
            Op::Reset => q.reset(),
        }
    }
    History {
        pops,
        reads,
        processed: q.processed(),
        clamped: q.clamped(),
        now: q.now().as_nanos(),
        len: q.len(),
        peek: q.peek_time().map(SimTime::as_nanos),
    }
}

fn run_model(ops: &[Op]) -> History {
    let mut m = Model::default();
    let mut pops = Vec::new();
    let mut reads = Vec::new();
    let mut payload = 0u64;
    for &op in ops {
        match op {
            Op::Schedule(t) => {
                m.schedule(t, payload);
                payload += 1;
            }
            Op::ScheduleAfter(d) => {
                m.schedule(m.now + d, payload);
                payload += 1;
            }
            Op::Pop => pops.extend(m.pop()),
            Op::PopThenSchedule { count, raw } => {
                pops.extend(m.pop());
                for time in Op::follow_up_times(count, raw, m.now) {
                    m.schedule(time, payload);
                    payload += 1;
                }
            }
            Op::Len => reads.push(Read::Len {
                len: m.pending.len(),
                empty: m.pending.is_empty(),
            }),
            Op::Peek => reads.push(Read::Peek(m.peek())),
            Op::Reset => m = Model::default(),
        }
    }
    History {
        pops,
        reads,
        processed: m.processed,
        clamped: m.clamped,
        now: m.now,
        len: m.pending.len(),
        peek: m.peek(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings produce identical observable histories on the
    /// queue and the model.
    #[test]
    fn queue_matches_reference_model(ops in prop::collection::vec(op_strategy(), 0..400)) {
        prop_assert_eq!(run_queue(&ops), run_model(&ops));
    }

    /// Draining everything after the interleaving yields the same total
    /// order — the queue agrees with the model not just on what was popped
    /// during the run but on everything left pending.
    #[test]
    fn queue_matches_reference_model_on_the_full_drain(
        ops in prop::collection::vec(op_strategy(), 0..200),
    ) {
        let mut drain_ops = ops;
        drain_ops.extend(std::iter::repeat_n(Op::Pop, 700));
        let queue = run_queue(&drain_ops);
        prop_assert_eq!(queue.len, 0);
        prop_assert_eq!(queue, run_model(&drain_ops));
    }
}
